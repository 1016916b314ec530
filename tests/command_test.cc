// The shared command grammar (server/command.h): a golden transcript
// pinning the exact bytes both front-ends (strdb_shell, strdb_server)
// produce, plus the mode split (shell-only durable verbs) and the wire
// framing.  The transcript is the behavior-preservation contract for
// the shell-to-CommandProcessor extraction: these strings are the
// shell's historical printf outputs, byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "relational/stats.h"
#include "server/catalog.h"
#include "server/command.h"

namespace strdb {
namespace {

struct Exchange {
  std::string command;
  std::string output;       // expected `out` text
  bool ok = true;           // expected status.ok()
  std::string message_has;  // substring of the error message when !ok
};

void RunTranscript(CommandProcessor& proc,
                   const std::vector<Exchange>& transcript) {
  for (const Exchange& x : transcript) {
    std::string out;
    Status status = proc.Execute(x.command, &out);
    EXPECT_EQ(status.ok(), x.ok) << x.command << ": " << status.ToString();
    EXPECT_EQ(out, x.output) << x.command;
    if (!x.ok) {
      EXPECT_NE(status.ToString().find(x.message_has), std::string::npos)
          << x.command << ": " << status.ToString();
    }
  }
}

TEST(CommandTest, GoldenTranscript) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  RunTranscript(
      proc,
      {
          {"", "", true, ""},
          {"ping", "pong\n", true, ""},
          {"rel R ab ba", "defined R/1 with 2 tuples\n", true, ""},
          {"insert R aa", "inserted 1 tuple(s) into R\n", true, ""},
          {"rel Pairs ab,ba a,b",
           "defined Pairs/2 with 2 tuples\n", true, ""},
          {"show",
           "Pairs/2 = {(\"a\",\"b\"), (\"ab\",\"ba\")}\n"
           "R/1 = {(\"aa\"), (\"ab\"), (\"ba\")}\n",
           true, ""},
          {"x | R(x)", "{(\"aa\"), (\"ab\"), (\"ba\")}   (3 tuples)\n", true,
           ""},
          {"!1 x | R(x)", "{}   (0 tuples)\n", true, ""},
          {"engine off", "engine off\n", true, ""},
          {"x | R(x)", "{(\"aa\"), (\"ab\"), (\"ba\")}   (3 tuples)\n", true,
           ""},
          {"engine on", "engine on\n", true, ""},
          {"budget steps 1000 rows 50",
           "budget: steps=1000 rows=50 ms=- bytes=-\n", true, ""},
          {"budget off", "budget: steps=- rows=- ms=- bytes=-\n", true, ""},
          {"safe x | R(x)", "SAFE; inferred truncation W(db) = 2\n", true,
           ""},
          {"drop Pairs", "dropped Pairs\n", true, ""},
          {"drop Pairs", "", false, "not in database"},
          {"rel", "", false, "usage: rel NAME tuple [tuple ...]"},
          {"rel Bad ab a,b", "", false, "tuples of unequal arity"},
          {"insert Nope ab", "", false, "not in database"},
      });
}

TEST(CommandTest, EmptyTupleSpelledAsDash) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel E - a", &out).ok());
  EXPECT_EQ(out, "defined E/1 with 2 tuples\n");
  out.clear();
  ASSERT_TRUE(proc.Execute("show", &out).ok());
  EXPECT_EQ(out, "E/1 = {(\"\"), (\"a\")}\n");
}

TEST(CommandTest, PlanIsDeterministicText) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel R ab", &out).ok());
  std::string first;
  ASSERT_TRUE(proc.Execute("plan x | R(x)", &first).ok());
  EXPECT_NE(first.find("formula: "), std::string::npos);
  EXPECT_NE(first.find("plan:    "), std::string::npos);
  EXPECT_NE(first.find("finitely evaluable: "), std::string::npos);
  std::string second;
  ASSERT_TRUE(proc.Execute("plan x | R(x)", &second).ok());
  EXPECT_EQ(first, second);
}

TEST(CommandTest, BareVerbLinesGetTypedErrorsNotExceptions) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  // Regression: `safe`/`plan` with no argument used to slice past the
  // end of the line and throw std::out_of_range — fatal on the server,
  // whose pool workers swallow task exceptions and orphan the response.
  for (const char* line : {"safe", "plan", "explain", "safe ", "plan "}) {
    std::string out;
    Status status = proc.Execute(line, &out);
    EXPECT_FALSE(status.ok()) << line;  // empty query text: a parse error
  }
}

TEST(CommandTest, ServerModeRejectsDurableVerbsTyped) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
  for (const char* verb : {"open /tmp/nowhere", "save", "close"}) {
    std::string out;
    Status status = proc.Execute(verb, &out);
    ASSERT_FALSE(status.ok()) << verb;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << verb;
    EXPECT_NE(status.ToString().find("shell verb"), std::string::npos)
        << verb;
    EXPECT_EQ(out, "") << verb;
  }
}

TEST(CommandTest, ShellModeStillOwnsDurableVerbs) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);  // Mode::kShell
  std::string out;
  // No directory: `save`/`close` fail with the catalog's own error, not
  // the server-mode rejection — proof the verbs are dispatched.
  Status status = proc.Execute("save", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("no durable session"), std::string::npos);
}

TEST(CommandTest, QueriesSeeTheCatalogSnapshot) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor writer(&catalog);
  CommandProcessor reader(&catalog);
  std::string out;
  ASSERT_TRUE(writer.Execute("rel R ab", &out).ok());
  out.clear();
  ASSERT_TRUE(reader.Execute("x | R(x)", &out).ok());
  EXPECT_EQ(out, "{(\"ab\")}   (1 tuples)\n");
  out.clear();
  ASSERT_TRUE(writer.Execute("rel R ba bb", &out).ok());
  out.clear();
  ASSERT_TRUE(reader.Execute("x | R(x)", &out).ok());
  EXPECT_EQ(out, "{(\"ba\"), (\"bb\")}   (2 tuples)\n");
}

// --- memory / durable parity ------------------------------------------------

// The three states a catalog serves from.  They share one code path (a
// CatalogStore, with or without a directory), so one script must give
// the same transcript and the same relation statistics on each.
enum class CatalogKind { kMemory, kDurable, kDurableThenClosed };

struct CatalogState {
  std::shared_ptr<const Database> db;
  StatsMap stats;
};

struct ScriptRun {
  std::string transcript;  // every command, its output and its status
  // The published catalog right after the close point (where the
  // kDurableThenClosed catalog is closed), and at the end of the script.
  std::vector<CatalogState> states;
  bool resend_deduped = false;  // the first resend after the close point
};

ScriptRun RunParityScript(CatalogKind kind, const std::string& dir) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  ScriptRun run;
  auto exec = [&](const std::string& line) {
    std::string out;
    Status status = proc.Execute(line, &out);
    run.transcript += "> " + line + "\n" + out + status.ToString() + "\n";
  };
  auto record_state = [&] {
    CatalogState state;
    std::shared_ptr<const PagedSet> paged;
    std::shared_ptr<const StatsMap> stats;
    catalog.SnapshotState(&state.db, &paged, &stats);
    state.stats = *stats;
    run.states.push_back(std::move(state));
  };
  // A relation defined before the open: the durable store shadows it,
  // and the re-put below must leave no trace of it in the statistics.
  exec("rel R bb");
  if (kind != CatalogKind::kMemory) {
    EXPECT_TRUE(catalog.OpenDurable(dir, nullptr, nullptr).ok());
  }
  exec("req c:1 rel R ab ba aa");
  exec("req c:2 insert R aa bb bb");  // duplicates, in and across batches
  exec("rel S a b");
  exec("req c:3 drop S");
  exec("drop S");
  exec("rel S b");
  exec("insert R b");
  exec("rel Bad ac");  // outside the alphabet
  exec("insert R ac");
  if (kind == CatalogKind::kDurableThenClosed) {
    EXPECT_TRUE(catalog.CloseDurable().ok());
  }
  record_state();
  // Retries of acked requests: applying c:1 again would take "b" out of
  // R, applying c:3 again would drop the new S.
  EXPECT_TRUE(catalog
                  .PutRelation("R", 1, {{"ab"}, {"ba"}, {"aa"}}, ReqId{"c", 1},
                               &run.resend_deduped)
                  .ok());
  exec("req c:1 rel R ab ba aa");
  exec("req c:2 insert R aa bb bb");
  exec("req c:3 drop S");
  exec("show");
  exec("x | R(x)");
  exec("explain x | R(x)");
  record_state();
  if (catalog.durable()) {
    EXPECT_TRUE(catalog.CloseDurable().ok());
  }
  return run;
}

std::string StripDurableSuffix(std::string text) {
  const std::string suffix = " (durable)";
  for (size_t at; (at = text.find(suffix)) != std::string::npos;) {
    text.erase(at, suffix.size());
  }
  return text;
}

class CatalogParityTest : public ::testing::TestWithParam<CatalogKind> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("strdb_parity." + std::to_string(::getpid()) + "." +
             std::to_string(static_cast<int>(GetParam()))))
               .string();
    std::filesystem::remove_all(dir_);
    memory_ = RunParityScript(CatalogKind::kMemory, dir_);
    run_ = RunParityScript(GetParam(), dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  ScriptRun memory_;  // the reference: the same script, never opened
  ScriptRun run_;
};

TEST_P(CatalogParityTest, TranscriptMatchesTheMemoryCatalog) {
  EXPECT_EQ(StripDurableSuffix(run_.transcript), memory_.transcript);
  // The transcript pins the memory catalog's own behaviour: one
  // out-of-alphabet message naming the relation, retries deduplicated.
  EXPECT_NE(memory_.transcript.find(
                "string \"ac\" in relation 'Bad' leaves the database alphabet"),
            std::string::npos);
  EXPECT_NE(memory_.transcript.find(
                "string \"ac\" in relation 'R' leaves the database alphabet"),
            std::string::npos);
  EXPECT_NE(memory_.transcript.find(
                "> show\nR/1 = {(\"aa\"), (\"ab\"), (\"b\"), (\"ba\"), "
                "(\"bb\")}\nS/1 = {(\"b\")}\nOK\n"),
            std::string::npos)
      << memory_.transcript;
}

// Resending an acked request after the catalog was opened (and, for
// one kind, closed again) is a deduplicated no-op.
TEST_P(CatalogParityTest, ResentRequestIsDeduped) {
  EXPECT_TRUE(run_.resend_deduped);
}

// The published statistics describe the published relations — not the
// catalog from before an open, nor one from before a close.
TEST_P(CatalogParityTest, StatsDescribeThePublishedRelations) {
  ASSERT_EQ(run_.states.size(), memory_.states.size());
  for (size_t i = 0; i < run_.states.size(); ++i) {
    const CatalogState& state = run_.states[i];
    EXPECT_TRUE(state.stats == memory_.states[i].stats) << "state " << i;
    ASSERT_EQ(state.stats.size(), state.db->relations().size());
    for (const auto& [name, rel] : state.db->relations()) {
      ASSERT_EQ(state.stats.count(name), 1u) << name;
      EXPECT_TRUE(state.stats.at(name) == ComputeRelationStats(rel))
          << "state " << i << ", relation " << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalogs, CatalogParityTest,
    ::testing::Values(CatalogKind::kMemory, CatalogKind::kDurable,
                      CatalogKind::kDurableThenClosed),
    [](const ::testing::TestParamInfo<CatalogKind>& info) {
      switch (info.param) {
        case CatalogKind::kMemory:
          return std::string("Memory");
        case CatalogKind::kDurable:
          return std::string("Durable");
        case CatalogKind::kDurableThenClosed:
          return std::string("DurableThenClosed");
      }
      return std::string();
    });

TEST(CommandTest, FrameResponseTerminatesBodies) {
  EXPECT_EQ(FrameResponse(Status::OK(), ""), "ok\n");
  EXPECT_EQ(FrameResponse(Status::OK(), "pong\n"), "pong\nok\n");
  EXPECT_EQ(FrameResponse(Status::OK(), "no trailing newline"),
            "no trailing newline\nok\n");
  EXPECT_EQ(FrameResponse(Status::NotFound("nope"), ""),
            "err not-found nope\n");
  // Multi-line error messages must not break the one-line terminator.
  EXPECT_EQ(FrameResponse(Status::InvalidArgument("two\nlines"), "body\n"),
            "body\nerr invalid-argument two lines\n");
}

}  // namespace
}  // namespace strdb

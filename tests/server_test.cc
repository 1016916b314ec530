// ServerCore: session lifecycle, dispatch, admission control, snapshot
// isolation, the server.* metrics, idempotent request dedup, request
// deadlines — plus socket-level framing tests against a real TcpServer
// (partial frames, mid-command stalls vs the read deadline) and the
// drain-vs-paged-scan shutdown ordering.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/alphabet.h"
#include "core/metrics.h"
#include "server/catalog.h"
#include "server/command.h"
#include "server/server.h"
#include "server/tcp.h"
#include "storage/store.h"

namespace strdb {
namespace {

// The response's terminator line ("ok" or "err <code> <msg>").
std::string Terminator(const std::string& response) {
  if (response.empty() || response.back() != '\n') return response;
  size_t start = response.rfind('\n', response.size() - 2);
  start = start == std::string::npos ? 0 : start + 1;
  return response.substr(start, response.size() - 1 - start);
}

TEST(ServerCoreTest, SessionsExecuteFramedCommands) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(core.active_sessions(), 1);

  EXPECT_EQ(core.Execute(*id, "ping"), "pong\nok\n");
  EXPECT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n");
  EXPECT_EQ(core.Execute(*id, "drop Nope"),
            "err not-found relation 'Nope' not in database\n");
  // A bare `safe` must produce a framed error line, never an orphaned
  // response (regression: the slice past end-of-line threw inside the
  // pool worker and this Execute blocked forever).
  EXPECT_EQ(Terminator(core.Execute(*id, "safe")).rfind("err ", 0), 0u);

  ASSERT_TRUE(core.CloseSession(*id).ok());
  EXPECT_EQ(core.active_sessions(), 0);
  // Commands for a closed session fail typed, on the response stream.
  EXPECT_EQ(Terminator(core.Execute(*id, "ping")),
            "err not-found unknown session " + std::to_string(*id));
}

TEST(ServerCoreTest, SessionsAreIsolatedGrammarStates) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> a = core.OpenSession();
  Result<int64_t> b = core.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  // Session A's budget/engine toggles must not leak into session B.
  EXPECT_EQ(core.Execute(*a, "budget steps 7"),
            "budget: steps=7 rows=- ms=- bytes=-\nok\n");
  EXPECT_EQ(core.Execute(*b, "budget off"),
            "budget: steps=- rows=- ms=- bytes=-\nok\n");
  // ...but the catalog is shared.
  EXPECT_EQ(core.Execute(*a, "rel R ab"), "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*b, "x | R(x)"),
            "{(\"ab\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, SessionLimitRejectsTyped) {
  ServerOptions options;
  options.max_sessions = 2;
  ServerCore core(Alphabet::Binary(), options);
  ASSERT_TRUE(core.OpenSession().ok());
  ASSERT_TRUE(core.OpenSession().ok());
  Result<int64_t> third = core.OpenSession();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.status().ToString().find("session limit (2)"),
            std::string::npos);
}

TEST(ServerCoreTest, QueueDepthBoundRejectsTyped) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // All 64 binary words of length 6: the triple self-join below emits
  // 64^3 = 262144 rows, which keeps the single worker busy for orders
  // of magnitude longer than the two Dispatch calls racing it.
  std::string rel = "rel R";
  for (int w = 0; w < 64; ++w) {
    rel += ' ';
    for (int bit = 5; bit >= 0; --bit) rel += (w >> bit) & 1 ? 'b' : 'a';
  }
  EXPECT_EQ(core.Execute(*id, rel), "defined R/1 with 64 tuples\nok\n");
  EXPECT_EQ(core.Execute(*id, "budget ms 300"),
            "budget: steps=- rows=- ms=300 bytes=-\nok\n");
  std::string slow_response, queued_response;
  bool slow_done = false, queued_done = false;
  core.Dispatch(*id, "x, y, z | R(x) & R(y) & R(z)", [&](std::string r) {
    slow_response = std::move(r);
    slow_done = true;
  });
  // Wait for the worker to pick the slow query up, so the queue is
  // empty again and the next dispatch is the one that gets queued.
  while (core.queue_depth() > 0) {
  }
  core.Dispatch(*id, "ping", [&](std::string r) {
    queued_response = std::move(r);
    queued_done = true;
  });
  // Queue now holds one command (its bound): the next one must be
  // rejected inline, typed, without disconnecting anything.
  std::string rejected;
  core.Dispatch(*id, "ping", [&](std::string r) { rejected = std::move(r); });
  EXPECT_EQ(rejected,
            "err resource-exhausted admission: dispatch queue full (1 "
            "command(s) already waiting); retry later\n");
  ASSERT_TRUE(core.Drain().ok());  // waits for both dispatched commands
  ASSERT_TRUE(slow_done && queued_done);
  EXPECT_EQ(queued_response, "pong\nok\n");
  // The contract under pressure: the heavy query either completes (its
  // answer ends in `ok`) or dies typed at its deadline — never wrong
  // tuples, never a hang.
  std::string terminator = Terminator(slow_response);
  EXPECT_TRUE(terminator == "ok" ||
              terminator.find("err resource-exhausted") == 0)
      << terminator;
}

TEST(ServerCoreTest, GlobalBudgetRejectsTyped) {
  ServerOptions options;
  options.global_limits.max_rows = 1;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");  // writes are not charged
  std::string response = core.Execute(*id, "x | R(x)");
  std::string terminator = Terminator(response);
  EXPECT_NE(terminator.find("err resource-exhausted"), std::string::npos)
      << response;
  EXPECT_NE(terminator.find("server budget"), std::string::npos) << response;
}

TEST(ServerCoreTest, GlobalBudgetIsInFlightNotLifetime) {
  ServerOptions options;
  options.global_limits.max_rows = 20;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");
  // Each query's charges are handed back when it finishes, so a
  // long-lived session can keep issuing queries forever — the account
  // bounds concurrency, not session lifetime.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(core.Execute(*id, "x | R(x)"),
              "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n")
        << "iteration " << i;
  }
}

TEST(ServerCoreTest, SnapshotIsolatesReadersFromTheWriter) {
  SharedCatalog catalog(Alphabet::Binary());
  ASSERT_TRUE(catalog.PutRelation("R", 1, {{"ab"}}).ok());
  // A reader (query mid-flight) pins its snapshot...
  std::shared_ptr<const Database> snapshot;
  std::shared_ptr<const PagedSet> paged;
  catalog.SnapshotState(&snapshot, &paged);
  // ...while the writer commits twice behind its back.
  ASSERT_TRUE(catalog.PutRelation("R", 1, {{"ba"}, {"bb"}}).ok());
  ASSERT_TRUE(catalog.DropRelation("R").ok());
  // The pinned snapshot is immutable: still exactly one relation with
  // the original tuple.
  ASSERT_EQ(snapshot->relations().count("R"), 1u);
  EXPECT_EQ(snapshot->relations().at("R").size(), 1u);
  // A fresh snapshot sees the writer's latest commit.
  std::shared_ptr<const Database> fresh;
  catalog.SnapshotState(&fresh, &paged);
  EXPECT_EQ(fresh->relations().count("R"), 0u);
}

TEST(ServerCoreTest, QueryEvaluatesAgainstOneSnapshot) {
  // The server-level form of snapshot isolation: a query started before
  // a commit answers from the pre-commit catalog even if the writer
  // lands mid-parse — CommandProcessor grabs exactly one snapshot per
  // command.  (The racing version of this check is the conformance
  // target's snapshot mode.)
  ServerCore core(Alphabet::Binary());
  Result<int64_t> reader = core.OpenSession();
  Result<int64_t> writer = core.OpenSession();
  ASSERT_TRUE(reader.ok() && writer.ok());
  ASSERT_EQ(core.Execute(*writer, "rel R ab"),
            "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*reader, "x | R(x)"),
            "{(\"ab\")}   (1 tuples)\nok\n");
  ASSERT_EQ(core.Execute(*writer, "rel R ba"),
            "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*reader, "x | R(x)"),
            "{(\"ba\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, DrainStopsIntakeTyped) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(core.Drain().ok());
  EXPECT_TRUE(core.draining());
  // New sessions are refused...
  Result<int64_t> late = core.OpenSession();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // ...and commands get a response line, not a dropped connection.
  EXPECT_EQ(core.Execute(*id, "ping"), "err unavailable server is draining\n");
  // Idempotent.
  EXPECT_TRUE(core.Drain().ok());
}

TEST(ServerCoreTest, MetricsVerbExposesServerCounters) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  (void)core.Execute(*id, "ping");
  (void)core.Execute(*id, "drop Nope");  // one error, for server.errors
  std::string response = core.Execute(*id, "metrics");
  ASSERT_EQ(Terminator(response), "ok");
  // JSON shape: every server.* metric is present, under its section.
  for (const char* counter :
       {"\"server.accepted\"", "\"server.rejected_admission\"",
        "\"server.commands\"", "\"server.errors\"", "\"server.bytes_in\"",
        "\"server.bytes_out\""}) {
    EXPECT_NE(response.find(counter), std::string::npos) << counter;
  }
  for (const char* gauge :
       {"\"server.active_sessions\"", "\"server.queue_depth\""}) {
    EXPECT_NE(response.find(gauge), std::string::npos) << gauge;
  }
  EXPECT_NE(response.find("\"counters\""), std::string::npos);
  EXPECT_NE(response.find("\"gauges\""), std::string::npos);
}

TEST(ServerCoreTest, MetricsCountTrafficAndSessions) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t accepted0 = reg.GetCounter("server.accepted")->value();
  int64_t commands0 = reg.GetCounter("server.commands")->value();
  int64_t errors0 = reg.GetCounter("server.errors")->value();
  int64_t bytes_in0 = reg.GetCounter("server.bytes_in")->value();
  int64_t bytes_out0 = reg.GetCounter("server.bytes_out")->value();

  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(reg.GetGauge("server.active_sessions")->value(), 1);
  std::string pong = core.Execute(*id, "ping");
  std::string err = core.Execute(*id, "drop Nope");
  EXPECT_EQ(reg.GetCounter("server.accepted")->value(), accepted0 + 1);
  EXPECT_EQ(reg.GetCounter("server.commands")->value(), commands0 + 2);
  EXPECT_EQ(reg.GetCounter("server.errors")->value(), errors0 + 1);
  // bytes_in counts each line + its newline; bytes_out counts framed
  // responses.
  EXPECT_EQ(reg.GetCounter("server.bytes_in")->value(),
            bytes_in0 + 5 + 10);  // "ping\n" + "drop Nope\n"
  EXPECT_EQ(reg.GetCounter("server.bytes_out")->value(),
            bytes_out0 + static_cast<int64_t>(pong.size() + err.size()));
  ASSERT_TRUE(core.CloseSession(*id).ok());
  EXPECT_EQ(reg.GetGauge("server.active_sessions")->value(), 0);
}

// --- idempotent request tags ------------------------------------------------

TEST(ServerCoreTest, ReqTagDedupsRetriedMutationsWithIdenticalText) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t deduped0 = reg.GetCounter("server.retried_requests_deduped")->value();

  std::string first = core.Execute(*id, "req alice:1 rel R ab");
  EXPECT_EQ(first, "defined R/1 with 1 tuples\nok\n");
  // The retry (same tag) answers byte-identically without re-applying.
  EXPECT_EQ(core.Execute(*id, "req alice:1 rel R ab"), first);
  EXPECT_EQ(reg.GetCounter("server.retried_requests_deduped")->value(),
            deduped0 + 1);

  // A deduped insert must not have doubled anything.
  std::string inserted = core.Execute(*id, "req alice:2 insert R ba");
  EXPECT_EQ(inserted, "inserted 1 tuple(s) into R\nok\n");
  EXPECT_EQ(core.Execute(*id, "req alice:2 insert R ba"), inserted);
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n");

  // Windows are per client: bob's seq 1 is fresh even though alice's
  // seq 1 is spent.
  EXPECT_EQ(core.Execute(*id, "req bob:1 insert R bb"),
            "inserted 1 tuple(s) into R\nok\n");
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\"), (\"bb\")}   (3 tuples)\nok\n");
}

TEST(ServerCoreTest, ReqTagRetryAfterDropDoesNotResurrect) {
  // The lost-ack drop scenario: drop R acks, the ack is lost, the
  // client retries.  The retry must dedup — answering "dropped" again —
  // and must NOT recreate or re-drop anything, even after later
  // mutations moved the catalog on.
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(core.Execute(*id, "req c:1 rel R ab"),
            "defined R/1 with 1 tuples\nok\n");
  std::string dropped = core.Execute(*id, "req c:2 drop R");
  EXPECT_EQ(dropped, "dropped R\nok\n");
  // Seq 3 recreates R under a new definition...
  ASSERT_EQ(core.Execute(*id, "req c:3 rel R ba"),
            "defined R/1 with 1 tuples\nok\n");
  // ...and the stale retry of seq 2 dedups instead of dropping the NEW R.
  EXPECT_EQ(core.Execute(*id, "req c:2 drop R"), dropped);
  EXPECT_EQ(core.Execute(*id, "x | R(x)"), "{(\"ba\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, ReqTagParsesStrictly) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // Malformed tags are typed errors, not silently-untagged mutations.
  EXPECT_EQ(Terminator(core.Execute(*id, "req noseq rel R ab")).rfind("err ", 0),
            0u);
  EXPECT_EQ(Terminator(core.Execute(*id, "req :1 rel R ab")).rfind("err ", 0),
            0u);
  EXPECT_EQ(Terminator(core.Execute(*id, "req c:x rel R ab")).rfind("err ", 0),
            0u);
  // Non-mutations pass through a valid tag untouched.
  EXPECT_EQ(core.Execute(*id, "req c:1 ping"), "pong\nok\n");
}

// --- request deadlines ------------------------------------------------------

TEST(ServerCoreTest, RequestDeadlineCancelsTyped) {
  ServerOptions options;
  options.request_deadline_ms = 50;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // All 64 binary words of length 6; the triple self-join's 262144 rows
  // take far longer than 50ms to enumerate.
  std::string rel = "rel R";
  for (int w = 0; w < 64; ++w) {
    rel += ' ';
    for (int bit = 5; bit >= 0; --bit) rel += (w >> bit) & 1 ? 'b' : 'a';
  }
  ASSERT_EQ(core.Execute(*id, rel), "defined R/1 with 64 tuples\nok\n");
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t exceeded0 = reg.GetCounter("server.deadline_exceeded")->value();
  std::string response = core.Execute(*id, "x, y, z | R(x) & R(y) & R(z)");
  EXPECT_EQ(Terminator(response).rfind("err deadline-exceeded", 0), 0u)
      << response;
  EXPECT_EQ(reg.GetCounter("server.deadline_exceeded")->value(),
            exceeded0 + 1);
  // The session survives — a deadline cancels the request, not the
  // connection.
  EXPECT_EQ(core.Execute(*id, "ping"), "pong\nok\n");
}

TEST(ServerCoreTest, SessionBudgetTighterThanRequestDeadlineStaysTyped) {
  // When the session's own `budget ms` is the binding constraint, the
  // failure keeps its resource-exhausted type: deadline-exceeded is
  // reserved for the server-imposed cap.
  ServerOptions options;
  options.request_deadline_ms = 10000;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  std::string rel = "rel R";
  for (int w = 0; w < 64; ++w) {
    rel += ' ';
    for (int bit = 5; bit >= 0; --bit) rel += (w >> bit) & 1 ? 'b' : 'a';
  }
  ASSERT_EQ(core.Execute(*id, rel), "defined R/1 with 64 tuples\nok\n");
  ASSERT_EQ(core.Execute(*id, "budget ms 30"),
            "budget: steps=- rows=- ms=30 bytes=-\nok\n");
  std::string response = core.Execute(*id, "x, y, z | R(x) & R(y) & R(z)");
  EXPECT_EQ(Terminator(response).rfind("err resource-exhausted", 0), 0u)
      << response;
}

// --- socket-level framing ---------------------------------------------------

namespace tcp {

int Dial(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Reads until the buffer ends with a full terminator line or `deadline`
// elapses.
std::string ReadResponse(int fd, int deadline_ms = 5000) {
  std::string buffer;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, deadline_ms);
    if (ready <= 0) return buffer;
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return buffer;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t last = buffer.rfind('\n');
    if (last == std::string::npos) continue;
    size_t start = buffer.rfind('\n', last == 0 ? 0 : last - 1);
    start = start == std::string::npos ? 0 : start + 1;
    std::string line = buffer.substr(start, last - start);
    if (line == "ok" || line.rfind("err ", 0) == 0) return buffer;
  }
}

}  // namespace tcp

TEST(TcpServerTest, ByteAtATimeClientGetsAWholeResponse) {
  ServerOptions options;
  options.read_deadline_ms = 2000;  // armed, but this client is merely slow
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  int fd = tcp::Dial(server.port());
  const std::string command = "rel R ab ba\n";
  for (char c : command) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
    ::usleep(1000);
  }
  EXPECT_EQ(tcp::ReadResponse(fd), "defined R/1 with 2 tuples\nok\n");
  ::close(fd);
  server.RequestStop();
  ASSERT_TRUE(server.Stop().ok());
  serve.join();
}

TEST(TcpServerTest, MidCommandStallerGetsTypedTimeoutNotAHungThread) {
  ServerOptions options;
  options.read_deadline_ms = 100;
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t exceeded0 = reg.GetCounter("server.deadline_exceeded")->value();

  // The slow-loris: half a command, then silence past the deadline.
  int fd = tcp::Dial(server.port());
  ASSERT_EQ(::send(fd, "rel R ", 6, 0), 6);
  std::string response = tcp::ReadResponse(fd, 3000);
  EXPECT_EQ(response.rfind("err deadline-exceeded", 0), 0u) << response;
  EXPECT_NE(response.find("stalled mid-command"), std::string::npos)
      << response;
  EXPECT_EQ(reg.GetCounter("server.deadline_exceeded")->value(),
            exceeded0 + 1);
  // The connection is closed after the typed error...
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // ...and the listener is alive and undamaged: a fresh, honest client
  // is served immediately (the stalled thread was reclaimed, not hung).
  int fd2 = tcp::Dial(server.port());
  ASSERT_EQ(::send(fd2, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(fd2), "pong\nok\n");
  ::close(fd2);
  server.RequestStop();
  ASSERT_TRUE(server.Stop().ok());
  serve.join();
}

TEST(TcpServerTest, IdleConnectionIsNotCutByTheReadDeadline) {
  ServerOptions options;
  options.read_deadline_ms = 50;
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  // No bytes in flight: the deadline must not arm.  After 4x the
  // deadline the connection still answers.
  int fd = tcp::Dial(server.port());
  ::usleep(200 * 1000);
  ASSERT_EQ(::send(fd, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(fd), "pong\nok\n");
  ::close(fd);
  server.RequestStop();
  ASSERT_TRUE(server.Stop().ok());
  serve.join();
}

TEST(TcpServerTest, EofMidCommandDiscardsThePartialLine) {
  // A torn request frame (no terminating newline, then EOF) must never
  // execute: half an `insert` applied would be a partial-tuple bug.
  ServerCore core(Alphabet::Binary());
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  int setup = tcp::Dial(server.port());
  ASSERT_EQ(::send(setup, "rel R ab\n", 9, 0), 9);
  EXPECT_EQ(tcp::ReadResponse(setup), "defined R/1 with 1 tuples\nok\n");

  int torn = tcp::Dial(server.port());
  ASSERT_EQ(::send(torn, "insert R ba", 11, 0), 11);  // no newline
  ::close(torn);  // EOF mid-command

  // Give the handler a moment, then verify nothing was applied.
  ::usleep(100 * 1000);
  ASSERT_EQ(::send(setup, "x | R(x)\n", 9, 0), 9);
  EXPECT_EQ(tcp::ReadResponse(setup), "{(\"ab\")}   (1 tuples)\nok\n");
  ::close(setup);
  server.RequestStop();
  ASSERT_TRUE(server.Stop().ok());
  serve.join();
}

// --- drain vs in-flight paged scans ----------------------------------------

TEST(ServerCoreTest, DrainDuringActivePagedScanIsPinSafe) {
  // A streaming kPagedScan holds buffer-pool page pins; Drain() and
  // CloseDurable() must not tear the pool or the heap files out from
  // under it.  Run under TSan this doubles as a lifetime-race detector.
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() /
       ("strdb_drain_scan." + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);

  ServerCore core(Alphabet::Binary());
  StoreOptions store_options;
  store_options.spill_threshold_bytes = 1024;
  core.catalog().set_store_options(store_options);
  RecoveryReport report;
  ASSERT_TRUE(core.catalog().OpenDurable(dir, &report, nullptr).ok());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // A relation big enough to spill and to keep a scan busy.
  std::string rel = "rel Big";
  for (int w = 0; w < 256; ++w) {
    rel += ' ';
    for (int bit = 7; bit >= 0; --bit) rel += (w >> bit) & 1 ? 'b' : 'a';
  }
  ASSERT_EQ(Terminator(core.Execute(*id, rel)).rfind("ok", 0), 0u);
  int persisted = 0;
  int64_t generation = 0;
  ASSERT_TRUE(
      core.catalog().CheckpointDurable(&persisted, &generation, nullptr).ok());

  // Dispatch a self-join over the paged relation (a long streaming
  // scan), then immediately drain and close the store while it runs.
  std::atomic<bool> done{false};
  std::string response;
  core.Dispatch(*id, "x, y | Big(x) & Big(y)", [&](std::string r) {
    response = std::move(r);
    done.store(true);
  });
  while (core.queue_depth() > 0) {
  }
  ASSERT_TRUE(core.Drain().ok());  // waits for the in-flight command
  ASSERT_TRUE(done.load());
  // The query either finished or died typed; the process did not crash
  // on a dangling pool and the pins all returned.
  std::string terminator = Terminator(response);
  EXPECT_TRUE(terminator == "ok" || terminator.rfind("err ", 0) == 0)
      << terminator;
  ASSERT_TRUE(core.catalog().CloseDurable().ok());
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace strdb

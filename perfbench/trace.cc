// perfbench_trace: the benchmark's traced run.
//
//   perfbench_trace PLAN_FILE
//
// Replays a workload's seeded command stream in-process and records one
// span per call into each module's public entry points.  run.py writes
// the plan file and derives every per-layer metric from the spans this
// program writes out; nothing here computes a metric.
//
// Plan file: one directive per line, fields separated by tabs.
//   alphabet CHARS              server alphabet
//   workers N                   ServerCore dispatcher pool size
//   store memory|durable SPILL CAP
//                               the served catalog's kind; SPILL and CAP
//                               are the store's spill threshold and pager
//                               cap (used by the durable catalog)
//   dir PATH                    scratch directory for the durable stores
//   setup LINE                  a set-up command, run on both catalogs
//   checkpoint                  checkpoint the durable catalog, close and
//                               reopen it (what a server restart does)
//   cmd TEMPLATE LINE           one sampled command of the stream
//   probe_inserts N RELATION    N single-tuple inserts after the stream
//                               (read-only workloads)
//   spans PATH                  where the spans go
//   responses PATH              where the client-observed responses go
//
// Two catalogs hold the same contents: the served one (memory or
// durable, as the workload's server runs) and a twin of the other kind.
// Insert spans time SharedCatalog::InsertTuples on both, so the WAL
// commit cost is their difference on every workload.
//
// For each sampled command the traced pass issues the same line at
// each entry point in turn — StrdbClient::Call over an in-process
// TcpServer, ServerCore::Execute, CommandProcessor::Execute, then the
// calculus Query API — under one request span.  A first, untraced pass
// sends every command through StrdbClient::Call only; the difference of
// the two passes' client latencies is the tracing overhead.
//
// Span file: one span per line, tab-separated:
//   REQ NAME PARENT START_NS END_NS ATTRS
// ATTRS is "-" or comma-separated key=value integer counts.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calculus/query.h"
#include "client/client.h"
#include "core/alphabet.h"
#include "core/metrics.h"
#include "engine/plan.h"
#include "server/catalog.h"
#include "server/command.h"
#include "server/server.h"
#include "server/tcp.h"

namespace strdb {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

struct Command {
  std::string tmpl;
  std::string line;
};

struct Plan {
  std::string alphabet = "ab";
  int workers = 2;
  bool durable = false;
  int64_t spill = 0;
  int64_t pager_cap = 0;
  std::string dir;
  // Set-up lines in order; an empty string marks a checkpoint.
  std::vector<std::string> setup;
  std::vector<Command> commands;
  int probe_inserts = 0;
  std::string probe_relation;
  std::string spans_path;
  std::string responses_path;
};

int64_t ToInt(const std::string& text) {
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') Die("bad integer '" + text + "'");
  return static_cast<int64_t>(v);
}

Plan ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read plan file " + path);
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f = SplitTabs(line);
    const std::string& key = f[0];
    auto need = [&](size_t n) {
      if (f.size() != n) Die("malformed plan line: " + line);
    };
    if (key == "alphabet") {
      need(2);
      plan.alphabet = f[1];
    } else if (key == "workers") {
      need(2);
      plan.workers = static_cast<int>(ToInt(f[1]));
    } else if (key == "store") {
      need(4);
      plan.durable = f[1] == "durable";
      plan.spill = ToInt(f[2]);
      plan.pager_cap = ToInt(f[3]);
    } else if (key == "dir") {
      need(2);
      plan.dir = f[1];
    } else if (key == "setup") {
      need(2);
      plan.setup.push_back(f[1]);
    } else if (key == "checkpoint") {
      plan.setup.push_back("");
    } else if (key == "cmd") {
      need(3);
      plan.commands.push_back({f[1], f[2]});
    } else if (key == "probe_inserts") {
      need(3);
      plan.probe_inserts = static_cast<int>(ToInt(f[1]));
      plan.probe_relation = f[2];
    } else if (key == "spans") {
      need(2);
      plan.spans_path = f[1];
    } else if (key == "responses") {
      need(2);
      plan.responses_path = f[1];
    } else {
      Die("unknown plan directive '" + key + "'");
    }
  }
  if (plan.dir.empty() || plan.spans_path.empty() ||
      plan.responses_path.empty()) {
    Die("plan needs dir, spans and responses");
  }
  return plan;
}

// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  void Add(const std::string& req, const std::string& name,
           const std::string& parent, int64_t start, int64_t end,
           std::string attrs = "-") {
    spans_.push_back({req, name, parent, start, end, std::move(attrs)});
  }

  // Times fn() as one span.
  template <typename Fn>
  void Time(const std::string& req, const std::string& name,
            const std::string& parent, Fn&& fn, std::string attrs = "-") {
    int64_t start = Now();
    fn();
    Add(req, name, parent, start, Now(), std::move(attrs));
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << s.req << '\t' << s.name << '\t' << s.parent << '\t' << s.start
          << '\t' << s.end << '\t' << s.attrs << '\n';
    }
    if (!out) Die("cannot write spans to " + path);
  }

 private:
  struct Span {
    std::string req, name, parent;
    int64_t start, end;
    std::string attrs;
  };
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string Attrs(const std::vector<std::pair<std::string, int64_t>>& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out += ',';
    out += k + "=" + std::to_string(v);
  }
  return out.empty() ? "-" : out;
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// Bytes in the durable store's write-ahead logs.
int64_t WalBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// Per-operator-kind exclusive time from an executed plan
// (ExecStats::plan): an operator's self time is its inclusive `time=`
// minus that of the children evaluated under it.  A shared subtree is
// printed once in full and then as "(shared, evaluated once)"; only the
// first print counts against its parent.
struct PlanProfile {
  int64_t select_self_ns = 0;   // filter-select + gen-select
  int64_t select_rows_in = 0;
  int64_t product_self_ns = 0;
  int64_t project_self_ns = 0;
};

PlanProfile ProfilePlan(const std::string& plan_text) {
  struct Node {
    int depth;
    std::string op;
    int64_t time_ns;
    int64_t rows_in;
    int64_t children_ns = 0;
  };
  std::vector<Node> nodes;
  std::istringstream in(plan_text);
  std::string line;
  std::vector<size_t> stack;  // open ancestors by depth
  while (std::getline(in, line)) {
    size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    size_t time_at = line.find(" time=");
    if (time_at == std::string::npos) continue;
    Node node;
    node.depth = static_cast<int>(indent / 2);
    size_t op_end = line.find_first_of("[ ", indent);
    node.op = line.substr(indent, op_end - indent);
    node.time_ns = static_cast<int64_t>(
        std::llround(std::atof(line.c_str() + time_at + 6) * 1e6));
    size_t in_at = line.find("[in=");
    node.rows_in =
        in_at == std::string::npos ? 0 : std::atoll(line.c_str() + in_at + 4);
    bool shared_repeat = line.find("(shared, evaluated once)") !=
                         std::string::npos;
    while (!stack.empty() && nodes[stack.back()].depth >= node.depth) {
      stack.pop_back();
    }
    if (shared_repeat) continue;
    if (!stack.empty()) nodes[stack.back()].children_ns += node.time_ns;
    nodes.push_back(node);
    stack.push_back(nodes.size() - 1);
  }
  PlanProfile profile;
  for (const Node& n : nodes) {
    int64_t self = std::max<int64_t>(0, n.time_ns - n.children_ns);
    if (n.op == "filter-select" || n.op == "gen-select") {
      profile.select_self_ns += self;
      profile.select_rows_in += n.rows_in;
    } else if (n.op == "product") {
      profile.product_self_ns += self;
    } else if (n.op == "project") {
      profile.project_self_ns += self;
    }
  }
  return profile;
}

// q-error of one operator's estimate, max(est/act, act/est), with both
// sides floored at one row.
double QError(double est, int64_t act) {
  if (!std::isfinite(est)) return 1e9;
  double e = std::max(est, 1.0);
  double a = std::max(static_cast<double>(act), 1.0);
  return std::min(std::max(e / a, a / e), 1e9);
}

bool IsInsert(const std::string& line) { return line.rfind("insert ", 0) == 0; }

// "insert NAME a,b c,d" -> NAME and its tuples.
void ParseInsert(const std::string& line, std::string* name,
                 std::vector<Tuple>* tuples) {
  std::istringstream in(line);
  std::string word;
  in >> word >> *name;
  tuples->clear();
  while (in >> word) {
    Tuple t;
    std::istringstream parts(word);
    std::string part;
    while (std::getline(parts, part, ',')) t.push_back(part == "-" ? "" : part);
    tuples->push_back(std::move(t));
  }
}

std::string Frame(const Result<ServerResponse>& r) {
  if (!r.ok()) return "transport-error " + r.status().ToString() + "\n";
  std::string out = r->body;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += r->ok ? "ok\n" : "err " + r->error_code + " " + r->error_message +
                              "\n";
  return out;
}

class TraceRun {
 public:
  explicit TraceRun(Plan plan)
      : plan_(std::move(plan)),
        alphabet_(OrDieAlphabet(plan_.alphabet)),
        core_(alphabet_, ServerOptionsFor(plan_)),
        twin_(alphabet_) {}

  int Run() {
    SetUp();
    TcpServer server(&core_);
    Check(server.Listen(0), "listen");
    std::thread serve([&] { server.Serve(); });
    {
      ClientOptions copts;
      copts.client_id = "perfbench-trace";
      StrdbClient client(server.port(), copts);
      Result<int64_t> session = core_.OpenSession();
      Check(session.status(), "open session");
      CommandProcessor processor(&core_.catalog(),
                                 CommandProcessor::Mode::kServer);

      // Untraced pass: client latency only.
      for (size_t i = 0; i < plan_.commands.size(); ++i) {
        const Command& c = plan_.commands[i];
        int64_t start = log_.Now();
        Result<ServerResponse> r = client.Call(c.line);
        log_.Add("untraced:" + std::to_string(i), "client.call.untraced",
                 "-", start, log_.Now());
        responses_ << "#resp\tuntraced\t" << i << '\t' << c.tmpl << '\n'
                   << Frame(r);
      }
      // Traced pass.
      for (size_t i = 0; i < plan_.commands.size(); ++i) {
        TraceCommand("trace:" + std::to_string(i), plan_.commands[i], i,
                     &client, *session, &processor);
      }
      ProbeInserts();
      (void)core_.CloseSession(*session);
    }
    server.RequestStop();
    Check(server.Stop(), "stop server");
    serve.join();
    log_.Write(plan_.spans_path);
    std::ofstream out(plan_.responses_path);
    out << responses_.str();
    if (!out) Die("cannot write responses");
    if (durable_catalog().durable()) (void)durable_catalog().CloseDurable();
    return 0;
  }

 private:
  static Alphabet OrDieAlphabet(const std::string& chars) {
    Result<Alphabet> a = Alphabet::Create(chars);
    if (!a.ok()) Die("bad alphabet: " + a.status().ToString());
    return *a;
  }

  static ServerOptions ServerOptionsFor(const Plan& plan) {
    ServerOptions options;
    options.num_workers = plan.workers;
    return options;
  }

  SharedCatalog& memory_catalog() {
    return plan_.durable ? twin_ : core_.catalog();
  }
  SharedCatalog& durable_catalog() {
    return plan_.durable ? core_.catalog() : twin_;
  }
  std::string durable_dir() const { return plan_.dir + "/store"; }

  void OpenDurable() {
    StoreOptions options;
    options.spill_threshold_bytes = plan_.spill;
    if (plan_.pager_cap > 0) options.pager_capacity_bytes = plan_.pager_cap;
    durable_catalog().set_store_options(options);
    Check(durable_catalog().OpenDurable(durable_dir(), nullptr, nullptr),
          "open durable catalog");
  }

  // Loads both catalogs with the set-up lines; a checkpoint marker is a
  // timed CheckpointDurable followed by a reopen, as a restart of the
  // durable server does.  A workload without one still gets a timed
  // checkpoint at the end, so every workload reports checkpoint time.
  void SetUp() {
    std::filesystem::create_directories(plan_.dir);
    OpenDurable();
    CommandProcessor serve_setup(&core_.catalog(),
                                 CommandProcessor::Mode::kServer);
    CommandProcessor twin_setup(&twin_, CommandProcessor::Mode::kServer);
    bool checkpointed = false;
    for (const std::string& line : plan_.setup) {
      if (line.empty()) {
        Checkpoint();
        checkpointed = true;
        continue;
      }
      std::string out;
      Check(serve_setup.Execute(line, &out), "setup '" + line + "'");
      Check(twin_setup.Execute(line, &out), "twin setup '" + line + "'");
    }
    if (!checkpointed) Checkpoint();
  }

  void Checkpoint() {
    log_.Time("setup", "catalog.checkpoint", "-", [&] {
      Check(durable_catalog().CheckpointDurable(nullptr, nullptr, nullptr),
            "checkpoint");
    });
    Check(durable_catalog().CloseDurable(), "close durable catalog");
    OpenDurable();
  }

  void TraceCommand(const std::string& req, const Command& c, size_t index,
                    StrdbClient* client, int64_t session,
                    CommandProcessor* processor) {
    int64_t request_start = log_.Now();
    const std::string parent = "request";

    int64_t bytes_before = CounterValue("server.bytes_out");
    int64_t start = log_.Now();
    Result<ServerResponse> response = client->Call(c.line);
    int64_t end = log_.Now();
    log_.Add(req, "client.call", parent, start, end,
             Attrs({{"bytes_out",
                     CounterValue("server.bytes_out") - bytes_before}}));
    responses_ << "#resp\ttraced\t" << index << '\t' << c.tmpl << '\n'
               << Frame(response);

    log_.Time(req, "server_core.execute", parent,
              [&] { (void)core_.Execute(session, c.line); });
    log_.Time(req, "command.execute", parent, [&] {
      std::string out;
      (void)processor->Execute(c.line, &out);
    });

    if (IsInsert(c.line)) {
      TraceInsert(req, c.line);
    } else {
      TraceQuery(req, c.line);
    }
    log_.Add(req, "request", "-", request_start, log_.Now(),
             Attrs({{"insert", IsInsert(c.line) ? 1 : 0}}));
  }

  void TraceQuery(const std::string& req, const std::string& line) {
    const std::string parent = "request";
    std::shared_ptr<const Database> db;
    std::shared_ptr<const PagedSet> paged;
    std::shared_ptr<const StatsMap> rel_stats;
    log_.Time(req, "catalog.snapshot", parent, [&] {
      core_.catalog().SnapshotState(&db, &paged, &rel_stats);
    });
    Result<Query> q = Status::Internal("unparsed");
    log_.Time(req, "query.parse", parent,
              [&] { q = Query::Parse(line, db->alphabet()); });
    Check(q.status(), "parse '" + line + "'");
    log_.Time(req, "query.infer", parent,
              [&] { (void)q->InferTruncation(*db, paged.get()); });
    log_.Time(req, "query.explain_plan", parent, [&] {
      (void)q->ExplainPlan(*db, paged.get(), rel_stats.get());
    });

    ExecStats stats;
    QueryOptions opts;
    opts.stats = &stats;
    opts.paged = paged.get();
    opts.relation_stats = rel_stats.get();
    PagerStats pager_before, pager_after;
    int64_t capacity = 0;
    size_t spilled = 0;
    bool has_pager =
        core_.catalog().PagerStatus(&pager_before, &capacity, &spilled);
    int64_t fallbacks_before = CounterValue("fsa.dfa.fallbacks");
    int64_t start = log_.Now();
    Result<StringRelation> answer = q->Execute(*db, opts);
    int64_t end = log_.Now();
    Check(answer.status(), "execute '" + line + "'");
    if (has_pager) {
      core_.catalog().PagerStatus(&pager_after, &capacity, &spilled);
    }
    PlanProfile profile = ProfilePlan(stats.plan);
    int64_t act_sum = 0;
    double q_error_max = 1.0;
    for (const ExecStats::EstActRow& row : stats.operators) {
      act_sum += row.act;
      q_error_max = std::max(q_error_max, QError(row.est, row.act));
    }
    log_.Add(
        req, "query.execute", parent, start, end,
        Attrs({{"wall_ns", stats.wall_ns},
               {"cache_hits", stats.cache_hits},
               {"cache_misses", stats.cache_misses},
               {"fsa_steps", stats.fsa_steps},
               {"rows_out", stats.rows_out},
               {"act_sum", act_sum},
               {"q_error_max_milli",
                static_cast<int64_t>(std::llround(q_error_max * 1000))},
               {"select_self_ns", profile.select_self_ns},
               {"select_rows_in", profile.select_rows_in},
               {"product_self_ns", profile.product_self_ns},
               {"project_self_ns", profile.project_self_ns},
               {"dfa_fallbacks",
                CounterValue("fsa.dfa.fallbacks") - fallbacks_before},
               {"pager_hits", pager_after.hits - pager_before.hits},
               {"pager_misses", pager_after.misses - pager_before.misses}}));
  }

  // The same insert against the memory and the durable catalog.  Both
  // hold the tuple already (the client call applied it), so each is a
  // full mutation of unchanged contents: WAL commit plus publish on the
  // durable side, publish alone on the memory side.
  void TraceInsert(const std::string& req, const std::string& line) {
    std::string name;
    std::vector<Tuple> tuples;
    ParseInsert(line, &name, &tuples);
    log_.Time(req, "catalog.insert_memory", "request", [&] {
      Check(memory_catalog().InsertTuples(name, tuples), "memory insert");
    });
    int64_t commits_before = CounterValue("storage.commits");
    int64_t wal_before = WalBytes(durable_dir());
    int64_t start = log_.Now();
    Check(durable_catalog().InsertTuples(name, tuples), "durable insert");
    int64_t end = log_.Now();
    log_.Add(req, "catalog.insert_durable", "request", start, end,
             Attrs({{"commits", CounterValue("storage.commits") -
                                    commits_before},
                    {"wal_bytes", WalBytes(durable_dir()) - wal_before}}));
  }

  // Read-only streams never insert (their plans ask for probes): time
  // fresh single-tuple inserts on both catalogs so the write-path layers
  // still report.
  void ProbeInserts() {
    for (int i = 0; i < plan_.probe_inserts; ++i) {
      std::string tuple;
      for (int bit = i + 1; bit > 0; bit >>= 1) {
        tuple += plan_.alphabet[static_cast<size_t>(bit & 1)];
      }
      std::string req = "probe:" + std::to_string(i);
      int64_t start = log_.Now();
      TraceInsert(req, "insert " + plan_.probe_relation + " " + tuple);
      log_.Add(req, "request", "-", start, log_.Now(), Attrs({{"insert", 1}}));
    }
  }

  const Plan plan_;
  const Alphabet alphabet_;
  ServerCore core_;
  SharedCatalog twin_;
  SpanLog log_;
  std::ostringstream responses_;
};

}  // namespace
}  // namespace strdb

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_trace PLAN_FILE\n");
    return 2;
  }
  strdb::TraceRun run(strdb::ReadPlan(argv[1]));
  return run.Run();
}

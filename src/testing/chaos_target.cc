// The chaos differential target: real strdb_server processes,
// concurrent resilient clients, SIGKILL mid-workload, restart on the
// same directory, and the acked-durability contract checked against a
// serial in-memory oracle.  See the class comment in targets.h for the
// argument that the oracle is sound.
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "core/alphabet.h"
#include "server/catalog.h"
#include "server/command.h"
#include "server/transport.h"
#include "testing/targets.h"

namespace strdb {
namespace testgen {

namespace {

using ChaosCase = ChaosTarget::ChaosCase;

const Alphabet& CaseAlphabet() {
  static const Alphabet* const alphabet = new Alphabet(Alphabet::Binary());
  return *alphabet;
}

std::string RelName(int client, int j) {
  return std::string("c") + std::to_string(client) + "r" + std::to_string(j);
}

// 1-4 non-empty arity-1 tuples (the shell grammar cannot spell an empty
// token, so tuple strings are never empty).
std::string TupleWords(RandomSource& rand) {
  int n = rand.Range(1, 4);
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += rand.String(CaseAlphabet(), 1, 4);
  }
  return out;
}

std::unique_ptr<ChaosCase> Clone(const ChaosCase& cc) {
  auto copy = std::make_unique<ChaosCase>();
  *copy = cc;
  return copy;
}

// --- server process management ---------------------------------------------

struct ServerProcess {
  pid_t pid = -1;
  int port = 0;
  int stdout_fd = -1;  // held open so the server's exit printf cannot
                       // SIGPIPE it; drained lazily by the kernel buffer
};

void CloseProcessFds(ServerProcess* server) {
  if (server->stdout_fd >= 0) {
    ::close(server->stdout_fd);
    server->stdout_fd = -1;
  }
}

// fork/exec the server binary on --port 0 and parse the announced
// ephemeral port from its stdout.  stderr goes to /dev/null (recovery
// reports would spam the conformance log).
Status SpawnServer(const std::string& bin, const std::string& dir,
                   int64_t spill, ServerProcess* server) {
  int fds[2];
  if (::pipe(fds) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDERR_FILENO);
    std::string spill_text = std::to_string(spill);
    std::vector<const char*> argv = {bin.c_str(),    "ab",
                                     "--port",       "0",
                                     "--dir",        dir.c_str(),
                                     "--workers",    "4"};
    if (spill > 0) {
      argv.push_back("--spill");
      argv.push_back(spill_text.c_str());
    }
    argv.push_back(nullptr);
    ::execv(bin.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);  // exec failed; the parent sees EOF before a port line
  }
  ::close(fds[1]);
  // Read up to the first newline: "listening on 127.0.0.1:PORT".
  std::string line;
  char ch;
  for (;;) {
    ssize_t n = ::read(fds[0], &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fds[0]);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      return Status::Internal("server exited before announcing a port (is '" +
                              bin + "' the strdb_server binary?)");
    }
    if (ch == '\n') break;
    line.push_back(ch);
  }
  const std::string prefix = "listening on 127.0.0.1:";
  if (line.rfind(prefix, 0) != 0) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return Status::Internal("unexpected server banner '" + line + "'");
  }
  server->pid = pid;
  server->port = std::atoi(line.c_str() + prefix.size());
  server->stdout_fd = fds[0];
  return Status::OK();
}

// SIGTERM with a SIGKILL escalation so a wedged drain cannot hang the
// harness.
void StopServer(ServerProcess* server) {
  if (server->pid < 0) return;
  ::kill(server->pid, SIGTERM);
  for (int i = 0; i < 500; ++i) {  // ~5s
    int wstatus = 0;
    pid_t got = ::waitpid(server->pid, &wstatus, WNOHANG);
    if (got == server->pid || (got < 0 && errno == ECHILD)) {
      server->pid = -1;
      CloseProcessFds(server);
      return;
    }
    ::usleep(10 * 1000);
  }
  ::kill(server->pid, SIGKILL);
  ::waitpid(server->pid, nullptr, 0);
  server->pid = -1;
  CloseProcessFds(server);
}

void KillServer(ServerProcess* server) {
  if (server->pid < 0) return;
  ::kill(server->pid, SIGKILL);
  ::waitpid(server->pid, nullptr, 0);
  server->pid = -1;
  CloseProcessFds(server);
}

// --- oracle -----------------------------------------------------------------

// The real server appends " (durable)" to mutation acks; the in-memory
// oracle does not.  Normalise before comparing transcripts.
std::string StripDurable(std::string text) {
  const std::string tag = " (durable)";
  size_t pos = 0;
  while ((pos = text.find(tag, pos)) != std::string::npos) {
    text.erase(pos, tag.size());
  }
  return text;
}

std::string FrameOf(const ServerResponse& response) {
  std::string out = response.body;
  if (!out.empty() && out.back() != '\n') out += '\n';
  if (response.ok) {
    out += "ok\n";
  } else {
    out += "err " + response.error_code;
    if (!response.error_message.empty()) out += ' ' + response.error_message;
    out += '\n';
  }
  return out;
}

struct ClientOutcome {
  std::vector<std::string> frames;  // normalised response per command
  Status transport = Status::OK();  // non-OK: the client starved
};

std::unique_ptr<ClientTransport> MakeTransport(const ChaosCase& cc, int i) {
  if (cc.drop_every <= 0) return nullptr;  // StrdbClient defaults to TCP
  TransportFaultPlan plan;
  plan.seed = cc.seed * 1000003 + static_cast<uint64_t>(i);
  plan.drop_every = cc.drop_every;
  return std::make_unique<FaultyTransport>(
      std::make_unique<TcpClientTransport>(), plan);
}

}  // namespace

DiffTarget::CasePtr ChaosTarget::Generate(RandomSource& rand) const {
  auto c = std::make_unique<ChaosCase>();
  c->seed = rand.Next() | 1;
  int clients = 4;
  c->logs.resize(static_cast<size_t>(clients));
  int64_t total = 0;
  for (int i = 0; i < clients; ++i) {
    int ops = rand.Range(4, 10);
    total += ops;
    std::vector<std::string> live;  // relations currently defined
    int next_rel = 0;
    for (int j = 0; j < ops; ++j) {
      uint64_t pick = rand.Below(4);
      if (live.empty() || pick == 0) {
        std::string name = RelName(i, next_rel++);
        live.push_back(name);
        c->logs[static_cast<size_t>(i)].push_back("rel " + name + " " +
                                                  TupleWords(rand));
      } else if (pick == 1 && live.size() > 1) {
        size_t victim = rand.Below(live.size());
        c->logs[static_cast<size_t>(i)].push_back("drop " + live[victim]);
        live.erase(live.begin() + static_cast<long>(victim));
      } else {
        const std::string& name = live[rand.Below(live.size())];
        c->logs[static_cast<size_t>(i)].push_back("insert " + name + " " +
                                                  TupleWords(rand));
      }
    }
  }
  // Land the kill somewhere inside the workload (1..total); the final
  // kill-9 + recovery check happens regardless.
  c->kill_after_acks = 1 + static_cast<int64_t>(
                               rand.Below(static_cast<uint64_t>(total)));
  c->spill_threshold = rand.Coin() ? 64 : 0;
  c->drop_every = rand.Coin() ? rand.Range(5, 11) : 0;
  return c;
}

std::optional<Divergence> ChaosTarget::Run(const Case& c) const {
  const auto& cc = static_cast<const ChaosCase&>(c);
  const char* bin = std::getenv("STRDB_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    return Divergence{
        "chaos target needs STRDB_SERVER_BIN (path to the strdb_server "
        "binary; the conformance CLI's --server-bin flag sets it)"};
  }
  if (cc.logs.empty()) return std::nullopt;

  char dir_template[] = "/tmp/strdb-chaos-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    return Divergence{std::string("mkdtemp: ") + std::strerror(errno)};
  }
  std::string root = dir_template;
  std::string data_dir = root + "/db";
  auto cleanup = [&root] {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  };

  ServerProcess server;
  Status spawned = SpawnServer(bin, data_dir, cc.spill_threshold, &server);
  if (!spawned.ok()) {
    cleanup();
    return Divergence{"spawn: " + spawned.ToString()};
  }

  // The port the clients dial; 0 while the server is down mid-restart.
  std::atomic<int> current_port{server.port};
  std::atomic<int64_t> acked{0};
  std::atomic<bool> clients_done{false};

  const size_t n = cc.logs.size();
  std::vector<ClientOutcome> outcomes(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ClientOptions options;
      options.client_id = std::string("c") + std::to_string(i);
      options.max_attempts = 400;
      options.backoff_initial_ms = 1;
      options.backoff_cap_ms = 50;
      options.jitter_seed = cc.seed + i;
      StrdbClient client(
          [&current_port]() -> Result<int> {
            int port = current_port.load(std::memory_order_acquire);
            if (port <= 0) return Status::Unavailable("server restarting");
            return port;
          },
          options, MakeTransport(cc, static_cast<int>(i)));
      for (const std::string& line : cc.logs[i]) {
        Result<ServerResponse> got = client.Call(line);
        if (!got.ok()) {
          outcomes[i].transport = got.status();
          return;
        }
        outcomes[i].frames.push_back(StripDurable(FrameOf(*got)));
        if (got->ok) acked.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  // The assassin: once enough mutations are acked, SIGKILL the server
  // and restart it on the same directory.  Clients ride it out through
  // reconnect + idempotent retry.
  std::string restart_error;
  std::thread assassin([&] {
    if (cc.kill_after_acks <= 0) return;
    while (!clients_done.load(std::memory_order_acquire)) {
      if (acked.load(std::memory_order_acquire) >= cc.kill_after_acks) {
        current_port.store(0, std::memory_order_release);
        KillServer(&server);
        Status up = SpawnServer(bin, data_dir, cc.spill_threshold, &server);
        if (!up.ok()) {
          restart_error = up.ToString();
          return;  // clients starve; reported below
        }
        current_port.store(server.port, std::memory_order_release);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) t.join();
  clients_done.store(true, std::memory_order_release);
  assassin.join();

  auto fail = [&](std::string summary) {
    KillServer(&server);
    cleanup();
    return Divergence{std::move(summary)};
  };

  if (!restart_error.empty()) {
    return fail("server failed to restart after SIGKILL: " + restart_error);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!outcomes[i].transport.ok()) {
      return fail("client " + std::to_string(i) +
                  " starved (retry budget exhausted through the kill "
                  "window): " + outcomes[i].transport.ToString());
    }
  }

  // Serial oracle: each client's log replayed through an in-memory
  // catalog.  Disjoint per-client namespaces make the cross-client
  // order irrelevant.
  SharedCatalog oracle(CaseAlphabet());
  CommandProcessor processor(&oracle, CommandProcessor::Mode::kServer);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < cc.logs[i].size(); ++j) {
      std::string out;
      Status status = processor.Execute(cc.logs[i][j], &out);
      std::string expect = FrameResponse(status, out);
      if (j < outcomes[i].frames.size() && outcomes[i].frames[j] != expect) {
        return fail("client " + std::to_string(i) + " command " +
                    std::to_string(j) + " (" + cc.logs[i][j] +
                    "): response diverges from serial replay\n  got:    " +
                    outcomes[i].frames[j] + "  expect: " + expect);
      }
    }
  }
  std::string expected_show;
  {
    std::string out;
    Status status = processor.Execute("show", &out);
    if (!status.ok()) return fail("oracle show failed: " + status.ToString());
    expected_show = out;
  }

  // The decisive durability probe: kill -9 once more (no graceful
  // checkpoint), restart, and ask the recovered catalog what survived.
  // Everything acked must be there — recovery is snapshot + WAL replay
  // only.
  current_port.store(0, std::memory_order_release);
  KillServer(&server);
  Status up = SpawnServer(bin, data_dir, cc.spill_threshold, &server);
  if (!up.ok()) {
    cleanup();
    return Divergence{"server failed to recover after final kill -9: " +
                      up.ToString()};
  }
  current_port.store(server.port, std::memory_order_release);
  std::string got_show;
  {
    ClientOptions options;  // untagged: show is read-only
    options.max_attempts = 100;
    options.backoff_initial_ms = 1;
    options.backoff_cap_ms = 50;
    StrdbClient verifier(server.port, options);
    Result<ServerResponse> got = verifier.Call("show");
    if (!got.ok() || !got->ok) {
      return fail("post-recovery show failed: " +
                  (got.ok() ? FrameOf(*got) : got.status().ToString()));
    }
    got_show = got->body;
  }
  StopServer(&server);
  cleanup();

  if (got_show != expected_show) {
    return std::optional<Divergence>(Divergence{
        "post-kill-9 recovered catalog diverges from serial replay "
        "(acked-durability violation)\n  recovered:\n" + got_show +
        "  expected:\n" + expected_show});
  }
  return std::nullopt;
}

std::string ChaosTarget::Serialize(const Case& c) const {
  const auto& cc = static_cast<const ChaosCase&>(c);
  std::ostringstream out;
  out << "seed " << cc.seed << "\n";
  out << "kill_after_acks " << cc.kill_after_acks << "\n";
  out << "spill " << cc.spill_threshold << "\n";
  out << "drop_every " << cc.drop_every << "\n";
  out << "clients " << cc.logs.size() << "\n";
  for (const std::vector<std::string>& log : cc.logs) {
    out << "log " << log.size() << "\n";
    for (const std::string& line : log) out << line << "\n";
  }
  return out.str();
}

Result<DiffTarget::CasePtr> ChaosTarget::Deserialize(
    const std::string& text) const {
  std::istringstream in(text);
  auto expect = [&](const std::string& keyword) -> Result<int64_t> {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("chaos case truncated before '" +
                                     keyword + "'");
    }
    std::istringstream fields(line);
    std::string word;
    int64_t value = 0;
    if (!(fields >> word >> value) || word != keyword) {
      return Status::InvalidArgument("expected '" + keyword + " N', got '" +
                                     line + "'");
    }
    return value;
  };

  auto c = std::make_unique<ChaosCase>();
  STRDB_ASSIGN_OR_RETURN(int64_t seed, expect("seed"));
  c->seed = static_cast<uint64_t>(seed);
  STRDB_ASSIGN_OR_RETURN(c->kill_after_acks, expect("kill_after_acks"));
  STRDB_ASSIGN_OR_RETURN(c->spill_threshold, expect("spill"));
  STRDB_ASSIGN_OR_RETURN(c->drop_every, expect("drop_every"));
  STRDB_ASSIGN_OR_RETURN(int64_t clients, expect("clients"));
  if (clients < 0 || clients > 64) {
    return Status::InvalidArgument("chaos case has implausible client count " +
                                   std::to_string(clients));
  }
  for (int64_t i = 0; i < clients; ++i) {
    STRDB_ASSIGN_OR_RETURN(int64_t count, expect("log"));
    if (count < 0 || count > 100000) {
      return Status::InvalidArgument("chaos case has implausible log size " +
                                     std::to_string(count));
    }
    std::vector<std::string> log;
    for (int64_t j = 0; j < count; ++j) {
      std::string line;
      if (!std::getline(in, line)) {
        return Status::InvalidArgument("chaos case truncated inside a log");
      }
      log.push_back(std::move(line));
    }
    c->logs.push_back(std::move(log));
  }
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> ChaosTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& cc = static_cast<const ChaosCase&>(c);
  std::vector<CasePtr> out;
  // Whole clients first: each removal halves the search fastest.
  if (cc.logs.size() > 1) {
    for (size_t i = 0; i < cc.logs.size(); ++i) {
      auto copy = Clone(cc);
      copy->logs.erase(copy->logs.begin() + static_cast<long>(i));
      out.push_back(std::move(copy));
    }
  }
  // Then suffixes: a log's tail often postdates the bug.
  for (size_t i = 0; i < cc.logs.size(); ++i) {
    if (cc.logs[i].size() > 1) {
      auto copy = Clone(cc);
      copy->logs[i].resize(cc.logs[i].size() / 2);
      out.push_back(std::move(copy));
    }
  }
  // Then single lines.
  for (size_t i = 0; i < cc.logs.size(); ++i) {
    for (size_t j = 0; j < cc.logs[i].size(); ++j) {
      auto copy = Clone(cc);
      copy->logs[i].erase(copy->logs[i].begin() + static_cast<long>(j));
      out.push_back(std::move(copy));
    }
  }
  // Finally the fault knobs (same size class; the shrink loop keeps
  // them only if the case also got smaller elsewhere — still worth
  // offering for the size-neutral drop of a whole empty log).
  if (cc.drop_every > 0) {
    auto copy = Clone(cc);
    copy->drop_every = 0;
    out.push_back(std::move(copy));
  }
  if (cc.spill_threshold > 0) {
    auto copy = Clone(cc);
    copy->spill_threshold = 0;
    out.push_back(std::move(copy));
  }
  return out;
}

int64_t ChaosTarget::CaseSize(const Case& c) const {
  const auto& cc = static_cast<const ChaosCase&>(c);
  int64_t size = static_cast<int64_t>(cc.logs.size());
  for (const std::vector<std::string>& log : cc.logs) {
    for (const std::string& line : log) {
      size += 1 + static_cast<int64_t>(line.size());
    }
  }
  if (cc.drop_every > 0) size += 1;
  if (cc.spill_threshold > 0) size += 1;
  return size;
}

}  // namespace testgen
}  // namespace strdb

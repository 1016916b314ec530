// strdb_conformance: the deterministic front-end over the differential
// targets in src/testing.  Builds with any toolchain (the libFuzzer
// entries next to it need Clang); CI runs it on every matrix leg, and a
// local `--runs 10000` sweep is the acceptance bar for changes to the
// kernel, engine, serializer or storage layers.
//
//   strdb_conformance --target kernel --runs 10000 --seed 1
//   strdb_conformance --target all --runs 2000 --repro-dir repro
//   strdb_conformance --replay repro/kernel-17.repro
//
// Exit status: 0 = every case agreed, 1 = a divergence was found (and,
// with --repro-dir, written out minimised), 2 = usage or I/O error.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "testing/differential.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: strdb_conformance --target <name>|all [--runs N] [--seed S]\n"
      "                         [--repro-dir DIR] [--no-shrink]\n"
      "                         [--server-bin PATH]\n"
      "       strdb_conformance --replay FILE\n"
      "       strdb_conformance --list\n"
      "\n"
      "--server-bin PATH exports STRDB_SERVER_BIN for the `chaos` target\n"
      "(real server processes; by name only — `all` never spawns).\n");
}

int Replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto report = strdb::testgen::ReplayReproducer(text.str());
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", report->ToString().c_str());
  return report->divergences > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target_name;
  std::string replay_path;
  strdb::testgen::ConformanceOptions options;
  options.runs = 1000;
  options.seed = 1;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--target") {
      target_name = value();
    } else if (arg == "--runs") {
      options.runs = std::atoll(value());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--repro-dir") {
      options.repro_dir = value();
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--server-bin") {
      ::setenv("STRDB_SERVER_BIN", value(), /*overwrite=*/1);
    } else if (arg == "--list") {
      for (const auto* target : strdb::testgen::AllTargets()) {
        std::printf("%s\n", target->name().c_str());
      }
      // By-name-only targets (excluded from `all`).
      std::printf("chaos\n");
      return 0;
    } else {
      Usage();
      return 2;
    }
  }

  if (!replay_path.empty()) return Replay(replay_path);
  if (target_name.empty() || options.runs <= 0) {
    Usage();
    return 2;
  }

  std::vector<const strdb::testgen::DiffTarget*> targets;
  if (target_name == "all") {
    targets = strdb::testgen::AllTargets();
  } else {
    const auto* target = strdb::testgen::FindTarget(target_name);
    if (target == nullptr) {
      std::fprintf(stderr, "unknown target '%s' (try --list)\n",
                   target_name.c_str());
      return 2;
    }
    targets.push_back(target);
  }

  // The engine's equi-join path, counted per target so a sweep shows
  // whether its cases reached it.
  strdb::Counter* hash_joins =
      strdb::MetricsRegistry::Global().GetCounter("engine.hash_joins");
  int status = 0;
  for (const auto* target : targets) {
    const int64_t joins_before = hash_joins->value();
    auto report = strdb::testgen::RunConformance(*target, options);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 2;
    }
    std::printf("%s\n", report->ToString().c_str());
    std::printf("  engine.hash_joins +%lld\n",
                static_cast<long long>(hash_joins->value() - joins_before));
    if (report->divergences > 0) status = 1;
  }
  return status;
}

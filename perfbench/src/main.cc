// perfbench: one benchmark binary for the whole repository (README.md).
//
//   perfbench --workload <materialize|serve_mixed|serve_durable>
//             --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--results <dir>]
//   perfbench --selftest --scratch <dir>
//
// Prints one line per operation type ("ops <type> attempted=.. failed=..")
// and, last, a RESULT line with the correctness verdict, the end-to-end
// metrics and the per-layer metrics; perfbench/run.py turns it into the
// benchmark's result object. --selftest plants each of the program's
// test-hook bugs in turn and exits 0 only if every one is caught.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "eval/test_hooks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using WorkloadFn = void (*)(Run*);

WorkloadFn Find(const std::string& name) {
  if (name == "materialize") return RunMaterialize;
  if (name == "serve_mixed") return RunServeMixed;
  if (name == "serve_durable") return RunServeDurable;
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <materialize|serve_mixed|"
               "serve_durable> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir> [--results <dir>]\n"
               "       perfbench --selftest --scratch <dir>\n");
  return 2;
}

/// Runs every planted bug against the workload whose checks must catch
/// it, plus the unplanted baseline, which must pass.
int SelfTest(const Config& base) {
  struct Case {
    const char* name;
    const char* workload;
    bool expect_correct;
    std::function<void(bool)> plant;  // plant(true) / undo(false)
  };
  namespace hooks = datalog::internal;
  const std::vector<Case> cases = {
      {"none", "materialize", true, [](bool) {}},
      {"none", "serve_mixed", true, [](bool) {}},
      {"none", "serve_durable", true, [](bool) {}},
      {"g_seminaive_skip_delta_rule", "materialize", false,
       [](bool on) { hooks::g_seminaive_skip_delta_rule = on ? 1 : -1; }},
      {"g_dred_skip_rederive", "materialize", false,
       [](bool on) { hooks::g_dred_skip_rederive = on; }},
      {"g_server_publish_stale", "serve_mixed", false,
       [](bool on) { hooks::g_server_publish_stale = on; }},
      {"g_store_skip_truncate", "serve_durable", false,
       [](bool on) { hooks::g_store_skip_truncate = on; }},
  };
  bool all = true;
  std::printf("%-30s %-14s %-10s %s\n", "planted bug", "workload", "verdict",
              "caught");
  for (const Case& c : cases) {
    Config cfg = base;
    cfg.workload = c.workload;
    cfg.seconds = 1;
    cfg.trace = false;
    Run run(cfg);
    c.plant(true);
    Find(c.workload)(&run);
    c.plant(false);
    const bool ok = run.correct() == c.expect_correct;
    all = all && ok;
    std::printf("%-30s %-14s %-10s %s\n", c.name, c.workload,
                run.correct() ? "correct" : "incorrect", ok ? "yes" : "NO");
    if (!run.correct()) {
      std::printf("    first failed check: %s\n", run.failures()[0].c_str());
    }
  }
  Config cfg = base;
  cfg.workload = "materialize";
  Run dropped(cfg);
  CheckModelWithDroppedFact(&dropped);
  const bool dropped_ok = !dropped.correct();
  all = all && dropped_ok;
  std::printf("%-30s %-14s %-10s %s\n", "model with one fact dropped",
              "checker", dropped.correct() ? "correct" : "incorrect",
              dropped_ok ? "yes" : "NO");
  std::printf("selftest: %s\n", all ? "every planted bug caught" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.process_start = perfbench::Clock::now();
  bool selftest = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      cfg.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--scratch") {
      cfg.scratch = v;
    } else if (a == "--results") {
      cfg.results = v;
    } else {
      return perfbench::Usage();
    }
  }
  if (cfg.scratch.empty()) return perfbench::Usage();
  if (selftest) return perfbench::SelfTest(cfg);
  perfbench::WorkloadFn fn = perfbench::Find(cfg.workload);
  if (fn == nullptr || !have_seed || !have_seconds || !have_trace) {
    return perfbench::Usage();
  }
  perfbench::Run run(cfg);
  fn(&run);
  return run.Report();
}

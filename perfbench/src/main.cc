// End-to-end benchmark of the simulated TransEdge deployment.
//
//   perfbench --workload <ro_snapshot|rw_commit|watch_fanout> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// A trial is a fixed set of simulations, on seeds derived from --seed, each
// of the same fixed simulated span; its simulated figures are a function of
// the seed alone. A run repeats whole trials for as long as another one
// fits in --seconds of host time (there is always at least one) and checks
// that every repeat reproduces the first exactly.
// --trace 1 pairs each simulation with a traced twin, checks that tracing
// changes nothing simulated, and prints the per-layer metrics instead of
// the end-to-end ones. The last line of standard output is the JSON
// result; everything else goes to stderr.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "report.h"
#include "workload.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Trial;

// Taken at static initialization, the closest this process gets to its
// own start: set-up time counts from here.
const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->selftest || !args->workload.empty();
}

void PrintViolations(const Trial& t) {
  for (const std::string& v : t.violations) {
    std::fprintf(stderr, "check failed: %s\n", v.c_str());
  }
}

/// Shows that each output check can fail: the checkers reject fabricated
/// violations, and snapshot readers that skip the cross-cluster
/// dependency check return torn reads that the snapshot check catches.
int SelfTest() {
  bool ok = true;
  for (const std::string& f : perfbench::CheckerSelfTest()) {
    std::fprintf(stderr, "selftest: %s\n", f.c_str());
    ok = false;
  }
  auto spec = perfbench::MakeSpec("ro_snapshot");
  spec->warmup = transedge::sim::Millis(500);
  spec->window = transedge::sim::Seconds(2);
  spec->drain = transedge::sim::Seconds(2);
  perfbench::Dataset data = perfbench::BuildDataset(*spec);
  for (bool verify : {false, true}) {
    spec->verify_dependencies = verify;
    Trial t = perfbench::RunTrial(*spec, data, 1, false,
                                  perfbench::Checks::kOutputs, kProcessStart);
    std::fprintf(stderr,
                 "selftest: dependency check %s: %llu of %llu snapshot reads "
                 "torn, %zu other violations\n",
                 verify ? "on" : "off",
                 static_cast<unsigned long long>(t.torn),
                 static_cast<unsigned long long>(t.reads_checked),
                 t.violations.size());
    PrintViolations(t);
    if (!t.violations.empty()) ok = false;
    if (!verify && t.torn == 0) {
      std::fprintf(stderr, "selftest: torn reads went undetected\n");
      ok = false;
    }
  }
  std::printf("{\"selftest\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) return SelfTest();
  auto spec = perfbench::MakeSpec(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  bool correct = true;
  for (const std::string& f : perfbench::CheckerSelfTest()) {
    std::fprintf(stderr, "checker self-test failed: %s\n", f.c_str());
    correct = false;
  }

  const perfbench::Dataset data = perfbench::BuildDataset(*spec);
  std::vector<Trial> untraced, traced;
  // Peak memory while the first simulation ran: each later one builds its
  // system anew, and the allocator's high-water mark creeps up with every
  // rebuild, by how much depending on the seed.
  double peak_rss_mb = 0;
  const auto loop_start = Clock::now();
  for (;;) {
    // Only the first trial runs the output checks: later ones must match
    // its fingerprints exactly, so they produced the same outputs.
    // The Merkle rebuild of every replica runs on the first simulation.
    const bool first_trial = untraced.empty();
    for (uint32_t i = 0; i < spec->sims; ++i) {
      const uint64_t seed = perfbench::SimSeed(args.seed, i);
      using perfbench::Checks;
      const Checks checks = !first_trial ? Checks::kNone
                            : i == 0     ? Checks::kOutputsAndMerkle
                                         : Checks::kOutputs;
      untraced.push_back(perfbench::RunTrial(*spec, data, seed, false, checks,
                                             kProcessStart));
      if (peak_rss_mb == 0) peak_rss_mb = perfbench::PeakRssMb();
      const std::string& expected = untraced[i].fingerprint;
      if (untraced.back().fingerprint != expected) {
        std::fprintf(stderr, "simulation %u did not repeat exactly\n", i);
        correct = false;
      }
      if (args.trace) {
        traced.push_back(perfbench::RunTrial(*spec, data, seed, true,
                                             Checks::kNone, kProcessStart));
        if (traced.back().fingerprint != expected) {
          std::fprintf(stderr, "traced simulation %u simulated something "
                               "else\n", i);
          correct = false;
        }
      }
    }
    // Start another trial only if it should end within --seconds, judged
    // by the mean trial so far: a run then stays close to --seconds.
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    const double per_trial =
        elapsed / static_cast<double>(untraced.size() / spec->sims);
    if (elapsed + per_trial > args.seconds) break;
  }

  const Trial& first = untraced.front();
  uint64_t torn = 0, reads_checked = 0, ops = 0;
  for (uint32_t i = 0; i < spec->sims; ++i) {
    PrintViolations(untraced[i]);
    if (!untraced[i].violations.empty()) correct = false;
    torn += untraced[i].torn;
    reads_checked += untraced[i].reads_checked;
    ops += untraced[i].ops;
  }

  perfbench::MetricSet metrics =
      args.trace ? perfbench::LayerMetrics(*spec, untraced, traced)
                 : perfbench::EndToEndMetrics(*spec, untraced,
                                              first.setup_done_s, peak_rss_mb);
  uint64_t attempted = 0;
  for (const Trial& t : untraced) attempted += t.ops;
  for (const Trial& t : traced) attempted += t.ops;

  std::fprintf(stderr,
               "%s seed %llu: %zu simulation(s), %llu ops per trial, %llu of "
               "%llu snapshot reads torn\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               untraced.size() + traced.size(),
               static_cast<unsigned long long>(ops),
               static_cast<unsigned long long>(torn),
               static_cast<unsigned long long>(reads_checked));
  for (uint32_t i = 0; i < spec->sims; ++i) {
    const Trial& t = untraced[i];
    const perfbench::MeasuredOps measured = perfbench::MeasuredOf(*spec, t);
    const std::vector<double> us(measured.latency.begin(),
                                 measured.latency.end());
    std::fprintf(stderr,
                 "  simulation %u: %llu ops, measured p50 %.3f ms, p99 %.3f "
                 "ms, %.0f ops per host CPU second\n",
                 i, static_cast<unsigned long long>(t.ops),
                 perfbench::Percentile(us, 50) / 1e3,
                 perfbench::Percentile(us, 99) / 1e3,
                 perfbench::Ratio(static_cast<double>(t.ops), t.host_cpu_s));
  }
  for (const auto& [name, metric] : metrics) {
    std::fprintf(stderr, "  %-48s %14.4f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::printf("%s\n",
              perfbench::ResultJson(correct, attempted, 0, metrics).c_str());
  return 0;
}

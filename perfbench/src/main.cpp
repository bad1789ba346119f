// The repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <sync-train|hier-eval|async-net> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--source-digest <hex>]
//
//   perfbench --workload <name> --seed <n> --setup-probe <builds>
//
// --trace 0 measures the end-to-end metrics; --trace 1 repeats the workload
// for the engine and OS metrics, compares a 1-thread and a 4-thread prefix,
// and times each module's public functions for the per-layer metrics. The
// last stdout line is the JSON result. Exit code 0 whenever a result was
// printed (its "correct" field carries the checks), 2 on bad arguments or a
// refused environment, 1 on any other error. --setup-probe is the child
// process setup_s spawns: it builds the workload's environment <builds>
// times and prints each build's seconds, one per line.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "environment.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "obs/rss.hpp"
#include "stats.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Result;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::size_t setup_probe = 0;  // builds of a --setup-probe child; 0 otherwise
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else if (flag == "--setup-probe") {
      a.setup_probe = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed ||
      (a.setup_probe == 0 && (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)))) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return a;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string count_note(std::size_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

// setup_s is the fastest build of fresh child processes, kSetupProcessesPerRun
// of them before each run of the window. On a shared host the builds of one
// process agree to a few percent while one process's builds can all read 40%
// above the next one's, and the host's speed drifts over seconds to minutes.
// The fastest build of many processes spread over the window read within
// 3-6% across seeds, where the median of the same builds spread 14-21%.
constexpr std::size_t kSetupProcessesPerRun = 2;
constexpr std::size_t kSetupsPerProcess = 4;

// The --setup-probe child: builds `builds` environments, each after the
// previous one is freed, and prints the seconds of each.
void run_setup_probe(const perfbench::WorkloadSpec& w, const Args& args) {
  afl::ExperimentEnv env;
  for (std::size_t i = 0; i < args.setup_probe; ++i) {
    env = afl::ExperimentEnv();  // every build starts from the same heap
    const auto t0 = std::chrono::steady_clock::now();
    afl::ExperimentEnv built = perfbench::make_workload_env(w, args.seed);
    const double seconds = since(t0);
    env = std::move(built);
    std::printf("%.9g\n", seconds);
  }
}

// Runs one --setup-probe child of this binary and returns its build times.
std::vector<double> spawn_setup_probe(const perfbench::WorkloadSpec& w, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {"perfbench",     "--workload",    w.name,
                                   "--seed",        std::to_string(seed),
                                   "--setup-probe", std::to_string(kSetupsPerProcess)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) != 0) {
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
      else if (errno != EINTR) break;
    }
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("could not start a set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::vector<double> seconds;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t used = 0;
    seconds.push_back(std::stod(text.substr(pos), &used));
    pos += used;
    while (pos < text.size() && text[pos] == '\n') ++pos;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || seconds.size() != kSetupsPerProcess) {
    throw std::runtime_error("set-up probe failed");
  }
  return seconds;
}

void measure_end_to_end(const perfbench::WorkloadSpec& w, const Args& args, Result& out) {
  std::vector<double> setups;
  std::size_t probes = 0;
  const auto probe = [&] {
    for (std::size_t p = 0; p < kSetupProcessesPerRun; ++p, ++probes) {
      for (double t : spawn_setup_probe(w, perfbench::run_seed(args.seed, probes))) {
        setups.push_back(t);
      }
    }
  };
  const perfbench::LoopStats s = perfbench::run_loop(w, args.seed, args.seconds, out, probe);
  const std::size_t n = s.round_seconds.size();
  out.metrics["setup_s"] = *std::min_element(setups.begin(), setups.end());
  out.notes["setup_s"] = "(fastest of " + std::to_string(setups.size()) + " set-ups in " +
                         std::to_string(probes) + " processes)";
  out.metrics["rounds_per_s"] = perfbench::median(s.run_rounds_per_s);
  out.notes["rounds_per_s"] = "(median of " + std::to_string(s.runs) + " runs, " +
                              std::to_string(s.rounds) + " rounds)";
  out.metrics["round_s.p50"] = perfbench::percentile(s.round_seconds, 0.5);
  out.notes["round_s.p50"] = count_note(n, "rounds");
  out.metrics["round_s.p90"] = perfbench::percentile(s.round_seconds, 0.9);
  out.notes["round_s.p90"] =
      "(" + std::to_string(n) + " rounds, " +
      std::to_string(perfbench::samples_beyond(n, 0.9)) + " beyond p90)";
  out.metrics["cpu_s_per_round"] = perfbench::median(s.run_cpu_s_per_round);
  out.notes["cpu_s_per_round"] = "(median of " + std::to_string(s.runs) + " runs)";
  out.metrics["peak_rss_mb"] =
      static_cast<double>(afl::obs::read_rss().peak_bytes) / (1024.0 * 1024.0);
}

// 1-thread/4-thread prefix pairs behind engine.speedup_4t.
constexpr std::size_t kSpeedupPairs = 3;

void measure_per_layer(const perfbench::WorkloadSpec& w, const Args& args, Result& out) {
  const perfbench::LoopStats s = perfbench::run_loop(w, args.seed, args.seconds, out);
  const double rounds = static_cast<double>(s.rounds);
  out.metrics["traced.rounds_per_s"] = perfbench::median(s.run_rounds_per_s);
  out.notes["traced.rounds_per_s"] = count_note(s.runs, "runs");
  out.metrics["best_acc"] = s.best_acc;
  out.metrics["wire_mb_per_round"] = s.wire_bytes * 1e-6 / rounds;
  out.metrics["engine.pool_util"] =
      s.train_s / (static_cast<double>(w.threads) * (s.round_s - s.aggregate_s - s.eval_s));
  out.metrics["engine.eval_frac"] = s.eval_s / s.round_s;
  out.metrics["engine.aggregate_frac"] = s.aggregate_s / s.round_s;
  out.metrics["engine.dispatch_fail_frac"] =
      s.clients_failed / (s.clients_ok + s.clients_failed);
  out.metrics["os.minflt_per_round"] = s.usage.minflt / rounds;
  out.metrics["os.sys_frac"] = perfbench::sys_fraction(s.usage);
  out.metrics["os.offcpu_frac"] = perfbench::offcpu_fraction(s.usage, w.threads);
  out.metrics["os.ivcsw_per_round"] = s.usage.nivcsw / rounds;

  // The same prefix at 1 and at 4 threads must give the same result. The
  // pairs alternate which side runs first, so a drift of the host between
  // the two runs of a pair cancels over the pairs.
  afl::ExperimentEnv env = perfbench::make_workload_env(w, args.seed);
  env.run.rounds = w.prefix_rounds;
  std::vector<double> ratios;
  std::vector<std::string> failures;
  for (std::size_t pair = 0; pair < kSpeedupPairs; ++pair) {
    double wall[2] = {0.0, 0.0};
    std::string prints[2];
    for (int k = 0; k < 2; ++k) {
      const int i = pair % 2 == 0 ? k : 1 - k;  // 0: 1 thread, 1: kThreads
      env.run.threads = i == 0 ? 1 : perfbench::kThreads;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        prints[i] = perfbench::fingerprint(afl::run_algorithm(afl::Algorithm::kAdaptiveFl, env));
      } catch (const std::exception& e) {
        failures.push_back(std::string("run threw: ") + e.what());
      }
      wall[i] = since(t0);
    }
    if (!prints[0].empty() && !prints[1].empty() && prints[0] != prints[1]) {
      failures.push_back("1-thread and 4-thread results differ in pair " +
                         std::to_string(pair + 1));
    }
    ratios.push_back(wall[0] / wall[1]);
  }
  out.record(w.name + " prefix", failures, 2 * kSpeedupPairs * w.prefix_rounds);
  out.metrics["engine.speedup_4t"] = perfbench::median(ratios);
  out.notes["engine.speedup_4t"] =
      "(median of " + std::to_string(kSpeedupPairs) + " pairs, " +
      std::to_string(w.prefix_rounds) + " rounds each)";

  perfbench::run_layer_benchmarks(env, out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    perfbench::find_workload(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const std::vector<std::string> refused = perfbench::refused_in(environ);
  if (!refused.empty()) {
    for (const std::string& name : refused) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set: it changes the measured program\n",
                   name.c_str());
    }
    return 2;
  }
  afl::set_log_threshold(afl::LogLevel::kWarn);
  if (args.setup_probe > 0) {
    try {
      run_setup_probe(perfbench::find_workload(args.workload), args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  perfbench::HostRecord host = perfbench::describe_host();
  host.commit = args.commit;
  host.source_digest = args.source_digest;
  host.seed = args.seed;
  host.workload = args.workload;
  host.trace = args.trace == 1;
  std::printf("host %s\n", perfbench::host_json(host).c_str());
  std::fflush(stdout);

  try {
    const perfbench::WorkloadSpec& w = perfbench::find_workload(args.workload);
    Result result;
    if (args.trace == 0) {
      measure_end_to_end(w, args, result);
      perfbench::print_result(result, perfbench::end_to_end_metrics());
    } else {
      measure_per_layer(w, args, result);
      perfbench::print_result(result, perfbench::per_layer_metrics());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

#pragma once
// The benchmark's three closed-loop workloads: each builds its inputs from a
// seed through the library's public API and repeats one federated run, every
// repetition starting after the previous one returns.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Engine { kSync, kHier, kAsync };

struct WorkloadSpec {
  std::string name;
  Engine engine = Engine::kSync;
  /// Rounds (async: buffer flushes) of one federated run.
  std::size_t rounds_per_run = 0;
  /// Rounds of the traced 1-thread vs kThreads comparison.
  std::size_t prefix_rounds = 0;
  /// Worker threads of the measured runs.
  std::size_t threads = 0;
};

/// Worker threads of the multi-threaded side of engine.speedup_4t.
inline constexpr std::size_t kThreads = 4;

const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument naming the valid workloads.
const WorkloadSpec& find_workload(const std::string& name);

/// The workload's environment for `seed`, with every FlRunConfig optional set
/// explicitly so no AFL_* variable can reach the run.
afl::ExperimentEnv make_workload_env(const WorkloadSpec& w, std::uint64_t seed);

/// Everything of a RunResult that must repeat exactly at a fixed seed: the
/// curve, level accuracies, comm counters, per-round counts, failed
/// trainings and simulated time. Wall times are left out.
std::string fingerprint(const afl::RunResult& r);

/// Lowest best accuracy a sync-train run may reach: 1.5x chance.
double chance_floor(const afl::ExperimentEnv& env);

/// Output checks of one run beyond the fingerprint; one message per failure.
std::vector<std::string> check_run(const WorkloadSpec& w, const afl::ExperimentEnv& env,
                                   const afl::RunResult& r);

/// Seed of the `run`-th run of a loop. Each run of a measuring window draws
/// its own inputs (task, fleet, selection streams), so one window averages
/// over several of them instead of repeating one draw.
std::uint64_t run_seed(std::uint64_t seed, std::size_t run);

/// A loop runs until it holds this many rounds, so round_s.p90 keeps ten
/// samples beyond it however slow the rounds are.
inline constexpr std::size_t kMinRounds = 100;

/// Sums over the runs of one loop.
struct LoopStats {
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::vector<double> round_seconds;  // one per round, all runs
  // One per run: a host hiccup then moves one sample, not the median.
  std::vector<double> run_rounds_per_s, run_cpu_s_per_round;
  Usage usage;                        // around run_algorithm only
  double train_s = 0.0, aggregate_s = 0.0, eval_s = 0.0, round_s = 0.0;
  double clients_ok = 0.0, clients_failed = 0.0, wire_bytes = 0.0;
  double best_acc = 0.0;              // of the first run
};

/// Runs the workload back to back, run i on run_seed(seed, i), until
/// `seconds` of run time have passed and kMinRounds rounds have run, then
/// repeats the first run outside the window; its result must equal the
/// first one's. Every run is checked and recorded in `result`. `before_run`,
/// if set, is called before each run of the window, outside its timing.
LoopStats run_loop(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                   Result& result, const std::function<void()>& before_run = {});

}  // namespace perfbench

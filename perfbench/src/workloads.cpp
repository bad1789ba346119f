#include "workloads.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "arch/zoo.hpp"
#include "data/synthetic.hpp"
#include "prune/model_pool.hpp"
#include "sim/device.hpp"

namespace perfbench {

// Run lengths keep one federated run at a few seconds on a 4-core host, so
// a measuring window holds several runs to compare fingerprints across.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"sync-train", Engine::kSync, 20, 4, kThreads},
      {"hier-eval", Engine::kHier, 30, 3, kThreads},
      // One thread: the async engine trains a wave of a few clients at a
      // time and gains little and unevenly from four (engine.speedup_4t,
      // median of 3 pairs: 1.38 at seed 1, 0.91 at seed 2).
      {"async-net", Engine::kAsync, 40, 10, 1},
  };
  return all;
}

const WorkloadSpec& find_workload(const std::string& name) {
  std::string valid;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return w;
    valid += (valid.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (valid: " + valid + ")");
}

namespace {

// The CIFAR-10-like task on MiniVGG, IID partition.
afl::ExperimentConfig base_config(std::uint64_t seed) {
  afl::ExperimentConfig cfg;
  cfg.task = afl::TaskKind::kCifar10Like;
  cfg.model = afl::ModelKind::kMiniVgg;
  cfg.partition = afl::Partition::kIid;
  cfg.image_hw = 12;
  cfg.seed = seed;
  return cfg;
}

// make_env without the eager client shards: they are generated on demand
// (make_federated_lazy), so a 10^5-client population costs only its devices.
afl::ExperimentEnv make_lazy_env(const afl::ExperimentConfig& config) {
  using namespace afl;
  ExperimentEnv env;
  env.config = config;
  const SyntheticConfig task_cfg = SyntheticConfig::cifar10_like(config.image_hw);
  env.spec = mini_vgg(task_cfg.num_classes, task_cfg.channels, task_cfg.hw);
  env.pool_config = PoolConfig::defaults_for(env.spec, config.pool_p);
  Rng rng(config.seed);
  auto task = std::make_shared<const SyntheticTask>(task_cfg, rng);
  FederatedConfig fed;
  fed.num_clients = config.num_clients;
  fed.samples_per_client = config.samples_per_client;
  fed.test_samples = config.test_samples;
  env.data = make_federated_lazy(std::move(task), fed, config.seed);
  const ModelPool pool(env.spec, env.pool_config);
  env.devices = make_devices(pool, config.num_clients, config.proportions, rng,
                             config.capacity_jitter);
  env.scalefl_budgets = {tier_capacity(pool, DeviceTier::kStrong),
                         tier_capacity(pool, DeviceTier::kMedium),
                         tier_capacity(pool, DeviceTier::kWeak)};
  env.run.rounds = config.rounds;
  env.run.clients_per_round = config.clients_per_round;
  env.run.local.epochs = config.local_epochs;
  env.run.local.batch_size = config.batch_size;
  env.run.local.lr = config.lr;
  env.run.local.momentum = config.momentum;
  env.run.seed = config.seed + 1;
  return env;
}

}  // namespace

afl::ExperimentEnv make_workload_env(const WorkloadSpec& w, std::uint64_t seed) {
  using namespace afl;
  ExperimentConfig cfg = base_config(seed);
  cfg.rounds = w.rounds_per_run;
  ExperimentEnv env;
  net::NetConfig net;  // disabled
  async::AsyncConfig async;
  hier::HierConfig hier;
  pop::PopConfig pop;
  std::size_t eval_every = 0;
  switch (w.engine) {
    case Engine::kSync:
      cfg.num_clients = 40;
      cfg.clients_per_round = 8;
      cfg.samples_per_client = 40;
      cfg.local_epochs = 2;
      cfg.batch_size = 20;
      cfg.test_samples = 600;
      env = make_env(cfg);
      eval_every = 0;  // final round only
      break;
    case Engine::kHier:
      // 8x8 images, as the scale-out bench uses, keep a round near 0.2 s,
      // so a measuring window holds the 100 rounds p90 needs.
      cfg.image_hw = 8;
      cfg.num_clients = 100000;
      cfg.clients_per_round = 16;
      cfg.samples_per_client = 10;
      cfg.local_epochs = 1;
      cfg.batch_size = 10;
      cfg.test_samples = 200;
      env = make_lazy_env(cfg);
      eval_every = 1;
      hier.enabled = true;
      hier.shards = 8;
      hier.sync_every = 1;
      break;
    case Engine::kAsync:
      cfg.num_clients = 64;
      cfg.clients_per_round = 6;
      cfg.samples_per_client = 10;
      cfg.local_epochs = 1;
      cfg.batch_size = 10;
      cfg.test_samples = 200;
      env = make_env(cfg);
      // Every 8th flush evaluates: with every 10th, p90 would sit exactly on
      // the edge between eval and plain flushes and jump between the two.
      eval_every = 8;
      async.enabled = true;
      async.buffer_size = 6;
      async.concurrency = 12;
      async.staleness_alpha = 0.3;
      net.enabled = true;
      net.codec = net::Codec::kFp16;
      net.uplink_codec = net::Codec::kTopK10;
      net.channel.bandwidth_bytes_per_s = 256 * 1024.0;
      net.channel.latency_s = 0.02;
      net.channel.loss_prob = 0.05;
      pop.enabled = true;
      pop.active_frac = 0.75;
      pop.rotate_every = 5;
      pop.rotate_frac = 0.2;
      pop.dark_prob = 0.05;
      pop.dark_len = 2;
      pop.channels = true;
      pop.bw_spread = 1.0;
      pop.latency_spread = 1.0;
      pop.loss_max = 0.1;
      break;
  }
  FlRunConfig& run = env.run;
  run.eval_every = eval_every;
  run.threads = w.threads;
  run.net = net;
  run.async = async;
  run.hier = hier;
  run.pop = pop;
  run.snapshot_path = std::string();
  run.snapshot_every = 1;
  run.stop_after_round = 0;
  run.resume_from = std::string();
  return env;
}

std::string fingerprint(const afl::RunResult& r) {
  std::string out;
  char buf[96];
  auto add = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%s=%a;", key, v);
    out += buf;
  };
  for (const afl::RoundRecord& p : r.curve) {
    add("round", static_cast<double>(p.round));
    add("full", p.full_acc);
    add("avg", p.avg_acc);
    add("waste", p.comm_waste);
    add("round_waste", p.round_waste);
  }
  for (const auto& [level, acc] : r.level_acc) add(level.c_str(), acc);
  add("params_sent", static_cast<double>(r.comm.params_sent()));
  add("params_returned", static_cast<double>(r.comm.params_returned()));
  add("bytes_sent", static_cast<double>(r.comm.bytes_sent()));
  add("bytes_returned", static_cast<double>(r.comm.bytes_returned()));
  add("retransmits", static_cast<double>(r.comm.retransmits()));
  add("stragglers", static_cast<double>(r.comm.stragglers()));
  add("drops", static_cast<double>(r.comm.drops()));
  add("failed_trainings", static_cast<double>(r.failed_trainings));
  add("sim_seconds", r.sim_seconds);
  for (const afl::RoundMetrics& m : r.round_metrics) {
    add("ok", static_cast<double>(m.clients_ok));
    add("failed", static_cast<double>(m.clients_failed));
  }
  return out;
}

double chance_floor(const afl::ExperimentEnv& env) {
  return 1.5 / static_cast<double>(env.spec.num_classes);
}

std::vector<std::string> check_run(const WorkloadSpec& w, const afl::ExperimentEnv& env,
                                   const afl::RunResult& r) {
  std::vector<std::string> failures;
  const std::size_t rounds = env.run.rounds;
  if (r.round_metrics.size() != rounds) {
    failures.push_back("ran " + std::to_string(r.round_metrics.size()) + " of " +
                       std::to_string(rounds) + " rounds");
  }
  const std::size_t wire = r.comm.bytes_sent() + r.comm.bytes_returned();
  std::size_t dispatch_failures = 0;
  for (const afl::RoundMetrics& m : r.round_metrics) dispatch_failures += m.clients_failed;
  switch (w.engine) {
    case Engine::kSync:
      if (wire != 0) failures.push_back("sent " + std::to_string(wire) + " wire bytes");
      // Only this workload trains enough per run to clear chance reliably:
      // hier-eval and async-net take one SGD step per update and sit near
      // chance for their first tens of rounds on some seeds.
      if (!(r.best_full_acc() >= chance_floor(env))) {
        failures.push_back("best accuracy " + std::to_string(r.best_full_acc()) +
                           " below the chance floor " + std::to_string(chance_floor(env)));
      }
      break;
    case Engine::kHier:
      if (r.curve.size() != rounds) {
        failures.push_back("evaluated " + std::to_string(r.curve.size()) + " of " +
                           std::to_string(rounds) + " rounds");
      }
      break;
    case Engine::kAsync: {
      // Top-k(10%) must ship at most a fifth of what dense fp32 would.
      const std::size_t dense_up = 4 * r.comm.params_returned();
      if (dense_up == 0 || 5 * r.comm.bytes_returned() > dense_up) {
        failures.push_back("uplink sent " + std::to_string(r.comm.bytes_returned()) +
                           " bytes against " + std::to_string(dense_up) +
                           " dense fp32 bytes");
      }
      if (dispatch_failures == 0) failures.push_back("no dispatch failed");
      break;
    }
  }
  return failures;
}

std::uint64_t run_seed(std::uint64_t seed, std::size_t run) {
  return afl::Rng::derive(seed, 0, run).next_u64();
}

namespace {

struct Checked {
  afl::RunResult result;
  Usage usage;                        // around run_algorithm
  std::vector<std::string> failures;  // empty when the run passed
};

Checked run_checked(const WorkloadSpec& w, const afl::ExperimentEnv& env) {
  Checked c;
  const Usage before = sample_usage();
  try {
    c.result = afl::run_algorithm(afl::Algorithm::kAdaptiveFl, env);
  } catch (const std::exception& e) {
    c.failures.push_back(std::string("run threw: ") + e.what());
  }
  c.usage = sample_usage() - before;
  if (c.failures.empty()) c.failures = check_run(w, env, c.result);
  return c;
}

}  // namespace

LoopStats run_loop(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                   Result& result, const std::function<void()>& before_run) {
  LoopStats s;
  std::string first_print;
  while (s.runs == 0 || s.usage.wall_s < seconds || s.rounds < kMinRounds) {
    if (before_run) before_run();
    const afl::ExperimentEnv env = make_workload_env(w, run_seed(seed, s.runs));
    const Checked c = run_checked(w, env);
    const double rounds = static_cast<double>(env.run.rounds);
    s.usage += c.usage;
    s.run_rounds_per_s.push_back(rounds / c.usage.wall_s);
    s.run_cpu_s_per_round.push_back(cpu_seconds(c.usage) / rounds);
    std::printf("run %zu: %zu rounds, %.3f s wall, %.3f s cpu\n", s.runs + 1,
                c.result.round_metrics.size(), c.usage.wall_s, cpu_seconds(c.usage));
    if (s.runs == 0) {
      first_print = fingerprint(c.result);
      s.best_acc = c.result.best_full_acc();
      std::printf("best_acc %.4f (run 1; chance floor %.4f)\n", s.best_acc,
                  chance_floor(env));
    }
    for (const afl::RoundMetrics& m : c.result.round_metrics) {
      s.round_seconds.push_back(m.round_seconds);
      s.train_s += m.train_seconds;
      s.aggregate_s += m.aggregate_seconds;
      s.eval_s += m.eval_seconds;
      s.round_s += m.round_seconds;
      s.clients_ok += static_cast<double>(m.clients_ok);
      s.clients_failed += static_cast<double>(m.clients_failed);
      s.wire_bytes += static_cast<double>(m.bytes_sent + m.bytes_returned);
    }
    result.record(w.name + " run " + std::to_string(s.runs + 1), c.failures,
                  env.run.rounds);
    s.rounds += env.run.rounds;
    ++s.runs;
  }

  // Outside the window: the first run again, which must repeat exactly.
  const afl::ExperimentEnv env = make_workload_env(w, run_seed(seed, 0));
  Checked again = run_checked(w, env);
  if (again.failures.empty() && fingerprint(again.result) != first_print) {
    again.failures.push_back("differs from run 1 at the same seed");
    result.failed += env.run.rounds;  // run 1 is as suspect as its repeat
  }
  result.record(w.name + " repeat of run 1", again.failures, env.run.rounds);
  return s;
}

}  // namespace perfbench

// Tests of the benchmark's own arithmetic, metric registry and input shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "arch/zoo.hpp"
#include "environment.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "nn/conv2d.hpp"
#include "obs/json.hpp"
#include "prune/model_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.9), 90);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondP90NeedHundredSamples) {
  EXPECT_EQ(percentile_rank(100, 0.9), 90u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(250, 0.9), 25u);
  EXPECT_EQ(samples_beyond(1, 0.9), 0u);
  EXPECT_EQ(samples_beyond(10, 0.5), 5u);
}

TEST(Usage, DeltaAndRatios) {
  Usage before, after;
  before.wall_s = 10.0;
  before.user_s = 1.0;
  before.sys_s = 0.5;
  before.minflt = 100;
  before.nivcsw = 3;
  after.wall_s = 12.0;
  after.user_s = 5.5;
  after.sys_s = 2.0;
  after.minflt = 1100;
  after.nivcsw = 13;
  const Usage d = after - before;
  EXPECT_DOUBLE_EQ(d.wall_s, 2.0);
  EXPECT_DOUBLE_EQ(cpu_seconds(d), 6.0);
  EXPECT_DOUBLE_EQ(sys_fraction(d), 0.25);
  EXPECT_DOUBLE_EQ(offcpu_fraction(d, 4), 0.25);  // 6 of 8 thread-seconds on CPU
  EXPECT_DOUBLE_EQ(d.minflt, 1000);
  EXPECT_DOUBLE_EQ(d.nivcsw, 10);
  Usage total;
  total += d;
  total += d;
  EXPECT_DOUBLE_EQ(total.wall_s, 4.0);
  EXPECT_DOUBLE_EQ(offcpu_fraction(total, 4), 0.25);
  EXPECT_DOUBLE_EQ(sys_fraction(Usage{}), 0.0);
  EXPECT_DOUBLE_EQ(offcpu_fraction(Usage{}, 4), 0.0);
}

TEST(Metrics, NamesAndUnitsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(valid_unit(m.unit)) << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(".starts_with_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_unit("GFLOP/s per core"));
}

std::vector<std::pair<std::string, std::string>> json_entries(const std::string& raw,
                                                              const char* value_key) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& item : afl::obs::json_array_items(raw)) {
    const auto fields = afl::obs::json_object_fields(item);
    out.emplace_back(afl::obs::json_raw_string(fields.at("name")),
                     value_key ? afl::obs::json_raw_string(fields.at(value_key)) : "");
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> registry(const std::vector<MetricSpec>& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& m : specs) out.emplace_back(m.name, m.unit);
  return out;
}

TEST(Metrics, MatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << "cannot open " << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto fields = afl::obs::json_object_fields(text.str());
  ASSERT_FALSE(fields.empty());
  EXPECT_EQ(json_entries(fields.at("end_to_end"), "unit"), registry(end_to_end_metrics()));
  EXPECT_EQ(json_entries(fields.at("per_layer"), "unit"), registry(per_layer_metrics()));
  std::vector<std::pair<std::string, std::string>> names;
  for (const WorkloadSpec& w : workloads()) names.emplace_back(w.name, "");
  EXPECT_EQ(json_entries(fields.at("workloads"), nullptr), names);
}

TEST(Metrics, ResultJsonHasExactlyTheRegisteredMetrics) {
  const std::vector<MetricSpec> specs = {{"a_s", "s"}, {"b", "count"}};
  Result r;
  r.attempted = 40;
  r.metrics["a_s"] = 0.125;
  EXPECT_THROW(result_json(r, specs), std::logic_error);  // b missing
  r.metrics["b"] = 3;
  const std::string json = result_json(r, specs);
  const auto fields = afl::obs::json_object_fields(json);
  EXPECT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields.at("correct"), "true");
  EXPECT_EQ(fields.at("attempted"), "40");
  EXPECT_EQ(fields.at("failed"), "0");
  EXPECT_EQ(afl::obs::json_object_fields(fields.at("metrics")).size(), 2u);
  r.record("run 1", {}, 20);
  EXPECT_EQ(r.attempted, 60u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.correct());
  r.record("run 2", {"differs", "too slow"}, 20);
  EXPECT_EQ(afl::obs::json_object_fields(result_json(r, specs)).at("correct"), "false");
  EXPECT_EQ(r.attempted, 80u);
  EXPECT_EQ(r.failed, 20u);  // every round of the failed run, once
  EXPECT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(r.failures[0], "run 2: differs");
  r.metrics["c"] = 1;
  EXPECT_THROW(result_json(r, specs), std::logic_error);  // c not registered
}

TEST(Environment, RefusesVariablesThatChangeTheProgram) {
  std::vector<std::string> vars = {"PATH=/bin",          "MALLOC_ARENA_MAX=2",
                                   "AFL_PROFILE=1",      "AFL_NET=1",
                                   "AFL_SNAPSHOT_EVERY=2", "AFL_COMPRESS_EF=0",
                                   "GLIBC_TUNABLES=x",   "AFL_PROFILER=1"};
  std::vector<char*> env;
  for (std::string& v : vars) env.push_back(v.data());
  env.push_back(nullptr);
  const std::vector<std::string> expected = {"MALLOC_ARENA_MAX", "AFL_PROFILE",
                                             "AFL_SNAPSHOT_EVERY", "AFL_COMPRESS_EF",
                                             "GLIBC_TUNABLES"};
  EXPECT_EQ(refused_in(env.data()), expected);
}

afl::Model l1_model(const afl::ExperimentEnv& env) {
  const afl::ModelPool pool(env.spec, env.pool_config);
  return pool.build(pool.largest_index());
}

TEST(Shapes, ConvShapesComeFromTheWorkloadModel) {
  const afl::ExperimentEnv env = make_workload_env(find_workload("sync-train"), 3);
  afl::Model model = l1_model(env);
  const std::size_t batch = env.run.local.batch_size;
  const std::vector<ConvShape> shapes = conv_shapes(model, env.spec, batch);

  std::vector<afl::Conv2D*> convs;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (auto* c = dynamic_cast<afl::Conv2D*>(&model.layer(i))) convs.push_back(c);
  }
  ASSERT_EQ(shapes.size(), convs.size());
  ASSERT_FALSE(shapes.empty());
  EXPECT_EQ(shapes.front().geom.height, env.spec.in_h);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ConvShape& s = shapes[i];
    EXPECT_EQ(s.batch, batch);
    EXPECT_EQ(s.out_c, convs[i]->out_channels());
    EXPECT_EQ(s.geom.channels, convs[i]->in_channels());
    EXPECT_EQ(s.gemm_k(), convs[i]->weight().numel() / convs[i]->out_channels());
    EXPECT_EQ(s.gemm_n(), batch * s.geom.out_h() * s.geom.out_w());
    if (i > 0) EXPECT_EQ(s.geom.channels, shapes[i - 1].out_c);
  }

  // Another image size and batch move every shape with them.
  afl::ArchSpec small = env.spec;
  small.in_h = small.in_w = 8;
  afl::Model small_model = afl::build_full_model(small);
  const std::vector<ConvShape> small_shapes = conv_shapes(small_model, small, 2 * batch);
  ASSERT_EQ(small_shapes.size(), shapes.size());
  EXPECT_EQ(small_shapes.front().geom.height, 8u);
  EXPECT_EQ(small_shapes.front().gemm_n(), 2 * batch * 64);
  EXPECT_NE(small_shapes.back().gemm_n(), shapes.back().gemm_n());
}

TEST(Workloads, EveryOptionalIsPinned) {
  for (const WorkloadSpec& w : workloads()) {
    const afl::ExperimentEnv env = make_workload_env(w, 1);
    const afl::FlRunConfig& run = env.run;
    EXPECT_EQ(run.threads, w.threads) << w.name;
    EXPECT_GT(w.threads, 0u) << w.name;
    EXPECT_TRUE(run.net && run.async && run.hier && run.pop) << w.name;
    EXPECT_TRUE(run.snapshot_path && run.snapshot_path->empty()) << w.name;
    EXPECT_TRUE(run.resume_from && run.resume_from->empty()) << w.name;
    EXPECT_TRUE(run.snapshot_every && run.stop_after_round) << w.name;
    EXPECT_EQ(run.rounds, w.rounds_per_run) << w.name;
    EXPECT_EQ(run.hier->enabled, w.engine == Engine::kHier) << w.name;
    EXPECT_EQ(run.async->enabled, w.engine == Engine::kAsync) << w.name;
    EXPECT_EQ(run.net->enabled, w.engine == Engine::kAsync) << w.name;
  }
  EXPECT_THROW(find_workload("nope"), std::invalid_argument);
}

TEST(Workloads, ChecksCatchAWorkloadThatMissesItsLayers) {
  const WorkloadSpec& sync = find_workload("sync-train");
  const afl::ExperimentEnv env = make_workload_env(sync, 1);
  afl::RunResult r;
  r.round_metrics.resize(env.run.rounds);
  r.curve.push_back({env.run.rounds, 0.4, 0.35, 0.0, 0.0});
  EXPECT_TRUE(check_run(sync, env, r).empty());
  r.comm.record_dispatch_bytes(10);
  EXPECT_EQ(check_run(sync, env, r).size(), 1u);  // sync-train sends no bytes
  r.curve.back().full_acc = 0.1;
  EXPECT_EQ(check_run(sync, env, r).size(), 2u);  // and chance accuracy fails

  const std::string before = fingerprint(r);
  r.curve.back().full_acc = std::nextafter(0.1, 1.0);
  const std::string after = fingerprint(r);
  EXPECT_NE(after, before);
  r.round_metrics[0].round_seconds = 5.0;  // wall time is not part of it
  EXPECT_EQ(fingerprint(r), after);
}

}  // namespace
}  // namespace perfbench

#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>

#include "compress/compressor.hpp"
#include "data/synthetic.hpp"
#include "fl/aggregate.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_train.hpp"
#include "fl/shard_aggregator.hpp"
#include "net/wire.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "prune/model_pool.hpp"
#include "rl/selector.hpp"
#include "stats.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median seconds of one call of `fn`, each call timed on its own, over at
// least kMinCalls calls and kBudgetS seconds. `prepare` runs untimed before
// every call (to reset inputs a call consumes).
constexpr std::size_t kMinCalls = 7;
constexpr double kBudgetS = 0.2;

double median_call_s(const std::function<void()>& fn,
                     const std::function<void()>& prepare = {}) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < kMinCalls || since(start) < kBudgetS) {
    if (prepare) prepare();
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(since(t0));
  }
  return median(std::move(samples));
}

std::vector<float> random_floats(std::size_t n, afl::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// The head (largest entry) of each pool level, labelled as RunResult::level_acc is.
struct LevelEntry {
  const char* label;
  std::size_t index;
};

std::vector<LevelEntry> level_heads(const afl::ModelPool& pool) {
  return {{"L1", pool.level_head_index(afl::Level::kLarge)},
          {"M1", pool.level_head_index(afl::Level::kMedium)},
          {"S1", pool.level_head_index(afl::Level::kSmall)}};
}

afl::Dataset client_shard(const afl::ExperimentEnv& env, std::size_t client) {
  const afl::Dataset* stored = env.data.stored_client(client);
  return stored ? *stored : env.data.materialize_client(client);
}

void bench_fl(const afl::ExperimentEnv& env, const afl::ModelPool& pool, Result& out) {
  const afl::Dataset shard = client_shard(env, 0);
  for (const LevelEntry& level : level_heads(pool)) {
    afl::Rng rng(env.config.seed);
    afl::Model model = pool.build(level.index, &rng);
    std::size_t seen = 0;
    const double train_s = median_call_s(
        [&] { seen = afl::local_train(model, shard, env.run.local, rng).samples_seen; });
    out.metrics[std::string("fl.local_train.samples_per_s.") + level.label] =
        static_cast<double>(seen) / train_s;
    const double eval_s =
        median_call_s([&] { afl::evaluate(model, env.data.test, env.run.eval_batch); });
    out.metrics[std::string("fl.evaluate.samples_per_s.") + level.label] =
        static_cast<double>(env.data.test.size()) / eval_s;
  }

  // Mixed-level updates, as a heterogeneous round returns them.
  afl::Rng rng(env.config.seed);
  const afl::ParamSet global = pool.build(pool.largest_index(), &rng).export_params();
  auto mixed_updates = [&](std::size_t n) {
    std::vector<afl::ClientUpdate> updates;
    for (std::size_t i = 0; i < n; ++i) {
      updates.push_back({pool.split(global, i % pool.size()),
                         env.config.samples_per_client, 1.0});
    }
    return updates;
  };
  const std::vector<afl::ClientUpdate> eight = mixed_updates(8);
  out.metrics["fl.hetero_aggregate_ms"] =
      1e3 * median_call_s([&] { afl::hetero_aggregate(global, eight); });

  const std::vector<afl::ClientUpdate> sixteen = mixed_updates(16);
  out.metrics["fl.shard_merge_ms"] = 1e3 * median_call_s([&] {
    std::vector<afl::ShardAggregator> shards;
    for (int s = 0; s < 8; ++s) shards.emplace_back(global);
    for (std::size_t i = 0; i < sixteen.size(); ++i) shards[i % shards.size()].add(sixteen[i]);
    afl::ShardPartial root = shards[0].take_partial();
    for (std::size_t s = 1; s < shards.size(); ++s) {
      afl::merge_partials(root, shards[s].take_partial());
    }
    afl::finalize_partial(root, global);
  });

  double split_s = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    split_s += median_call_s([&] { pool.split(global, i); });
  }
  out.metrics["prune.split_us"] = 1e6 * split_s / static_cast<double>(pool.size());
}

void bench_nn_and_kernels(const afl::ExperimentEnv& env, const afl::ModelPool& pool,
                          Result& out) {
  const std::size_t batch = env.run.local.batch_size;
  afl::Rng rng(env.config.seed);
  afl::Model model = pool.build(pool.largest_index(), &rng);

  // Forward the batch through the pipeline once to get every layer's input.
  std::vector<afl::Tensor> inputs;
  afl::Tensor x = afl::Tensor::randn(
      {batch, env.spec.in_channels, env.spec.in_h, env.spec.in_w}, rng);
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    inputs.push_back(x);
    x = model.layer(i).forward(x, false);
  }
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    afl::Layer& layer = model.layer(i);
    if (layer.kind() != "conv2d" && layer.kind() != "linear") continue;
    const afl::Tensor out_probe = layer.forward(inputs[i], false);
    const afl::Tensor grad = afl::Tensor::randn(out_probe.shape(), rng);
    std::vector<double> fwd, bwd;
    const Clock::time_point start = Clock::now();
    while (fwd.size() < kMinCalls || since(start) < kBudgetS) {
      Clock::time_point t0 = Clock::now();
      layer.forward(inputs[i], true);
      fwd.push_back(since(t0));
      t0 = Clock::now();
      layer.backward(grad);
      bwd.push_back(since(t0));
    }
    const std::string name = "nn." + model.layer_name(i);
    out.metrics[name + ".fwd_us"] = 1e6 * median(fwd);
    out.metrics[name + ".bwd_us"] = 1e6 * median(bwd);
  }

  // Kernels at every conv shape of the same model and batch, called the way
  // Conv2D calls them; rates are total work over total median time.
  double flops = 0.0, gemm_s = 0.0, gemm_at_s = 0.0, gemm_bt_s = 0.0;
  double bytes = 0.0, im2col_s = 0.0, col2im_s = 0.0;
  for (const ConvShape& c : conv_shapes(model, env.spec, batch)) {
    const std::size_t m = c.gemm_m(), k = c.gemm_k(), n = c.gemm_n();
    const std::vector<float> w = random_floats(m * k, rng);
    const std::vector<float> cols = random_floats(k * n, rng);
    const std::vector<float> gout = random_floats(m * n, rng);
    std::vector<float> out_mn(m * n), out_mk(m * k), out_kn(k * n);
    flops += c.gemm_flops();
    gemm_s += median_call_s([&] { afl::gemm(w.data(), cols.data(), out_mn.data(), m, k, n); });
    gemm_bt_s += median_call_s(
        [&] { afl::gemm_bt(gout.data(), cols.data(), out_mk.data(), m, n, k, true); });
    gemm_at_s += median_call_s(
        [&] { afl::gemm_at(w.data(), gout.data(), out_kn.data(), k, m, n); });

    const afl::ConvGeom& g = c.geom;
    const std::size_t plane = g.channels * g.height * g.width;
    const std::vector<float> images = random_floats(c.batch * plane, rng);
    std::vector<float> grad_images(c.batch * plane);
    bytes += 4.0 * static_cast<double>(c.batch * plane + k * n);
    im2col_s += median_call_s([&] {
      for (std::size_t b = 0; b < c.batch; ++b) {
        afl::im2col_strided(images.data() + b * plane, g, out_kn.data(), n,
                            b * g.col_cols());
      }
    });
    col2im_s += median_call_s(
        [&] {
          for (std::size_t b = 0; b < c.batch; ++b) {
            afl::col2im_strided(cols.data(), g, grad_images.data() + b * plane, n,
                                b * g.col_cols());
          }
        },
        [&] { std::fill(grad_images.begin(), grad_images.end(), 0.0f); });
  }
  out.metrics["tensor.gemm.gflops"] = flops / gemm_s * 1e-9;
  out.metrics["tensor.gemm_at.gflops"] = flops / gemm_at_s * 1e-9;
  out.metrics["tensor.gemm_bt.gflops"] = flops / gemm_bt_s * 1e-9;
  out.metrics["tensor.im2col.gbps"] = bytes / im2col_s * 1e-9;
  out.metrics["tensor.col2im.gbps"] = bytes / col2im_s * 1e-9;
}

void bench_rl_and_data(const afl::ExperimentEnv& env, const afl::ModelPool& pool,
                       Result& out) {
  constexpr std::size_t kClients = 100000;
  const afl::ClientSelector selector(pool, kClients,
                                     afl::SelectionStrategy::kResourceCuriosity);
  const std::vector<bool> taken(kClients, false);
  afl::Rng rng(env.config.seed);
  double select_s = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    select_s += median_call_s([&] { selector.select(i, taken, rng); });
  }
  out.metrics["rl.select_us"] = 1e6 * select_s / static_cast<double>(pool.size());

  // The workload's own lazy population, or a lazy twin of its eager one.
  afl::FederatedDataset lazy;
  if (env.data.lazy()) {
    lazy = env.data;
  } else {
    afl::Rng task_rng(env.config.seed);
    afl::FederatedConfig fed;
    fed.num_clients = env.config.num_clients;
    fed.samples_per_client = env.config.samples_per_client;
    fed.test_samples = 1;
    lazy = afl::make_federated_lazy(
        std::make_shared<const afl::SyntheticTask>(
            afl::SyntheticConfig::cifar10_like(env.config.image_hw), task_rng),
        fed, env.config.seed);
  }
  std::size_t client = 0;
  out.metrics["data.materialize_client_us"] = 1e6 * median_call_s([&] {
    lazy.materialize_client(client);
    client = (client + 1) % lazy.num_clients();
  });
}

void bench_net_and_compress(const afl::ExperimentEnv& env, const afl::ModelPool& pool,
                            Result& out) {
  using afl::net::Codec;
  afl::Rng rng(env.config.seed);
  const afl::ParamSet global = pool.build(pool.largest_index(), &rng).export_params();
  const double mb = 4.0 * static_cast<double>(afl::param_count(global)) * 1e-6;

  for (const Codec codec : {Codec::kFp16, Codec::kTopK10}) {
    afl::net::FrameHeader header;
    header.kind = afl::net::codec_is_sparse(codec) ? afl::net::FrameKind::kReturn
                                                   : afl::net::FrameKind::kDispatch;
    header.codec = codec;
    const std::string name = afl::net::codec_name(codec);
    std::vector<std::uint8_t> frame;
    out.metrics["net.encode_mbps." + name] =
        mb / median_call_s([&] { frame = afl::net::encode_frame(header, global); });
    out.metrics["net.decode_mbps." + name] =
        mb / median_call_s([&] { afl::net::decode_frame(frame); });
  }
  afl::net::FrameHeader down;
  down.kind = afl::net::FrameKind::kDispatch;
  down.codec = Codec::kFp16;
  out.metrics["net.bytes_down_per_dispatch"] =
      static_cast<double>(afl::net::encode_frame(down, global).size());

  // An update a small step away from the global model, sparsified with
  // error feedback exactly as the async-net uplink does.
  afl::net::NetConfig net;
  net.enabled = true;
  net.codec = Codec::kFp16;
  net.uplink_codec = Codec::kTopK10;
  const afl::net::Transport transport(net, env.run.seed);
  afl::compress::Compressor compressor(transport, afl::compress::CompressConfig{});
  afl::ParamSet trained = global;
  for (auto& [name, t] : trained) {
    for (std::size_t i = 0; i < t.numel(); ++i) {
      t.data()[i] += static_cast<float>(0.01 * rng.normal());
    }
  }
  afl::ParamSet update = trained;
  compressor.encode_update(0, update, global);
  afl::net::FrameHeader up;
  up.kind = afl::net::FrameKind::kReturn;
  up.codec = Codec::kTopK10;
  out.metrics["net.bytes_up_per_update"] =
      static_cast<double>(afl::net::encode_frame(up, update).size());
  out.metrics["compress.encode_update_us"] =
      1e6 * median_call_s([&] { compressor.encode_update(0, update, global); },
                          [&] { update = trained; });
}

}  // namespace

std::vector<ConvShape> conv_shapes(afl::Model& model, const afl::ArchSpec& spec,
                                   std::size_t batch) {
  std::vector<ConvShape> shapes;
  afl::Tensor x = afl::Tensor::zeros({batch, spec.in_channels, spec.in_h, spec.in_w});
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    afl::Tensor y = model.layer(i).forward(x, false);
    if (auto* conv = dynamic_cast<afl::Conv2D*>(&model.layer(i))) {
      const std::string& name = model.layer_name(i);
      const afl::Unit* unit = nullptr;
      for (std::size_t j = 1; j <= spec.num_units(); ++j) {
        if (afl::ArchSpec::unit_name(j) == name) unit = &spec.units[j - 1];
      }
      if (unit == nullptr) throw std::logic_error("conv_shapes: no spec unit " + name);
      ConvShape c;
      c.layer = name;
      c.geom = {conv->in_channels(), x.dim(2), x.dim(3), conv->weight().dim(2),
                unit->stride, unit->pad};
      c.out_c = conv->out_channels();
      c.batch = x.dim(0);
      if (y.dim(1) != c.out_c || y.dim(2) != c.geom.out_h() || y.dim(3) != c.geom.out_w()) {
        throw std::logic_error("conv_shapes: geometry of " + name +
                               " disagrees with its forward output");
      }
      shapes.push_back(c);
    }
    x = std::move(y);
  }
  return shapes;
}

void run_layer_benchmarks(const afl::ExperimentEnv& env, Result& result) {
  const afl::ModelPool pool(env.spec, env.pool_config);
  bench_fl(env, pool, result);
  bench_nn_and_kernels(env, pool, result);
  bench_rl_and_data(env, pool, result);
  bench_net_and_compress(env, pool, result);
}

}  // namespace perfbench

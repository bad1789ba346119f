#pragma once
// Per-layer measurements of a traced run: each times calls into one module's
// public functions from the benchmark's own code, on inputs shaped by the
// workload (its L1 model, batch sizes, codecs), single-threaded.

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics.hpp"
#include "tensor/im2col.hpp"

namespace perfbench {

/// One Conv2D layer of a model as it runs on a batch.
struct ConvShape {
  std::string layer;   // the model's layer name, e.g. "u3"
  afl::ConvGeom geom;  // per-sample input geometry
  std::size_t out_c = 0;
  std::size_t batch = 0;

  // The three GEMMs of a conv training step, as Conv2D calls them.
  std::size_t gemm_m() const { return out_c; }
  std::size_t gemm_k() const { return geom.col_rows(); }
  std::size_t gemm_n() const { return batch * geom.col_cols(); }
  double gemm_flops() const { return 2.0 * double(gemm_m()) * double(gemm_k()) * double(gemm_n()); }
};

/// The Conv2D layers of `model`, in pipeline order, with the geometry a batch
/// of `batch` images of the spec's input size meets when it flows through
/// the model. Channels and kernel come from the layer, stride and padding
/// from the spec unit of the same name; throws std::logic_error when the two
/// disagree with the shapes the forward pass produces.
std::vector<ConvShape> conv_shapes(afl::Model& model, const afl::ArchSpec& spec,
                                   std::size_t batch);

/// Runs every per-layer benchmark except the engine and OS ones and stores
/// the metrics in `result`.
void run_layer_benchmarks(const afl::ExperimentEnv& env, Result& result);

}  // namespace perfbench

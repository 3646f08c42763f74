// The public-API pipelines the workloads time: capture + compile, TRTSim
// lowering and int8 post-training quantization. Every call into the library
// is wrapped in a span named after the layer that does the work.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/graph_module.h"
#include "core/module.h"
#include "core/plan_cache.h"
#include "trt/lower.h"

namespace fxbench {

namespace fx = fxcpp::fx;
namespace nn = fxcpp::nn;

// A model of a workload: how to build it and what to feed it.
struct ModelSpec {
  std::string name;
  std::function<nn::Module::Ptr()> build;  // fresh instance, fixed weights
  std::vector<std::string> input_names;
  std::vector<Tensor> inputs;             // example inputs (from --seed)
  bool single_tensor_input() const { return inputs.size() == 1; }
};

// Builds a fresh model whose weights depend only on `weight_seed`; batch
// norm statistics are randomized (seeded) so Conv-BN folding and the
// references do real work.
nn::Module::Ptr build_model(const std::function<nn::Module::Ptr()>& factory,
                            std::uint64_t weight_seed);

// Eager forward of the (uncaptured) module.
Tensor eager_forward(nn::Module& m, const std::vector<Tensor>& inputs);

// symbolic_trace -> fuse_conv_bn -> fuse_linear_relu -> compile_planned ->
// Verifier. Passes rewrite the traced-from module, so give it a fresh one.
struct Compiled {
  std::shared_ptr<fx::GraphModule> gm;
  std::int64_t ir_nodes = 0;     // right after capture
  std::int64_t instrs = 0;       // tape instructions after the pipeline
  std::int64_t fusions = 0;      // conv-bn + linear-relu rewrites
  // Verifier findings on the result, each "<rule>: <message>".
  std::vector<std::string> diagnostics;
  double arena_mb = 0.0;         // planned arena of the example shape
};
// The Verifier's findings joined by "; " (empty when there are none).
std::string diagnostics_text(const Compiled& c);

Compiled compile_pipeline(nn::Module::Ptr model, const ModelSpec& spec,
                          const fx::PlanCacheOptions* cache = nullptr);

// symbolic_trace -> trt::lower_to_trtsim at the example shape.
struct Lowered {
  std::shared_ptr<fx::GraphModule> gm;
  std::int64_t plan_ops = 0;
  double arena_mb = 0.0;
};
Lowered lower_trt(nn::Module::Ptr model, const ModelSpec& spec);

// symbolic_trace -> quant::prepare -> calibrate -> convert.
struct Quantized {
  std::shared_ptr<fx::GraphModule> gm;
  std::int64_t ops_converted = 0;
};
Quantized quantize(nn::Module::Ptr model, const ModelSpec& spec,
                   const std::vector<Tensor>& calibration);

// One inference on each engine. `hooks` is null with tracing off.
Tensor run_fp32(fx::GraphModule& gm, const std::vector<Tensor>& in,
                fx::ExecHooks* hooks);
Tensor run_trt(fx::GraphModule& gm, const Tensor& in);
Tensor run_int8(fx::GraphModule& gm, const Tensor& in, fx::ExecHooks* hooks);

}  // namespace fxbench

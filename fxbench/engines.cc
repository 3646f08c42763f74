#include "engines.h"

#include "analysis/verifier.h"
#include "core/tracer.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"
#include "quant/quantize.h"
#include "runtime/rng.h"

namespace fxbench {

nn::Module::Ptr build_model(const std::function<nn::Module::Ptr()>& factory,
                            std::uint64_t weight_seed) {
  fxcpp::rt::Rng::global().reseed(weight_seed);
  nn::Module::Ptr m = factory();
  fxcpp::rt::Rng rng(weight_seed ^ 0xB4B4B4B4ull);
  auto fill = [](Tensor t, auto gen) {
    float* p = t.data<float>();
    for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = static_cast<float>(gen());
  };
  for (auto& [name, t] : m->named_state()) {
    auto ends = [&](const char* s) {
      const std::string suf(s);
      return name.size() >= suf.size() &&
             name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
    };
    if (ends("running_mean")) {
      fill(t, [&] { return 0.1 * rng.normal(); });
    } else if (ends("running_var")) {
      fill(t, [&] { return rng.uniform(0.5, 1.5); });
    } else if (name.find("bn") != std::string::npos ||
               name.find("downsample.1") != std::string::npos) {
      // BatchNorm affine parameters (weight / bias).
      if (ends("weight")) fill(t, [&] { return rng.uniform(0.5, 1.5); });
      if (ends("bias")) fill(t, [&] { return 0.1 * rng.normal(); });
    }
  }
  return m;
}

Tensor eager_forward(nn::Module& m, const std::vector<Tensor>& inputs) {
  std::vector<fx::Value> in;
  for (const Tensor& t : inputs) in.emplace_back(t);
  return m(in).tensor();
}

std::string diagnostics_text(const Compiled& c) {
  std::string out;
  for (const std::string& d : c.diagnostics) out += (out.empty() ? "" : "; ") + d;
  return out;
}

Compiled compile_pipeline(nn::Module::Ptr model, const ModelSpec& spec,
                          const fx::PlanCacheOptions* cache) {
  Compiled c;
  {
    Scope s("core.trace");
    c.gm = fxcpp::fx::symbolic_trace(std::move(model), spec.input_names);
  }
  c.ir_nodes = ir_nodes(*c.gm);
  {
    Scope s("passes.fuse_conv_bn");
    c.fusions += fxcpp::passes::fuse_conv_bn(*c.gm);
  }
  {
    Scope s("passes.fuse_linear_relu");
    c.fusions += fxcpp::passes::fuse_linear_relu(*c.gm);
  }
  {
    Scope s("passes.compile_planned");
    const fx::TapePlan& plan =
        cache ? fxcpp::passes::compile_planned(*c.gm, spec.inputs, *cache)
              : fxcpp::passes::compile_planned(*c.gm, spec.inputs);
    c.arena_mb = static_cast<double>(plan.arena_bytes) / (1024.0 * 1024.0);
  }
  {
    Scope s("analysis.verify");
    for (const auto& d : fxcpp::analysis::verify(*c.gm).diagnostics)
      c.diagnostics.push_back(d.rule + ": " + d.message);
  }
  c.instrs = tape_instrs(*c.gm);
  return c;
}

Lowered lower_trt(nn::Module::Ptr model, const ModelSpec& spec) {
  Scope s("trt.lower");
  Lowered l;
  auto gm = fxcpp::fx::symbolic_trace(std::move(model), spec.input_names);
  auto lowered = fxcpp::trt::lower_to_trtsim(gm, spec.inputs.at(0));
  l.gm = lowered.module;
  for (const auto& st : lowered.engine_stats) {
    l.plan_ops += st.plan_ops;
    l.arena_mb += static_cast<double>(st.arena_bytes) / (1024.0 * 1024.0);
  }
  return l;
}

Quantized quantize(nn::Module::Ptr model, const ModelSpec& spec,
                   const std::vector<Tensor>& calibration) {
  Quantized q;
  q.gm = fxcpp::fx::symbolic_trace(std::move(model), spec.input_names);
  {
    Scope s("quant.prepare");
    fxcpp::quant::prepare(*q.gm);
  }
  {
    Scope s("quant.calibrate");
    fxcpp::quant::calibrate(*q.gm, calibration);
  }
  {
    Scope s("quant.convert");
    q.ops_converted = fxcpp::quant::convert(*q.gm);
  }
  if (!q.gm->compiled()) q.gm->recompile();
  return q;
}

Tensor run_fp32(fx::GraphModule& gm, const std::vector<Tensor>& in,
                fx::ExecHooks* hooks) {
  std::vector<fx::RtValue> args(in.begin(), in.end());
  return fx::rt_tensor(gm.run_planned(std::move(args), hooks).at(0));
}

Tensor run_trt(fx::GraphModule& gm, const Tensor& in) { return gm.run(in); }

Tensor run_int8(fx::GraphModule& gm, const Tensor& in, fx::ExecHooks* hooks) {
  return fx::rt_tensor(gm.compiled_graph().run({fx::RtValue(in)}, hooks).at(0));
}

}  // namespace fxbench

#include "common.h"

#include <cstdio>

namespace fxbench {

void emit_per_layer(const Ledger& l, Result& r) {
  // The end-to-end figures of a traced run, against those of an untraced
  // run of the same seed, give the tracing overhead.
  std::string e2e = "end-to-end under tracing:";
  for (const auto& [name, m] : r.metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s=%.6g", name.c_str(), m.value);
    e2e += buf;
  }
  r.notes.push_back(e2e);
  r.metrics.clear();

  const SpanLog& log = SpanLog::get();
  const double mb = 1024.0 * 1024.0;
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double runs = static_cast<double>(l.fp32_runs);

  r.set("core.trace_ms", log.mean_ms("core.trace"), "ms");
  r.set("core.ir_nodes", static_cast<double>(l.ir_nodes), "count");
  const double node_s = l.fp32 ? l.fp32->node_s() : 0.0;
  r.set("core.dispatch_overhead_ms", ratio(l.fp32_wall_s - node_s, runs) * 1e3,
        "ms");
  r.set("core.plan_cache.hits", static_cast<double>(l.plan_hits), "count");
  r.set("core.plan_cache.misses", static_cast<double>(l.plan_misses), "count");
  r.set("core.plan_cache.hit_ratio",
        ratio(static_cast<double>(l.plan_hits),
              static_cast<double>(l.plan_hits + l.plan_misses)),
        "ratio");
  r.set("core.replans", static_cast<double>(l.replans), "count");

  r.set("passes.fuse_conv_bn_ms", log.mean_ms("passes.fuse_conv_bn"), "ms");
  r.set("passes.fuse_linear_relu_ms", log.mean_ms("passes.fuse_linear_relu"),
        "ms");
  r.set("passes.compile_planned_ms", log.mean_ms("passes.compile_planned"),
        "ms");
  r.set("passes.fusions_applied", static_cast<double>(l.fusions), "count");
  r.set("passes.arena_mb", l.arena_mb, "MB");
  r.set("analysis.verify_ms", log.mean_ms("analysis.verify"), "ms");

  for (int c = 0; c < static_cast<int>(OpCat::kCount); ++c) {
    const auto cat = static_cast<OpCat>(c);
    double v = 0.0;
    if (cat == OpCat::Quantized) {
      if (l.int8 && l.int8->runs() > 0)
        v = l.int8->cat_s(cat) / static_cast<double>(l.int8->runs());
    } else if (l.fp32) {
      v = ratio(l.fp32->cat_s(cat), runs);
    }
    r.set(std::string("ops.") + opcat_name(cat) + "_ms", v * 1e3, "ms");
  }
  const double gemm_s = l.fp32 ? l.fp32->cat_s(OpCat::Conv) +
                                     l.fp32->cat_s(OpCat::Linear)
                               : 0.0;
  r.set("kernels.gemm_gflops",
        ratio(l.fp32 ? l.fp32->gemm_flops() : 0.0, gemm_s) * 1e-9, "GFLOP/s");
  const Counters& k = l.loop_counters;
  r.set("kernels.pack.hits", static_cast<double>(k.pack_hits), "count");
  r.set("kernels.pack.misses", static_cast<double>(k.pack_misses), "count");
  r.set("kernels.panel.hits", static_cast<double>(k.panel_hits), "count");
  r.set("kernels.panel.misses", static_cast<double>(k.panel_misses), "count");
  r.set("kernels.panel.hit_ratio",
        ratio(static_cast<double>(k.panel_hits),
              static_cast<double>(k.panel_hits + k.panel_misses)),
        "ratio");

  const Counters& t = l.fp32_counters;
  r.set("tensor.allocs_per_run", ratio(static_cast<double>(t.allocs), runs),
        "count");
  r.set("tensor.alloc_mb_per_run",
        ratio(static_cast<double>(t.alloc_bytes), runs) / mb, "MB");
  r.set("tensor.peak_live_mb", l.peak_live_mb, "MB");
  r.set("tensor.planner_served_mb",
        ratio(static_cast<double>(t.served_bytes), runs) / mb, "MB");

  r.set("serve.batches", static_cast<double>(l.batches), "count");
  r.set("serve.batch_requests_mean", l.batch_requests_mean, "count");
  r.set("serve.batch_rows_mean", l.batch_rows_mean, "count");
  r.set("serve.run_ms", l.serve_run_ms, "ms");
  r.set("serve.busy_share", l.busy_share, "ratio");
  r.set("serve.outside_run_ms", l.outside_run_ms, "ms");
  r.set("serve.generator_lag_ms", l.generator_lag_ms, "ms");
  r.set("resilience.retries", static_cast<double>(l.retries), "count");
  r.set("resilience.breaker_rejected", static_cast<double>(l.breaker_rejected),
        "count");
  r.set("resilience.degraded_rung_runs",
        static_cast<double>(l.degraded_rung_runs), "count");

  r.set("trt.lower_ms", log.mean_ms("trt.lower"), "ms");
  r.set("trt.plan_ops", static_cast<double>(l.trt_plan_ops), "count");
  r.set("trt.arena_mb", l.trt_arena_mb, "MB");
  r.set("quant.prepare_ms", log.mean_ms("quant.prepare"), "ms");
  r.set("quant.calibrate_ms", log.mean_ms("quant.calibrate"), "ms");
  r.set("quant.convert_ms", log.mean_ms("quant.convert"), "ms");
  r.set("quant.ops_converted", static_cast<double>(l.quant_ops), "count");
}

}  // namespace fxbench

// Workload resnet50_b1: ResNet-50 (width 64, 1000 classes) at batch 1 and
// 64x64, on three engines that take turns within the run:
//   fp32  symbolic_trace -> fuse_conv_bn -> compile_planned -> run_planned
//   trt   lower_to_trtsim -> engine run
//   int8  quantize (prepare, calibrate, convert) -> int8 run
// Each round starts with a fresh set-up of all three engines (setup_s),
// whose capture + compile gives compile_ms.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "engines.h"
#include "nn/models/resnet.h"
#include "reference.h"

namespace fxbench {

namespace {

constexpr std::int64_t kRes = 64;
constexpr std::uint64_t kWeightSeed = 50;
// Inferences per engine per round. Each engine's first inference of a
// round is timed like the others.
constexpr int kFp32PerRound = 6, kTrtPerRound = 2, kInt8PerRound = 6;
// Stated tolerances against the fp64 reference (relative max error).
constexpr double kFp32Tol = 1e-3;
constexpr double kInt8Tol = 0.05;  // plus: int8 top-1 within reference top-5

nn::Module::Ptr make_resnet50() {
  return build_model([] { return fxcpp::nn::models::resnet50(64, 1000); },
                     kWeightSeed);
}

std::int64_t argmax(const std::vector<double>& v) {
  return std::max_element(v.begin(), v.end()) - v.begin();
}

bool in_top5(const std::vector<double>& ref, std::int64_t idx) {
  std::int64_t greater = 0;
  for (double x : ref)
    if (x > ref[static_cast<std::size_t>(idx)]) ++greater;
  return greater < 5;
}

struct Engines {
  Compiled fp32;
  Lowered trt;
  Quantized int8;
};

}  // namespace

Result run_resnet50_b1(const Options& opt) {
  Result r;
  ModelSpec spec;
  spec.name = "resnet50";
  spec.input_names = {"x"};
  spec.inputs = {seeded_normal(opt.seed * 7919 + 1, {1, 3, kRes, kRes})};
  std::vector<Tensor> calibration;
  for (int i = 0; i < 4; ++i)
    calibration.push_back(
        seeded_normal(opt.seed * 7919 + 100 + static_cast<std::uint64_t>(i),
                      {1, 3, kRes, kRes}));
  const Tensor& x = spec.inputs[0];

  // Set-up: build, capture, compile, lower, quantize and warm up. It runs
  // before the first round and again at the start of every later one, so
  // that its samples cover the whole run and not only the host's state in
  // its first seconds; setup_s is their median, and the capture + compile
  // inside each set-up gives compile_ms. Each engine gets its own model
  // instance because the passes rewrite the module they were traced from.
  std::vector<double> setup_s, compile_s;
  std::unique_ptr<Engines> e;
  Tensor y_fp32, y_trt, y_int8;  // the first set-up's outputs
  auto set_up = [&](std::uint64_t id) {
    e.reset();  // one model set alive at a time
    Scope s("setup", id);
    const double t0 = now_s();
    auto fresh = std::make_unique<Engines>();
    auto model = make_resnet50();
    const double tc = now_s();
    fresh->fp32 = compile_pipeline(std::move(model), spec);
    compile_s.push_back(now_s() - tc);
    fresh->trt = lower_trt(make_resnet50(), spec);
    fresh->int8 = quantize(make_resnet50(), spec, calibration);
    const Tensor a = run_fp32(*fresh->fp32.gm, spec.inputs, nullptr);
    const Tensor b = run_trt(*fresh->trt.gm, x);
    const Tensor c = run_int8(*fresh->int8.gm, x, nullptr);
    setup_s.push_back(now_s() - t0);
    e = std::move(fresh);
    ++r.attempted;  // the compile
    r.check(e->fp32.diagnostics.empty(),
            "Verifier on compiled ResNet-50: " + diagnostics_text(e->fp32));
    if (!y_fp32.defined()) {
      y_fp32 = a, y_trt = b, y_int8 = c;
      return;
    }
    r.check(bit_equal(a, y_fp32), "set-up fp32 output differs from the first set-up's");
    r.check(bit_equal(b, y_trt), "set-up TRTSim output differs from the first set-up's");
    r.check(bit_equal(c, y_int8), "set-up int8 output differs from the first set-up's");
  };
  set_up(0);

  NodeHooks fp32_hooks(e->fp32.gm.get()), int8_hooks(e->int8.gm.get());
  const bool tr = opt.trace;
  Ledger led;
  led.fp32 = &fp32_hooks;
  led.int8 = &int8_hooks;

  std::vector<double> fp32_s, trt_s, int8_s;
  std::int64_t mismatches = 0, failures = 0;
  std::uint64_t id = 0;
  const Counters loop0 = Counters::read();
  const double deadline = now_s() + opt.seconds;
  for (std::uint64_t round = 0; round == 0 || now_s() < deadline; ++round) {
    Scope rs("round", round);
    if (round > 0) {
      fp32_hooks.forget();
      int8_hooks.forget();
      set_up(round);
      fp32_hooks.bind(e->fp32.gm.get());
      int8_hooks.bind(e->int8.gm.get());
    }
    led.ir_nodes = e->fp32.ir_nodes;
    led.fusions = e->fp32.fusions;
    led.arena_mb = e->fp32.arena_mb;
    auto timed = [&](std::vector<double>& out, const char* span, auto fn,
                     const Tensor& expect) {
      try {
        Scope s(span, ++id);
        const double t0 = now_s();
        Tensor y = fn();
        out.push_back(now_s() - t0);
        if (!bit_equal(y, expect)) ++mismatches;
      } catch (const std::exception& ex) {
        ++failures;
        r.notes.push_back(std::string(span) + " failed: " + ex.what());
      }
      ++r.attempted;
    };
    for (int i = 0; i < kFp32PerRound; ++i) {
      Counters c0;
      if (tr) {
        fxcpp::Storage::reset_peak();
        c0 = Counters::read();
      }
      const std::size_t before = fp32_s.size();
      timed(fp32_s, "core.run_planned",
            [&] { return run_fp32(*e->fp32.gm, spec.inputs, tr ? &fp32_hooks : nullptr); },
            y_fp32);
      if (tr && fp32_s.size() > before) {
        led.fp32_counters += Counters::read() - c0;
        led.fp32_wall_s += fp32_s.back();
        ++led.fp32_runs;
        led.peak_live_mb = std::max(
            led.peak_live_mb,
            static_cast<double>(fxcpp::Storage::peak_bytes()) / (1024.0 * 1024.0));
      }
    }
    for (int i = 0; i < kTrtPerRound; ++i)
      timed(trt_s, "trt.run", [&] { return run_trt(*e->trt.gm, x); }, y_trt);
    for (int i = 0; i < kInt8PerRound; ++i)
      timed(int8_s, "quant.run",
            [&] { return run_int8(*e->int8.gm, x, tr ? &int8_hooks : nullptr); },
            y_int8);
  }
  led.loop_counters = Counters::read() - loop0;
  r.failed += failures;
  r.expect(mismatches == 0, "every inference equals its engine's first output");

  // Peak RSS before the benchmark's own reference computation.
  const double rss = peak_rss_mb();

  // fp64 reference on a pristine model instance.
  auto pristine = make_resnet50();
  const ref::Array ref_out = ref::resnet50(*pristine, ref::from_tensor(x));
  const double e32 = rel_max_err(y_fp32, ref_out.v);
  const double etrt = rel_max_err(y_trt, ref_out.v);
  const double e8 = rel_max_err(y_int8, ref_out.v);
  const std::int64_t top_ref = argmax(ref_out.v);
  const std::int64_t top8 = argmax(to_double(y_int8));
  r.check(e32 <= kFp32Tol, "fp32 planned vs fp64 reference");
  r.check(etrt <= kFp32Tol, "TRTSim vs fp64 reference");
  r.check(e8 <= kInt8Tol && in_top5(ref_out.v, top8), "int8 vs fp64 reference");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "reference: rel max err fp32 %.2e trt %.2e int8 %.3f; top-1 "
                "ref %lld int8 %lld",
                e32, etrt, e8, static_cast<long long>(top_ref),
                static_cast<long long>(top8));
  r.notes.push_back(buf);

  if (auto pc = e->fp32.gm->plan_cache()) {
    const auto st = pc->stats();
    led.plan_hits = st.hits;
    led.plan_misses = st.misses;
    led.replans = st.replans;
  }
  led.trt_plan_ops = e->trt.plan_ops;
  led.trt_arena_mb = e->trt.arena_mb;
  led.quant_ops = e->int8.ops_converted;

  double total_fp32 = 0.0;
  for (double s : fp32_s) total_fp32 += s;
  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", rss, "MB");
  r.set("latency_p50_ms", median(fp32_s) * 1e3, "ms");
  r.set("trt_p50_ms", median(trt_s) * 1e3, "ms");
  r.set("int8_p50_ms", median(int8_s) * 1e3, "ms");
  r.set("throughput_rps",
        total_fp32 > 0 ? static_cast<double>(fp32_s.size()) / total_fp32 : 0.0,
        "1/s");
  r.set("compile_ms", median(compile_s) * 1e3, "ms");
  r.set("code_size_instrs", static_cast<double>(e->fp32.instrs),
        "count");
  if (tr) emit_per_layer(led, r);
  std::snprintf(buf, sizeof(buf),
                "samples: set-up %zu fp32 %zu trt %zu int8 %zu",
                setup_s.size(), fp32_s.size(), trt_s.size(), int8_s.size());
  r.notes.push_back(buf);
  return r;
}

}  // namespace fxbench

// Workload compile_zoo: rounds of capture + compile over the model zoo with
// tiny example inputs. Each round sets the zoo up afresh (setup_s; the
// passes rewrite the module they were traced from), timing
// symbolic_trace -> fuse_conv_bn -> fuse_linear_relu -> compile_planned ->
// Verifier over the whole zoo (compile_ms), checks every compiled module
// against the module's own eager forward, and times warm passes of the
// compiled zoo (latency_p50_ms) and of its TRTSim / int8 versions.
#include <cstdio>

#include "common.h"
#include "engines.h"
#include "nn/models/deep_recommender.h"
#include "nn/models/dlrm.h"
#include "nn/models/learning_to_paint.h"
#include "nn/models/resnet.h"
#include "nn/models/transformer.h"
#include "runtime/rng.h"

namespace fxbench {

namespace {

namespace models = fxcpp::nn::models;

constexpr std::uint64_t kWeightSeed = 7;
constexpr int kPasses = 4;         // timed passes per engine per round
constexpr double kFp32Tol = 1e-4;  // vs eager, relative max error
constexpr double kInt8Tol = 0.1;   // int8 vs eager, relative max error

std::vector<ModelSpec> zoo(std::uint64_t seed) {
  std::vector<ModelSpec> z;
  auto in = [&](fxcpp::Shape s) {
    return seeded_normal(seed * 104729 + z.size(), std::move(s));
  };
  z.push_back({"resnet18", [] { return models::resnet18(16, 10); }, {"x"},
               {in({1, 3, 32, 32})}});
  z.push_back({"resnet50", [] { return models::resnet50(16, 10); }, {"x"},
               {in({1, 3, 32, 32})}});
  z.push_back({"transformer",
               [] { return models::transformer_encoder_layer(64, 128); },
               {"x"}, {in({16, 64})}});
  z.push_back({"learning_to_paint",
               [] { return models::learning_to_paint_actor({9, 65, 16}); },
               {"x"}, {in({1, 9, 32, 32})}});
  z.push_back({"deep_recommender",
               [] {
                 models::DeepRecommenderConfig c;
                 c.item_dim = 256;
                 c.hidden = {64, 64, 128};
                 return models::deep_recommender(c);
               },
               {"x"}, {in({1, 256})}});
  {
    models::DlrmConfig cfg;
    ModelSpec d{"dlrm", [cfg] { return models::dlrm(cfg); }, {"dense"},
                {in({2, cfg.dense_dim})}};
    fxcpp::rt::Rng rng(seed * 15485863);
    for (std::size_t t = 0; t < cfg.table_sizes.size(); ++t) {
      Tensor idx(fxcpp::Shape{2}, fxcpp::DType::Int64);
      for (std::int64_t i = 0; i < 2; ++i)
        idx.set_flat(i, static_cast<double>(rng.randint(0, cfg.table_sizes[t] - 1)));
      d.input_names.push_back("idx" + std::to_string(t));
      d.inputs.push_back(idx);
    }
    z.push_back(std::move(d));
  }
  return z;
}

// Verifier findings known to be false: the gradual type checker behind
// meta.type-conflict has no transfer for transpose or Embedding, so it
// reports a conflict on these two correct graphs (see README.md). Their
// Verifier passes count as failed operations; any other finding fails the
// run.
bool known_false_finding(const std::string& model,
                         const std::vector<std::string>& diagnostics) {
  const char* expected = model == "transformer" ? "matmul: expected dim -1 == 16, got 64"
                         : model == "dlrm"      ? "cat: rank mismatch"
                                                : nullptr;
  if (expected == nullptr || diagnostics.empty()) return false;
  for (const std::string& d : diagnostics)
    if (d.rfind("meta.type-conflict: ", 0) != 0 ||
        d.find(expected) == std::string::npos)
      return false;
  return true;
}

nn::Module::Ptr make(const ModelSpec& m) { return build_model(m.build, kWeightSeed); }

struct Member {
  Tensor eager;  // eager forward of a pristine instance
  Compiled compiled;
  std::shared_ptr<fx::GraphModule> trt, int8;  // single-input members only
  Tensor y_fp32, y_trt, y_int8;                // warm-up outputs
};

}  // namespace

Result run_compile_zoo(const Options& opt) {
  Result r;
  const bool tr = opt.trace;
  const std::vector<ModelSpec> specs = zoo(opt.seed);

  // Set-up: build every member, take its eager forward, capture and compile
  // it, lower and quantize it, and warm each engine up. It runs at the start
  // of every round (the passes rewrite the module they were traced from, so
  // each compile needs fresh instances), so that its samples cover the whole
  // run; setup_s is their median, and the captures + compiles inside each
  // set-up give compile_ms.
  std::vector<double> setup_s, compile_s, pass_s, trt_s, int8_s;
  std::vector<Member> members;
  std::int64_t compiled_models = 0, mismatches = 0;
  Ledger led;
  auto set_up = [&](std::uint64_t id) {
    members.clear();
    Scope sc("setup", id);
    const double t0 = now_s();
    double compile = 0.0;
    members.resize(specs.size());
    led.trt_plan_ops = 0;
    led.trt_arena_mb = 0.0;
    led.quant_ops = 0;
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const ModelSpec& spec = specs[m];
      Member& mb = members[m];
      mb.eager = eager_forward(*make(spec), spec.inputs);
      auto model = make(spec);
      const double tc = now_s();
      mb.compiled = compile_pipeline(std::move(model), spec);
      compile += now_s() - tc;
      mb.y_fp32 = run_fp32(*mb.compiled.gm, spec.inputs, nullptr);
      if (spec.single_tensor_input()) {
        Lowered l = lower_trt(make(spec), spec);
        mb.trt = l.gm;
        led.trt_plan_ops += l.plan_ops;
        led.trt_arena_mb += l.arena_mb;
        Quantized q = quantize(make(spec), spec, {spec.inputs[0]});
        mb.int8 = q.gm;
        led.quant_ops += q.ops_converted;
        mb.y_trt = run_trt(*mb.trt, spec.inputs[0]);
        mb.y_int8 = run_int8(*mb.int8, spec.inputs[0], nullptr);
      }
    }
    setup_s.push_back(now_s() - t0);
    compile_s.push_back(compile);
    compiled_models += static_cast<std::int64_t>(specs.size());
    r.attempted += static_cast<std::int64_t>(specs.size());  // the compiles
  };
  NodeHooks hooks(nullptr);  // bound to each compiled module before its run
  std::int64_t code_size = 0;
  led.fp32 = &hooks;
  const Counters loop0 = Counters::read();
  const double deadline = now_s() + opt.seconds;
  for (std::uint64_t round = 0; round == 0 || now_s() < deadline; ++round) {
    Scope rs("round", round);
    hooks.forget();  // the last round's modules are about to go
    set_up(round);
    code_size = 0;
    led.ir_nodes = led.fusions = 0;
    led.arena_mb = 0.0;
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const Member& mb = members[m];
      const Compiled& c = mb.compiled;
      code_size += c.instrs;
      led.ir_nodes += c.ir_nodes;
      led.fusions += c.fusions;
      led.arena_mb += c.arena_mb;
      const std::string verdict =
          "Verifier on compiled " + specs[m].name + ": " + diagnostics_text(c);
      if (known_false_finding(specs[m].name, c.diagnostics))
        r.op(false, verdict);
      else
        r.check(c.diagnostics.empty(), verdict);
      const std::vector<double> eager = to_double(mb.eager);
      r.check(rel_max_err(mb.y_fp32, eager) <= kFp32Tol,
              specs[m].name + ": compiled vs eager forward");
      if (mb.trt) {
        r.check(rel_max_err(mb.y_trt, eager) <= kFp32Tol,
                specs[m].name + ": TRTSim vs eager forward");
        r.check(rel_max_err(mb.y_int8, eager) <= kInt8Tol,
                specs[m].name + ": int8 vs eager forward");
      }
    }
    for (int p = 0; p < kPasses; ++p) {
      Scope s("zoo.pass", round);
      double pass = 0.0;
      for (std::size_t m = 0; m < specs.size(); ++m) {
        const Counters c0 = tr ? Counters::read() : Counters{};
        if (tr) fxcpp::Storage::reset_peak();
        fx::GraphModule& gm = *members[m].compiled.gm;
        hooks.bind(&gm);
        Scope sr("core.run_planned");
        const double t0 = now_s();
        const Tensor y = run_fp32(gm, specs[m].inputs, tr ? &hooks : nullptr);
        const double dt = now_s() - t0;
        pass += dt;
        if (!bit_equal(y, members[m].y_fp32)) ++mismatches;
        if (tr) {
          led.fp32_counters += Counters::read() - c0;
          led.fp32_wall_s += dt;
          ++led.fp32_runs;
          led.peak_live_mb = std::max(
              led.peak_live_mb,
              static_cast<double>(fxcpp::Storage::peak_bytes()) / (1024.0 * 1024.0));
        }
      }
      pass_s.push_back(pass);
      r.attempted += static_cast<std::int64_t>(specs.size());
    }
    for (auto* out : {&trt_s, &int8_s}) {
      const bool is_trt = out == &trt_s;
      for (int p = 0; p < kPasses; ++p) {
        double pass = 0.0;
        for (std::size_t m = 0; m < specs.size(); ++m) {
          Member& mb = members[m];
          if (!mb.trt) continue;
          Scope s(is_trt ? "trt.run" : "quant.run");
          const double t0 = now_s();
          const Tensor y = is_trt ? run_trt(*mb.trt, specs[m].inputs[0])
                                  : run_int8(*mb.int8, specs[m].inputs[0], nullptr);
          pass += now_s() - t0;
          if (!bit_equal(y, is_trt ? mb.y_trt : mb.y_int8)) ++mismatches;
          ++r.attempted;
        }
        out->push_back(pass);
      }
    }
    if (tr) {
      for (std::size_t m = 0; m < specs.size(); ++m) {
        if (auto pc = members[m].compiled.gm->plan_cache()) {
          const auto ps = pc->stats();
          led.plan_hits += ps.hits;
          led.plan_misses += ps.misses;
          led.replans += ps.replans;
        }
      }
    }
  }
  r.expect(mismatches == 0, "every pass equals the round's warm-up output");
  const double rss = peak_rss_mb();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "samples: rounds %zu passes %zu trt %zu int8 %zu",
                compile_s.size(), pass_s.size(), trt_s.size(), int8_s.size());
  r.notes.push_back(buf);

  double total = 0.0;
  for (double x : compile_s) total += x;
  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", rss, "MB");
  r.set("latency_p50_ms", median(pass_s) * 1e3, "ms");
  r.set("trt_p50_ms", median(trt_s) * 1e3, "ms");
  r.set("int8_p50_ms", median(int8_s) * 1e3, "ms");
  r.set("throughput_rps", static_cast<double>(compiled_models) / total, "1/s");
  r.set("compile_ms", median(compile_s) * 1e3, "ms");
  r.set("code_size_instrs", static_cast<double>(code_size), "count");
  if (tr) {
    led.loop_counters = Counters::read() - loop0;
    emit_per_layer(led, r);
  }
  return r;
}

}  // namespace fxbench

// Workload mlp_serve: InferenceSession with dynamic batching over the deep
// narrow MLP (64 -> 8 x 64 -> 64). Each round runs
//   1. a closed loop: kCallers callers, each sending its next request when
//      its previous one is answered (throughput_rps, the median over rounds
//      of the requests completed per second);
//   2. an open loop: seeded Poisson arrivals at kRate requests/s, each
//      request timed from its due time until its response is in hand
//      (latency_p50_ms);
//   3. the same MLP, one request's rows, on TRTSim and int8 (trt_p50_ms,
//      int8_p50_ms);
//   4. set-ups of a fresh session with its engines, each replacing the
//      serving one (setup_s);
//   5. capture + compile of a fresh MLP (compile_ms, code_size_instrs).
// Requests draw a Zipf row count (serve::zipf_rows) and one of kKeys inputs
// per row count (serve::request_input), so every response can be compared
// bit for bit with a solo run_planned of the same input.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <set>

#include "common.h"
#include "engines.h"
#include "nn/models/mlp.h"
#include "openloop.h"
#include "reference.h"
#include "serve/loadgen.h"
#include "serve/session.h"

namespace fxbench {

namespace {

namespace serve = fxcpp::serve;

constexpr std::int64_t kFeat = 64;
constexpr int kLayers = 9;  // 64 -> 8 hidden x 64 -> 64
constexpr std::uint64_t kWeightSeed = 11;
// Set-ups per round, each replacing the serving session and its engines:
// with the one before the loop, setup_s is the median over set-ups spread
// across the whole run.
constexpr int kSetupsPerRound = 4;
// Closed-loop callers in flight. This thread, the session's batcher and its
// worker are the only busy threads: three, below nproc, so that a host that
// lends some of its cores elsewhere does not stretch every thread hand-off
// by a scheduler time slice.
constexpr int kCallers = 6;
constexpr double kClosedS = 0.5;  // per round
constexpr double kOpenS = 0.5;    // per round
constexpr double kRate = 10000.0;  // open-loop arrivals per second
constexpr std::int64_t kMaxRows = 8;
constexpr int kKeys = 16;         // distinct inputs per row count
constexpr int kEngineIters = 40;  // per engine per round
constexpr int kCompilesPerRound = 4;
constexpr int kSpanEvery = 64;  // traced runs keep spans of 1 batch / request in 64
constexpr double kRefTol = 1e-4;  // planned fp32 vs fp64, relative max error
constexpr double kInt8Tol = 0.05;

nn::Module::Ptr make_mlp() {
  return build_model(
      [] {
        std::vector<std::int64_t> dims(1, kFeat);
        dims.insert(dims.end(), 8, 64);
        dims.push_back(64);
        return fxcpp::nn::models::mlp(dims);
      },
      kWeightSeed);
}

std::uint32_t pool_index(std::int64_t rows, std::int64_t key) {
  return static_cast<std::uint32_t>((rows - 1) * kKeys + key);
}

std::uint32_t pick(fxcpp::rt::Rng& rng) {
  const std::int64_t rows = serve::zipf_rows(rng);
  return pool_index(rows, rng.randint(0, kKeys - 1));
}

struct Setup {
  Compiled fp32;
  std::unique_ptr<serve::InferenceSession> session;
  Lowered trt;
  Quantized int8;
};

}  // namespace

Result run_mlp_serve(const Options& opt) {
  Result r;
  const bool tr = opt.trace;

  // Input pool: kMaxRows x kKeys request tensors, made from --seed.
  std::vector<Tensor> pool;
  for (std::int64_t rows = 1; rows <= kMaxRows; ++rows)
    for (int k = 0; k < kKeys; ++k)
      pool.push_back(serve::request_input(
          opt.seed * 1000003 + static_cast<std::uint64_t>(pool.size()), rows,
          kFeat));

  ModelSpec spec;
  spec.name = "mlp";
  spec.input_names = {"x"};
  spec.inputs = {pool[pool_index(4, 0)]};
  ModelSpec one_row = spec;  // TRTSim and int8 are built for one row
  one_row.inputs = {pool[pool_index(1, 0)]};
  std::vector<Tensor> calibration;
  for (int k = 0; k < 4; ++k) calibration.push_back(pool[pool_index(8, k)]);

  fx::PlanCacheOptions cache;
  cache.bucket_batch_dim = true;
  cache.capacity = 8;
  serve::ServeOptions so;
  so.max_batch_rows = 16;
  so.max_queue_delay = std::chrono::microseconds(25);
  // Latency, not admission, is measured: a burst must queue, not be shed.
  so.max_queue_depth = 1u << 20;
  so.shed_low_watermark = so.shed_normal_watermark = so.max_queue_depth;

  std::unique_ptr<NodeHooks> hooks;
  std::vector<double> setup_s;
  // Set-up: compile, plan the batch buckets, start a session and warm it
  // up, lower and quantize. `node_hooks` observes the session's batches.
  auto set_up = [&](std::uint64_t id, NodeHooks* node_hooks) {
    Scope sc("setup", id);
    const double t0 = now_s();
    auto fresh = std::make_unique<Setup>();
    fresh->fp32 = compile_pipeline(make_mlp(), spec, &cache);
    // Plan every power-of-two bucket the traffic can produce.
    for (const std::int64_t rows : {1, 2, 4, 8, 16})
      run_fp32(*fresh->fp32.gm, {serve::request_input(0, rows, kFeat)}, nullptr);
    serve::ServeOptions o = so;
    if (node_hooks) {
      node_hooks->bind(fresh->fp32.gm.get());
      o.hooks = node_hooks;
    }
    fresh->session = std::make_unique<serve::InferenceSession>(fresh->fp32.gm, o);
    for (int w = 0; w < 8; ++w) fresh->session->run(pool[static_cast<std::size_t>(w)]);
    fresh->trt = lower_trt(make_mlp(), one_row);
    fresh->int8 = quantize(make_mlp(), one_row, calibration);
    run_trt(*fresh->trt.gm, one_row.inputs[0]);
    run_int8(*fresh->int8.gm, one_row.inputs[0], nullptr);
    setup_s.push_back(now_s() - t0);
    return fresh;
  };
  if (tr) hooks = std::make_unique<NodeHooks>(nullptr, "serve.run", kSpanEvery);
  std::unique_ptr<Setup> s = set_up(0, hooks.get());

  // Expected responses: a solo planned run of each pool input, itself
  // checked against the fp64 reference.
  std::vector<Tensor> expect;
  {
    auto pristine = make_mlp();
    for (const Tensor& in : pool) {
      expect.push_back(run_fp32(*s->fp32.gm, {in}, nullptr));
      const ref::Array ref_out = ref::mlp(*pristine, kLayers, ref::from_tensor(in));
      r.check(rel_max_err(expect.back(), ref_out.v) <= kRefTol,
              "solo planned MLP vs fp64 reference");
    }
  }
  const Tensor& x1 = one_row.inputs[0];
  const Tensor y_trt = run_trt(*s->trt.gm, x1);
  const Tensor y_int8 = run_int8(*s->int8.gm, x1, nullptr);
  {
    auto pristine = make_mlp();
    const ref::Array ref_out = ref::mlp(*pristine, kLayers, ref::from_tensor(x1));
    r.check(rel_max_err(y_trt, ref_out.v) <= kRefTol, "TRTSim MLP vs fp64 reference");
    r.check(rel_max_err(y_int8, ref_out.v) <= kInt8Tol, "int8 MLP vs fp64 reference");
  }

  Ledger led;
  led.fp32 = hooks.get();
  std::vector<double> open_lat, lag_all, open_total, trt_s, int8_s, compile_s;
  double closed_wall = 0.0, open_wall = 0.0;
  std::vector<double> closed_rps;  // per round
  std::int64_t closed_done = 0;
  std::int64_t mismatches = 0, failures = 0;
  std::uint64_t req_id = 0;
  std::set<std::string> fail_codes;

  auto check_response = [&](const serve::Response& resp, std::uint32_t item) {
    if (!resp.ok) {
      ++failures;
      fail_codes.insert(fxcpp::error_code_name(resp.code));
      return;
    }
    if (!bit_equal(resp.output, expect[item])) ++mismatches;
  };

  // Figures of every session that served, from the end of its set-up until
  // it was replaced.
  struct Served {
    std::uint64_t batches = 0, rows = 0, requests = 0, retries = 0,
                  breaker_rejected = 0, degraded_rung_runs = 0;
    std::uint64_t plan_hits = 0, plan_misses = 0, replans = 0;
  } served;
  auto stats0 = s->session->stats();
  auto tally = [&] {
    const auto st = s->session->stats();
    served.batches += st.batches - stats0.batches;
    served.rows += st.batched_rows - stats0.batched_rows;
    served.requests += st.completed - stats0.completed;
    served.retries += st.retries - stats0.retries;
    served.breaker_rejected += st.breaker_rejected - stats0.breaker_rejected;
    served.degraded_rung_runs += st.degraded_rung_runs - stats0.degraded_rung_runs;
    if (auto pc = s->fp32.gm->plan_cache()) {
      const auto ps = pc->stats();
      served.plan_hits += ps.hits;
      served.plan_misses += ps.misses;
      served.replans += ps.replans;
    }
  };
  // Set-ups and compiles inside the loop: kept out of the per-run figures.
  Counters aside;

  const Counters loop0 = Counters::read();
  fxcpp::Storage::reset_peak();
  const double deadline = now_s() + opt.seconds;
  for (std::uint64_t round = 0; round == 0 || now_s() < deadline; ++round) {
    Scope rs("round", round);
    const std::uint64_t rseed = opt.seed * 1000 + round;
    // 1. Closed loop: kCallers callers, each sending its next request once
    //    its previous one is answered, multiplexed on this thread.
    {
      Scope ph("serve.closed_loop", round);
      fxcpp::rt::Rng rng(rseed * 31);
      std::deque<std::pair<serve::Ticket, std::uint32_t>> in_flight;
      auto send = [&] {
        const std::uint32_t item = pick(rng);
        in_flight.emplace_back(s->session->submit(pool[item]), item);
      };
      const double t0 = now_s(), stop = t0 + kClosedS;
      const std::int64_t done0 = closed_done;
      for (int c = 0; c < kCallers; ++c) send();
      while (!in_flight.empty()) {
        auto [ticket, item] = std::move(in_flight.front());
        in_flight.pop_front();
        check_response(ticket.response.get(), item);
        ++closed_done;
        if (now_s() < stop) send();
      }
      const double wall = now_s() - t0;
      closed_wall += wall;
      closed_rps.push_back(static_cast<double>(closed_done - done0) / wall);
    }
    // 2. Open loop. This thread submits each request when it is due and,
    //    between arrivals, polls the requests in flight, stamping each
    //    response on the benchmark's clock once it is in hand; a request's
    //    latency runs from its due time to that stamp.
    {
      Scope ph("serve.open_loop", round);
      const auto schedule = poisson_schedule(rseed, kRate, kOpenS, pick);
      const std::size_t n = schedule.size();
      std::vector<serve::Ticket> tickets(n);
      std::vector<double> done(n, -1.0);  // stays < 0 for a failed request
      std::vector<std::size_t> in_flight;
      auto poll = [&] {
        for (std::size_t j = 0; j < in_flight.size();) {
          const std::size_t i = in_flight[j];
          if (tickets[i].response.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++j;
            continue;
          }
          const double t = now_s();
          const serve::Response resp = tickets[i].response.get();
          check_response(resp, schedule[i].item);
          if (resp.ok) {
            done[i] = t;
            open_total.push_back(resp.total_seconds);
          }
          in_flight[j] = in_flight.back();
          in_flight.pop_back();
        }
        return !in_flight.empty();
      };
      const double t0 = now_s();
      const std::vector<double> lag = replay(
          schedule, t0,
          [&](std::size_t i) {
            tickets[i] = s->session->submit(pool[schedule[i].item]);
            in_flight.push_back(i);
          },
          poll);
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i] < 0.0) continue;
        const double due = t0 + schedule[i].due_s;
        open_lat.push_back(done[i] - due);
        if (tr && ++req_id % kSpanEvery == 0)
          SpanLog::get().add("serve.request", due, done[i], req_id);
      }
      open_wall += now_s() - t0;
      lag_all.insert(lag_all.end(), lag.begin(), lag.end());
      r.attempted += static_cast<std::int64_t>(n);
    }
    // 3. The other two engines, one request's rows.
    for (int i = 0; i < kEngineIters; ++i) {
      for (auto* out : {&trt_s, &int8_s}) {
        const bool is_trt = out == &trt_s;
        Scope sp(is_trt ? "trt.run" : "quant.run");
        const double t0 = now_s();
        const Tensor y = is_trt ? run_trt(*s->trt.gm, x1)
                                : run_int8(*s->int8.gm, x1, nullptr);
        out->push_back(now_s() - t0);
        if (!bit_equal(y, is_trt ? y_trt : y_int8)) ++mismatches;
        ++r.attempted;
      }
    }
    const Counters aside0 = Counters::read();
    // 4. Set-ups, each replacing the serving session and its engines. The
    //    old session is shut down first, so no more than three busy threads
    //    ever run.
    for (int k = 0; k < kSetupsPerRound; ++k) {
      tally();
      s.reset();
      if (hooks) hooks->forget();
      s = set_up(round + 1, hooks.get());
      stats0 = s->session->stats();
    }
    // 5. Capture + compile fresh MLPs.
    for (int k = 0; k < kCompilesPerRound; ++k) {
      auto model = make_mlp();
      const double t0 = now_s();
      Compiled c = compile_pipeline(std::move(model), spec, &cache);
      compile_s.push_back(now_s() - t0);
      ++r.attempted;  // the compile
      r.check(c.diagnostics.empty(), "Verifier on compiled MLP: " + diagnostics_text(c));
      r.check(bit_equal(run_fp32(*c.gm, {pool[0]}, nullptr), expect[0]),
              "recompiled MLP differs from the served module");
      led.ir_nodes = c.ir_nodes;
      led.fusions = c.fusions;
      led.arena_mb = c.arena_mb;
    }
    aside += Counters::read() - aside0;
  }
  tally();
  r.attempted += closed_done;
  r.failed += failures;
  for (const std::string& code : fail_codes)
    r.notes.push_back("FAILED: request answered " + code);
  r.expect(mismatches == 0,
          "every response bit-equal to a solo run_planned of its input");
  const double rss = peak_rss_mb();

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "samples: closed %lld open %zu trt %zu int8 %zu compile %zu; "
                "batches %llu",
                static_cast<long long>(closed_done), open_lat.size(),
                trt_s.size(), int8_s.size(), compile_s.size(),
                static_cast<unsigned long long>(served.batches));
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "reference: open-loop latency p99 %.3f ms",
                quantile(open_lat, 0.99) * 1e3);
  r.notes.push_back(buf);

  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", rss, "MB");
  r.set("latency_p50_ms", median(open_lat) * 1e3, "ms");
  r.set("trt_p50_ms", median(trt_s) * 1e3, "ms");
  r.set("int8_p50_ms", median(int8_s) * 1e3, "ms");
  r.set("throughput_rps", median(closed_rps), "1/s");
  r.set("compile_ms", median(compile_s) * 1e3, "ms");
  r.set("code_size_instrs", static_cast<double>(s->fp32.instrs), "count");
  if (tr) {
    led.loop_counters = Counters::read() - loop0;
    led.fp32_counters = led.loop_counters - aside;
    const std::vector<double> runs = hooks->run_s();
    led.fp32_runs = static_cast<std::int64_t>(runs.size());
    for (double x : runs) led.fp32_wall_s += x;
    led.peak_live_mb =
        static_cast<double>(fxcpp::Storage::peak_bytes()) / (1024.0 * 1024.0);
    led.plan_hits = served.plan_hits;
    led.plan_misses = served.plan_misses;
    led.replans = served.replans;
    led.batches = served.batches;
    if (served.batches > 0) {
      const double batches = static_cast<double>(served.batches);
      led.batch_rows_mean = static_cast<double>(served.rows) / batches;
      led.batch_requests_mean = static_cast<double>(served.requests) / batches;
    }
    led.serve_run_ms = mean(runs) * 1e3;
    led.busy_share = led.fp32_wall_s / (closed_wall + open_wall);
    led.outside_run_ms = (mean(open_total) - mean(runs)) * 1e3;
    led.generator_lag_ms = mean(lag_all) * 1e3;
    led.retries = served.retries;
    led.breaker_rejected = served.breaker_rejected;
    led.degraded_rung_runs = served.degraded_rung_runs;
    led.trt_plan_ops = s->trt.plan_ops;
    led.trt_arena_mb = s->trt.arena_mb;
    led.quant_ops = s->int8.ops_converted;
    emit_per_layer(led, r);
  }
  s->session->shutdown();
  return r;
}

}  // namespace fxbench

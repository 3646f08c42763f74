// Shared pieces of the fxcpp end-to-end benchmark: run options and results,
// sample statistics, the in-memory span log behind --trace 1, and the
// ExecHooks observer that attributes node time to op categories.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"
#include "tensor/tensor.h"

namespace fxbench {

using fxcpp::Tensor;

// ---------------------------------------------------------------------------
// Run options and the result every workload hands back to main().

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;  // printed in name order
  // Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
  std::set<std::string> noted_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records one check as an attempted operation; a failed check makes the
  // run incorrect.
  void check(bool ok, const std::string& what);
  // A check over operations already counted (e.g. "every inference matched
  // its engine's first output"): not an operation of its own.
  void expect(bool ok, const std::string& what);
  // Records one operation; a failed one counts in `failed` (noted once per
  // distinct message) without making the run incorrect.
  void op(bool ok, const std::string& what);
};

Result run_resnet50_b1(const Options& opt);
Result run_mlp_serve(const Options& opt);
Result run_compile_zoo(const Options& opt);

// ---------------------------------------------------------------------------
// Clock and statistics.

// Seconds since the first call in this process (monotonic).
double now_s();

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

// Peak resident set size of this process in MB.
double peak_rss_mb();

// Deterministic N(0,1) tensor from a seed (independent of the library's
// global generator, which model construction consumes).
Tensor seeded_normal(std::uint64_t seed, fxcpp::Shape shape);

// Relative max error max|a - ref| / max|ref|, with ref in double.
double rel_max_err(const Tensor& a, const std::vector<double>& ref);
bool bit_equal(const Tensor& a, const Tensor& b);
std::vector<double> to_double(const Tensor& t);

// ---------------------------------------------------------------------------
// Spans. With tracing off every call is a no-op; with tracing on, spans
// stay in memory and are written out as chrome-trace JSON plus a per-span
// self-time table when the run ends.

class SpanLog {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
    std::uint64_t id = 0;  // inference / request / round id
    int tid = 0;
  };

  static SpanLog& get();
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  // Opens a span on this thread; its parent is the innermost open span of
  // this thread. Returns its index (-1 when tracing is off).
  int begin(const std::string& name, std::uint64_t id);
  void end(int idx);
  // Records a finished span (e.g. a request timed after the fact).
  void add(const std::string& name, double t0, double t1, std::uint64_t id,
           int parent = -1);

  // Sum of durations and count of spans called `name`.
  double total_s(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
  double mean_ms(const std::string& name) const;

  void write_chrome(const std::string& path) const;
  // Per span name: count, total and self time (duration minus the part
  // covered by child spans).
  std::string layer_table() const;

 private:
  int thread_index();
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<std::size_t, int> tids_;
};

// RAII span.
class Scope {
 public:
  Scope(const std::string& name, std::uint64_t id = 0)
      : idx_(SpanLog::get().on() ? SpanLog::get().begin(name, id) : -1) {}
  ~Scope() {
    if (idx_ >= 0) SpanLog::get().end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_;
};

// ---------------------------------------------------------------------------
// Op categories of the per-layer ledger.

enum class OpCat { Conv, Linear, Elementwise, Norm, Pool, DataMovement,
                   Quantized, kCount };
const char* opcat_name(OpCat c);

// Node observer: one span per node ("ops.<category>") plus per-category
// time and GEMM FLOPs (counted from node shapes). Thread-safe; attach one
// per module, since categories are resolved against that module.
class NodeHooks : public fxcpp::fx::ExecHooks {
 public:
  // Spans are kept for one run in `span_every` (all runs are counted), so
  // that a serving run of millions of nodes leaves a trace of bounded size.
  explicit NodeHooks(const fxcpp::fx::GraphModule* gm, std::string run_span = "",
                     int span_every = 1)
      : gm_(gm), run_span_(std::move(run_span)), span_every_(span_every) {}

  // Resolves the categories of later runs against `gm` (serial callers
  // that alternate modules); forget() drops cached node facts, needed
  // once modules whose nodes were seen are destroyed.
  void bind(const fxcpp::fx::GraphModule* gm) { gm_ = gm; }
  void forget();

  void on_run_begin(std::size_t) override;
  void on_node_begin(const fxcpp::fx::Node& n) override;
  void on_node_end(const fxcpp::fx::Node& n,
                   const fxcpp::fx::RtValue& out) override;
  void on_run_end() override;

  double cat_s(OpCat c) const;
  double node_s() const;      // all node time
  double gemm_flops() const;  // conv + linear FLOPs observed
  std::int64_t runs() const;
  // Run durations seen between on_run_begin and on_run_end.
  std::vector<double> run_s() const;

 private:
  struct NodeInfo {
    OpCat cat = OpCat::Elementwise;
    double flops_per_out = 0.0;  // multiply-adds x2 per output element
  };
  const NodeInfo& info(const fxcpp::fx::Node& n);

  const fxcpp::fx::GraphModule* gm_;
  std::string run_span_;
  int span_every_;
  std::int64_t runs_begun_ = 0;
  mutable std::mutex mu_;
  std::unordered_map<const fxcpp::fx::Node*, NodeInfo> infos_;
  double cat_s_[static_cast<int>(OpCat::kCount)] = {};
  double flops_ = 0.0;
  std::vector<double> run_s_;
};

// Counts a graph's nodes and a compiled module's tape instructions.
std::int64_t ir_nodes(const fxcpp::fx::GraphModule& gm);
std::int64_t tape_instrs(const fxcpp::fx::GraphModule& gm);

// Process-wide allocator / pack-cache counter snapshot.
struct Counters {
  std::int64_t allocs = 0, alloc_bytes = 0, served_bytes = 0;
  std::int64_t pack_hits = 0, pack_misses = 0, panel_hits = 0,
               panel_misses = 0;
  static Counters read();
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

// What a traced run feeds the per-layer ledger. Every workload emits every
// per-layer metric; a layer a workload does not use reads 0.
struct Ledger {
  const NodeHooks* fp32 = nullptr;  // node hooks on the planned fp32 runs
  const NodeHooks* int8 = nullptr;  // node hooks on the int8 runs
  std::int64_t fp32_runs = 0;
  double fp32_wall_s = 0.0;    // caller-timed wall of those runs
  Counters fp32_counters;      // allocator counters summed over those runs
  double peak_live_mb = 0.0;   // Storage high-water mark over one run
  Counters loop_counters;      // pack-cache counters over the timed loop
  std::uint64_t plan_hits = 0, plan_misses = 0, replans = 0;
  // Capture + compile of the workload's model set (last round).
  std::int64_t ir_nodes = 0, fusions = 0;
  double arena_mb = 0.0;
  std::int64_t trt_plan_ops = 0;
  double trt_arena_mb = 0.0;
  std::int64_t quant_ops = 0;
  // Serving.
  std::uint64_t batches = 0;
  double batch_requests_mean = 0.0, batch_rows_mean = 0.0;
  double serve_run_ms = 0.0, busy_share = 0.0, outside_run_ms = 0.0,
         generator_lag_ms = 0.0;
  std::uint64_t retries = 0, breaker_rejected = 0, degraded_rung_runs = 0;
};

void emit_per_layer(const Ledger& l, Result& r);

}  // namespace fxbench

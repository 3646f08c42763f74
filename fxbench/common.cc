#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "runtime/rng.h"
#include "tensor/pack_cache.h"

namespace fxbench {

namespace fx = fxcpp::fx;

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  expect(ok, what);
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (noted_failures.insert(what).second) notes.push_back("FAILED: " + what);
}

void Result::expect(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Tensor seeded_normal(std::uint64_t seed, fxcpp::Shape shape) {
  fxcpp::rt::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(fxcpp::shape_numel(shape)));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, std::move(shape));
}

std::vector<double> to_double(const Tensor& t) {
  const Tensor c = t.contiguous();
  const float* p = c.data<float>();
  return std::vector<double>(p, p + c.numel());
}

double rel_max_err(const Tensor& a, const std::vector<double>& ref) {
  const std::vector<double> x = to_double(a);
  if (x.size() != ref.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = std::fabs(x[i] - ref[i]);
    num = std::isnan(d) ? INFINITY : std::max(num, d);
    den = std::max(den, std::fabs(ref[i]));
  }
  return den > 0.0 ? num / den : num;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) ==
         0;
}

// ---------------------------------------------------------------------------
// SpanLog

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

namespace {
thread_local std::vector<int> t_open;
}  // namespace

int SpanLog::thread_index() {
  const std::size_t key = std::hash<std::thread::id>()(std::this_thread::get_id());
  auto it = tids_.find(key);
  if (it != tids_.end()) return it->second;
  const int idx = static_cast<int>(tids_.size());
  tids_.emplace(key, idx);
  return idx;
}

int SpanLog::begin(const std::string& name, std::uint64_t id) {
  if (!on_) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.t0 = t;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.id = id;
  s.tid = thread_index();
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(idx);
  return idx;
}

void SpanLog::end(int idx) {
  if (idx < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(idx)].t1 = t;
  if (!t_open.empty() && t_open.back() == idx) t_open.pop_back();
}

void SpanLog::add(const std::string& name, double t0, double t1,
                  std::uint64_t id, int parent) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.parent = parent;
  s.id = id;
  s.tid = thread_index();
  spans_.push_back(std::move(s));
}

double SpanLog::total_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name) s += sp.t1 - sp.t0;
  return s;
}

std::int64_t SpanLog::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const Span& sp : spans_)
    if (sp.name == name) ++n;
  return n;
}

double SpanLog::mean_ms(const std::string& name) const {
  const std::int64_t n = count(name);
  return n == 0 ? 0.0 : total_s(name) * 1e3 / static_cast<double>(n);
}

namespace {
std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}
}  // namespace

void SpanLog::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = json_escape(s.name);
    const std::string cat = name.substr(0, name.find('.'));
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"id\":%llu}}%s\n",
                  name.c_str(), cat.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                  s.tid, i, s.parent, static_cast<unsigned long long>(s.id),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string SpanLog::layer_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  struct Row {
    std::int64_t n = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = spans_[i].t1 - spans_[i].t0;
    ++r.n;
    r.total += d;
    r.self += std::max(0.0, d - child[i]);
  }
  std::ostringstream o;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-32s %10s %14s %14s\n", "span", "count",
                "total_ms", "self_ms");
  o << buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof(buf), "%-32s %10lld %14.3f %14.3f\n",
                  name.c_str(), static_cast<long long>(r.n), r.total * 1e3,
                  r.self * 1e3);
    o << buf;
  }
  return o.str();
}

// ---------------------------------------------------------------------------
// NodeHooks

const char* opcat_name(OpCat c) {
  switch (c) {
    case OpCat::Conv: return "conv";
    case OpCat::Linear: return "linear";
    case OpCat::Elementwise: return "elementwise";
    case OpCat::Norm: return "norm";
    case OpCat::Pool: return "pool";
    case OpCat::DataMovement: return "data_movement";
    case OpCat::Quantized: return "quantized";
    case OpCat::kCount: break;
  }
  return "?";
}

namespace {

bool one_of(const std::string& s, std::initializer_list<const char*> names) {
  for (const char* n : names)
    if (s == n) return true;
  return false;
}

OpCat categorize(const std::string& kind_or_target) {
  const std::string& k = kind_or_target;
  if (k.rfind("Quantized", 0) == 0 || k.find("quantize") != std::string::npos)
    return OpCat::Quantized;
  if (one_of(k, {"Conv2d", "conv2d"})) return OpCat::Conv;
  if (one_of(k, {"Linear", "LinearReLU", "linear", "linear_relu", "matmul",
                 "bmm", "addmm"}))
    return OpCat::Linear;
  if (one_of(k, {"BatchNorm2d", "LayerNorm", "batch_norm", "layer_norm",
                 "softmax", "log_softmax"}))
    return OpCat::Norm;
  if (k.find("ool") != std::string::npos || one_of(k, {"mean", "sum"}))
    return OpCat::Pool;
  if (one_of(k, {"Flatten", "Identity", "Dropout", "Embedding", "flatten",
                 "reshape", "view", "permute", "transpose", "t", "cat",
                 "stack", "narrow", "contiguous", "squeeze", "unsqueeze",
                 "getitem", "size", "expand", "split", "chunk", "clone",
                 "embedding", "dropout", "output", "get_attr"}))
    return OpCat::DataMovement;
  return OpCat::Elementwise;
}

// 2 x (input features reduced per output element) for a weight tensor.
double gemm_flops_per_out(const Tensor& w) {
  if (!w.defined()) return 0.0;
  const auto& s = w.sizes();
  if (s.size() == 4) return 2.0 * static_cast<double>(s[1] * s[2] * s[3]);
  if (s.size() == 2) return 2.0 * static_cast<double>(s[1]);
  return 0.0;
}

thread_local double t_node_begin = 0.0;
thread_local int t_run_span = -1;
thread_local bool t_keep_spans = true;
thread_local double t_run_begin = 0.0;

}  // namespace

const NodeHooks::NodeInfo& NodeHooks::info(const fx::Node& n) {
  auto it = infos_.find(&n);
  if (it != infos_.end()) return it->second;
  NodeInfo ni;
  switch (n.op()) {
    case fx::Opcode::CallModule: {
      auto m = gm_->resolve_module(n.target());
      ni.cat = categorize(m ? m->kind() : n.target());
      if ((ni.cat == OpCat::Conv || ni.cat == OpCat::Linear) && m) {
        for (const auto& [pname, t] : m->parameters())
          if (pname == "weight") ni.flops_per_out = gemm_flops_per_out(t);
      }
      break;
    }
    case fx::Opcode::CallFunction:
    case fx::Opcode::CallMethod:
      ni.cat = categorize(n.target());
      if ((ni.cat == OpCat::Conv || ni.cat == OpCat::Linear) &&
          n.args().size() > 1 && n.args()[1].is_node() &&
          n.args()[1].node()->op() == fx::Opcode::GetAttr) {
        ni.flops_per_out =
            gemm_flops_per_out(gm_->resolve_attr(n.args()[1].node()->target()));
      }
      break;
    case fx::Opcode::GetAttr:
      ni.cat = OpCat::DataMovement;
      break;
    default:
      ni.cat = OpCat::DataMovement;
      break;
  }
  return infos_.emplace(&n, ni).first->second;
}

void NodeHooks::forget() {
  std::lock_guard<std::mutex> lock(mu_);
  infos_.clear();
}

void NodeHooks::on_run_begin(std::size_t) {
  t_run_begin = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    t_keep_spans = runs_begun_++ % span_every_ == 0;
  }
  t_run_span = run_span_.empty() || !t_keep_spans
                   ? -1
                   : SpanLog::get().begin(run_span_, 0);
}

void NodeHooks::on_node_begin(const fx::Node&) { t_node_begin = now_s(); }

void NodeHooks::on_node_end(const fx::Node& n, const fx::RtValue& out) {
  const double t1 = now_s();
  const double dt = t1 - t_node_begin;
  std::lock_guard<std::mutex> lock(mu_);
  const NodeInfo& ni = info(n);
  cat_s_[static_cast<int>(ni.cat)] += dt;
  if (ni.flops_per_out > 0.0 && fx::rt_is_tensor(out))
    flops_ += ni.flops_per_out *
              static_cast<double>(fx::rt_tensor(out).numel());
  if (!t_keep_spans) return;
  const int parent =
      t_run_span >= 0 ? t_run_span : (t_open.empty() ? -1 : t_open.back());
  SpanLog::get().add(std::string("ops.") + opcat_name(ni.cat), t_node_begin,
                     t1, 0, parent);
}

void NodeHooks::on_run_end() {
  const double dt = now_s() - t_run_begin;
  SpanLog::get().end(t_run_span);
  t_run_span = -1;
  std::lock_guard<std::mutex> lock(mu_);
  run_s_.push_back(dt);
}

double NodeHooks::cat_s(OpCat c) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cat_s_[static_cast<int>(c)];
}

double NodeHooks::node_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (double x : cat_s_) s += x;
  return s;
}

double NodeHooks::gemm_flops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flops_;
}

std::int64_t NodeHooks::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(run_s_.size());
}

std::vector<double> NodeHooks::run_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_s_;
}

std::int64_t ir_nodes(const fx::GraphModule& gm) {
  return static_cast<std::int64_t>(gm.graph().size());
}

std::int64_t tape_instrs(const fx::GraphModule& gm) {
  return static_cast<std::int64_t>(gm.compiled_graph().instrs().size());
}

Counters Counters::read() {
  Counters c;
  c.allocs = fxcpp::Storage::allocation_count();
  c.alloc_bytes = fxcpp::Storage::total_allocated_bytes();
  c.served_bytes = fxcpp::Storage::planner_served_bytes();
  const auto g = fxcpp::PackCache::global_stats();
  c.pack_hits = g.hits;
  c.pack_misses = g.misses;
  c.panel_hits = g.panel_hits;
  c.panel_misses = g.panel_misses;
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  c.allocs = allocs - o.allocs;
  c.alloc_bytes = alloc_bytes - o.alloc_bytes;
  c.served_bytes = served_bytes - o.served_bytes;
  c.pack_hits = pack_hits - o.pack_hits;
  c.pack_misses = pack_misses - o.pack_misses;
  c.panel_hits = panel_hits - o.panel_hits;
  c.panel_misses = panel_misses - o.panel_misses;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
  served_bytes += o.served_bytes;
  pack_hits += o.pack_hits;
  pack_misses += o.pack_misses;
  panel_hits += o.panel_hits;
  panel_misses += o.panel_misses;
  return *this;
}

}  // namespace fxbench

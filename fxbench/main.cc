// fxbench — the fxcpp end-to-end benchmark.
//
//   fxbench --workload <resnet50_b1|mlp_serve|compile_zoo> --seed <n>
//           --seconds <s> --trace <0|1> [--out <dir>] [--threads <n>]
//
// Prints notes, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger, and the spans are written to <out>/<workload>.trace.json
// (chrome://tracing) with a self-time table in <out>/<workload>.layers.txt.
// Exits 1 when a check fails, 2 on bad arguments or a forced-down ISA tier.
// --threads sets the intra-op thread count (default 1); values above 1 only
// serve to reproduce the rt::parallel_for race described in README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "kernels/dispatch.h"
#include "runtime/thread_pool.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "fxbench: %s\nusage: fxbench --workload <resnet50_b1|mlp_serve|"
               "compile_zoo> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--threads <n>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fxbench;
  namespace kernels = fxcpp::kernels;
  Options opt;
  int threads = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--out") opt.out_dir = v;
    else if (k == "--threads") threads = std::atoi(v.c_str());
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  if (threads < 1 || threads > 64) return usage("--threads must be in 1..64");

  // A stray FXCPP_KERNEL_ISA below the CPU's tier would slow every kernel
  // many times over without failing anything: refuse to measure.
  if (kernels::active_isa() != kernels::detected_isa()) {
    std::fprintf(stderr,
                 "fxbench: active ISA tier %s is below the detected tier %s "
                 "(FXCPP_KERNEL_ISA is set); refusing to run\n",
                 kernels::isa_name(kernels::active_isa()),
                 kernels::isa_name(kernels::detected_isa()));
    return 2;
  }
  // One intra-op thread: rt::parallel_for races at more than one thread
  // (see README.md), and a crash cannot be counted as a failed operation.
  fxcpp::rt::set_num_threads(threads);
  SpanLog::get().enable(opt.trace);

  Result r;
  if (opt.workload == "resnet50_b1") r = run_resnet50_b1(opt);
  else if (opt.workload == "mlp_serve") r = run_mlp_serve(opt);
  else if (opt.workload == "compile_zoo") r = run_compile_zoo(opt);
  else return usage(("unknown workload '" + opt.workload + "'").c_str());

  std::printf("fxbench: workload=%s seed=%llu seconds=%g trace=%d isa=%s "
              "intra_op_threads=%d nproc=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              kernels::isa_name(kernels::active_isa()),
              fxcpp::rt::get_num_threads(), std::thread::hardware_concurrency());
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());

  if (opt.trace) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string base = opt.out_dir + "/" + opt.workload;
    SpanLog::get().write_chrome(base + ".trace.json");
    const std::string table = SpanLog::get().layer_table();
    std::ofstream(base + ".layers.txt") << table;
    std::printf("%s", table.c_str());
    std::printf("trace written to %s.trace.json\n", base.c_str());
  }

  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

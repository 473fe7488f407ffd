// perfbench: checkpoint/restart cost and host wall-clock, end to end and
// per layer, on three workloads (see workloads.cc and README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//
// --trace 0 repeats whole untraced iterations of the workload for S host
// seconds (at least three) and prints the end-to-end metrics: medians of
// the host timings, and the virtual results, which every iteration must
// reproduce exactly. --trace 1 repeats pairs of an untraced and a traced
// iteration (--trace-out/--health-out armed into D) for S seconds, requires
// every traced one to reproduce the virtual results exactly, runs the
// kernel replays and prints the per-layer metrics. The last line of stdout
// is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {

constexpr int kMinIterations = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-layer metrics, module-prefixed. Metrics of a layer a workload
// bypasses read 0 there.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.run_host_s", "s"},
    {"sim.host_s_per_sim_s", "s/s"},
    {"sim.eventloop_mevents_s", "Mevents/s"},
    {"sim.byteimage_fill_mbps", "MB/s"},
    {"sim.dev_write_mb", "MB"},
    {"sim.dev_read_mb", "MB"},
    {"util.crc32_mbps", "MB/s"},
    {"core.suspend_s", "s"},
    {"core.elect_s", "s"},
    {"core.drain_s", "s"},
    {"core.write_s", "s"},
    {"core.refill_s", "s"},
    {"core.restart_files_s", "s"},
    {"core.restart_reconnect_s", "s"},
    {"core.restart_memory_s", "s"},
    {"core.restart_refill_s", "s"},
    {"core.ckpt_host_s", "s"},
    {"core.restart_host_s", "s"},
    {"mtcp.image_mb", "MB"},
    {"mtcp.compressed_mb", "MB"},
    {"compress.gzipish_mbps", "MB/s"},
    {"compress.gzipish_decode_mbps", "MB/s"},
    {"compress.ratio", "ratio"},
    {"ckptstore.cdc_mbps", "MB/s"},
    {"ckptstore.content_key_mbps", "MB/s"},
    {"ckptstore.erasure_encode_mbps", "MB/s"},
    {"ckptstore.erasure_decode_mbps", "MB/s"},
    {"ckptstore.new_mb", "MB"},
    {"ckptstore.dup_mb", "MB"},
    {"ckptstore.lookups", "count"},
    {"ckptstore.lookup_wait_p50_ms", "ms"},
    {"ckptstore.lookup_wait_p99_ms", "ms"},
    {"ckptstore.victim_wait_p99_ms", "ms"},
    {"rpc.calls", "count"},
    {"rpc.net_mb", "MB"},
    {"rpc.net_wait_s", "s"},
    {"ckptasync.queued_mb", "MB"},
    {"ckptasync.drain_s", "s"},
    {"ckptasync.cow_pages", "count"},
    {"ckptasync.drain_host_s", "s"},
    {"obs.trace_host_overhead", "ratio"},
};

// Critical-path stages reported as critpath.<stage>_frac: the share of all
// measured round and restart windows attributed to the stage.
constexpr const char* kCritpathStages[] = {
    "barrier.suspend",  "barrier.elect",     "barrier.drain",
    "barrier.write",    "barrier.refill",    "restart.load",
    "restart.refill",   "device.write",      "device.read",
    "store.fq_wait",    "store.index",       "store.heal",
    "store.erasure_decode", "rpc.request_net", "rpc.response_net",
    "rpc.dispatch_cpu", "cluster.heartbeat",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mpi_full|store_incr|async_tenants --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || errno != 0 || *end != '\0' || v[0] == '-') {
    usage((std::string(flag) + " takes a non-negative integer").c_str());
  }
  return x;
}

/// Hash of a text, for the printed digests.
u64 text_hash(const std::string& s) {
  return ref_fnv1a64(std::as_bytes(std::span(s)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_virtual(const Iteration& a, const Iteration& b) {
  return a.ckpt_pause_s == b.ckpt_pause_s && a.durable_s == b.durable_s &&
         a.restart_s == b.restart_s &&
         a.ckpt_written_mb == b.ckpt_written_mb &&
         a.virtual_digest == b.virtual_digest;
}

void print_result(const Ops& ops, bool correct,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir = ".bench_build/perfbench/out";
  u64 seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = parse_u64("--seed", v);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_u64("--seconds", v);
    } else if (flag == "--trace") {
      trace = parse_u64("--trace", v);
    } else if (flag == "--out-dir") {
      out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : workloads()) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) usage("--seed is required");
  if (seconds < 1) usage("--seconds must be at least 1");
  if (trace > 1) usage("--trace must be 0 or 1");

  // Whole iterations until `seconds` have passed: untraced ones, each
  // followed by a traced one under --trace 1.
  if (trace == 1) std::filesystem::create_directories(out_dir);
  std::vector<Iteration> plain, traced;
  const double t0 = host_now();
  do {
    plain.push_back(spec->run(seed, /*traced=*/false, out_dir));
    std::fprintf(stderr, "perfbench: iteration %zu setup_s=%.4f wall_s=%.4f\n",
                 plain.size() - 1, plain.back().setup_s, plain.back().wall_s);
    if (trace == 1) traced.push_back(spec->run(seed, /*traced=*/true, out_dir));
  } while ((trace == 0 && plain.size() < kMinIterations) ||
           host_now() - t0 < static_cast<double>(seconds));

  Ops ops;
  const Iteration& first = plain.front();
  std::vector<double> setup, wall, traced_wall;
  for (const auto* its : {&plain, &traced}) {
    for (size_t i = 0; i < its->size(); ++i) {
      const Iteration& it = (*its)[i];
      ops.attempted += it.ops.attempted;
      ops.failed += it.ops.failed;
      if (its == &plain && i == 0) continue;
      ops.check(same_virtual(it, first),
                std::string(its == &plain ? "untraced" : "traced") +
                    " iteration " + std::to_string(i) +
                    " reproduces the untraced iteration 0's virtual results");
    }
  }
  for (const auto& it : plain) {
    setup.push_back(it.setup_s);
    wall.push_back(it.wall_s);
  }
  for (const auto& it : traced) traced_wall.push_back(it.wall_s);
  std::printf("perfbench: %s seed=%llu iterations=%zu virtual_digest=%016llx",
              spec->name, static_cast<unsigned long long>(seed), plain.size(),
              static_cast<unsigned long long>(text_hash(first.virtual_digest)));
  if (!traced.empty()) {
    std::printf(" health_digest=%016llx",
                static_cast<unsigned long long>(
                    text_hash(traced[0].health_json)));
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", "s", median(setup)},
        {"wall_s", "s", median(wall)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"ckpt_pause_s", "s", first.ckpt_pause_s},
        {"durable_s", "s", first.durable_s},
        {"restart_s", "s", first.restart_s},
        {"ckpt_written_mb", "MB", first.ckpt_written_mb},
    };
  } else {
    // Host per-layer timings are medians over the untraced iterations;
    // virtual ones are identical in every iteration.
    std::map<std::string, double> layer;
    for (const auto& [name, value] : first.layer) {
      std::vector<double> v;
      for (const auto& it : plain) v.push_back(it.layer.at(name));
      layer[name] = median(v);
    }
    layer["obs.trace_host_overhead"] = median(traced_wall) / median(wall);
    run_replays(spec->replay_input(seed), seed, ops, layer);
    for (const auto& def : kLayerMetrics) {
      const auto it = layer.find(def.name);
      metrics.push_back(
          {def.name, def.unit, it == layer.end() ? 0.0 : it->second});
    }
    const Iteration& tr = traced.front();
    for (const char* stage : kCritpathStages) {
      const auto it = tr.critpath_ns.find(stage);
      const double ns = it == tr.critpath_ns.end() ? 0 : it->second;
      metrics.push_back({std::string("critpath.") + stage + "_frac",
                         "fraction",
                         tr.critpath_window_ns > 0 ? ns / tr.critpath_window_ns
                                                   : 0});
    }
    // Stages outside the fixed list are printed, so a new one is not lost.
    for (const auto& [stage, ns] : tr.critpath_ns) {
      if (std::find(std::begin(kCritpathStages), std::end(kCritpathStages),
                    stage) == std::end(kCritpathStages)) {
        std::printf("perfbench: unlisted critpath stage %s %.6f\n",
                    stage.c_str(), ns / tr.critpath_window_ns);
      }
    }
  }
  print_result(ops, ops.failed == 0, metrics);
  return 0;
}

// Shared types of the checkpoint/restart benchmark.
//
// One workload run ("iteration") builds a fresh simulated cluster, brings
// the computation to steady state (set-up), runs the measured phase
// (compute, checkpoint rounds, kill, restart, completion) and then checks
// the program's outputs against computations made here, apart from the
// checkpoint path. Host wall-clock is taken around calls into the public
// API (DmtcpControl::{run_for, run_until, checkpoint_now, restart});
// virtual (simulated) results come from the stats those calls return.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/types.h"

namespace perfbench {

using dsim::u32;
using dsim::u64;
using dsim::u8;

/// Host wall-clock in seconds since an arbitrary origin.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Attempted/failed operation tally: checkpoint rounds, restarts,
/// application completions and output checks. Each failure is logged to
/// stderr with what failed.
struct Ops {
  u64 attempted = 0;
  u64 failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

/// Result of one workload iteration.
struct Iteration {
  // Host seconds: set-up, and the measured phase (no set-up, no checks).
  double setup_s = 0;
  double wall_s = 0;
  // Virtual end-to-end metrics (same seed -> identical values).
  double ckpt_pause_s = 0;
  double durable_s = 0;
  double restart_s = 0;
  double ckpt_written_mb = 0;
  /// Per-layer metrics measured from this iteration's stats and timings.
  std::map<std::string, double> layer;
  /// Critical-path nanoseconds per stage over the measured rounds and the
  /// restart (traced iterations only), and the windows' total.
  std::map<std::string, double> critpath_ns;
  double critpath_window_ns = 0;
  /// Canonical text of every virtual output (round/restart stats, result
  /// strings, device byte totals). Tracing must leave it unchanged.
  std::string virtual_digest;
  /// The --health-out document (traced iterations only).
  std::string health_json;
  Ops ops;
};

struct WorkloadSpec {
  const char* name;
  Iteration (*run)(u64 seed, bool traced, const std::string& out_dir);
  /// Sample of the workload's checkpointed bytes, for the kernel replays.
  std::vector<std::byte> (*replay_input)(u64 seed);
};

const std::vector<WorkloadSpec>& workloads();

/// Kernel replays (crc32, ByteImage fill, CDC, content keys, gzip-class
/// codec, Reed-Solomon, event loop) over `input`; each is checked against a
/// computation made in this benchmark. Adds `<module>.<kernel>_mbps`-style
/// entries to `layer`.
void run_replays(const std::vector<std::byte>& input, u64 seed, Ops& ops,
                 std::map<std::string, double>& layer);

// --- independent reference computations -----------------------------------

/// splitmix64 finalizer step, written out here so the benchmark's checks do not
/// call the code they check.
inline u64 ref_splitmix64(u64& state) {
  state += 0x9e3779b97f4a7c15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The three-input seed mixer the applications use for their recurrences.
inline u64 ref_mix_seed(u64 a, u64 b = 0, u64 c = 0) {
  u64 s = a;
  u64 h = ref_splitmix64(s);
  s ^= b + 0x632be59bd9b4e019ULL;
  h ^= ref_splitmix64(s);
  s ^= c + 0x9e3779b97f4a7c15ULL;
  h ^= ref_splitmix64(s);
  return h;
}

/// Content of a pseudo-random pattern extent at absolute position `pos`.
inline u8 ref_rand_byte(u64 seed, u64 pos) {
  u64 s = seed ^ (pos >> 3) * 0x9e3779b97f4a7c15ULL;
  const u64 block = ref_splitmix64(s);
  return static_cast<u8>(block >> ((pos & 7) * 8));
}

/// Bitwise (table-free) CRC-32, reflected polynomial 0xEDB88320.
inline u32 ref_crc32(const std::byte* data, size_t n) {
  u32 crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<u32>(data[i]);
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

/// 64-bit FNV-1a from basis `h`.
inline u64 ref_fnv1a64(std::span<const std::byte> data,
                       u64 h = 0xCBF29CE484222325ull) {
  for (const std::byte b : data) {
    h ^= static_cast<u64>(b);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench

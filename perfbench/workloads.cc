// The benchmark's three workloads. Each bypasses a layer another one loads,
// so a gain in one layer and any cost it pushes elsewhere both show:
//
//   mpi_full      NAS MG under OpenMPI, 32 ranks on 8 nodes, whole-image
//                 gzip checkpoints (Table 1's "compressed" column): event
//                 loop, MPI/CPU models and real-byte compression. No chunk
//                 store.
//   store_incr    four desktop ranks checkpointing incrementally (CDC) into
//                 the cluster-wide store, 2 shards, (4,2) erasure coding; a
//                 non-rank node dies before restart, so restart reads
//                 through parity. CRC, pattern fills, CDC, content keys,
//                 lookups/stores and the four-phase restart.
//   async_tenants a sync dedup-probe storm (tenant 1) beside an async,
//                 gzip-compressing victim (tenant 2, weight 4) on one
//                 fair-queued shard with two replicas; the victim restarts.
//
// Seeds: the workload seed sets the cluster's device-jitter seed and the
// content of every byte the benchmark writes (ballast seeds, dirty data). The
// same seed gives the same inputs and, the model being deterministic, the
// same virtual results.
#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <functional>
#include <memory>
#include <tuple>

#include "apps/desktop.h"
#include "apps/distributed.h"
#include "bench.h"
#include "ckptasync/pipeline.h"
#include "ckptstore/placement.h"
#include "ckptstore/service.h"
#include "core/launch.h"
#include "mpi/runtime.h"
#include "sim/cluster.h"
#include "sim/model_params.h"

namespace perfbench {
namespace {

using namespace dsim;
namespace tc = dsim::timeconst;

constexpr double kMiB = 1024.0 * 1024.0;

double mb(u64 bytes) { return static_cast<double>(bytes) / kMiB; }

/// A cluster shaped like the paper's lab cluster with device jitter, the
/// DMTCP control handle, and every application program registered.
struct World {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::DmtcpControl> ctl;

  World(int nodes, const core::DmtcpOptions& opts, u64 seed)
      : cluster(std::make_unique<sim::Cluster>(config(nodes, seed))),
        ctl(std::make_unique<core::DmtcpControl>(cluster->kernel(), opts)) {
    register_apps(k());
  }
  sim::Kernel& k() { return cluster->kernel(); }

  static sim::ClusterConfig config(int nodes, u64 seed) {
    auto cfg = sim::Cluster::lab_cluster(nodes);
    cfg.seed = seed;
    cfg.jitter_sigma = sim::params::kJitterSigma;
    return cfg;
  }
  static void register_apps(sim::Kernel& k) {
    apps::register_desktop_programs(k);
    apps::register_distributed_programs(k);
    mpi::register_runtime_programs(k);
  }
};

/// Bytes written to / read from every node's storage devices so far.
struct DevBytes {
  u64 written = 0;
  u64 read = 0;
};

DevBytes device_bytes(sim::Kernel& k) {
  DevBytes d;
  for (int n = 0; n < k.num_nodes(); ++n) {
    auto& st = k.node(n).storage();
    d.written += st.cache().total_written_bytes() +
                 st.disk().total_written_bytes();
    d.read += st.cache().total_read_bytes() + st.disk().total_read_bytes();
  }
  return d;
}

/// Host seconds spent in each kind of call into the program, plus the
/// virtual seconds the compute phases advanced.
struct HostLedger {
  double run_host = 0;
  double run_virtual = 0;
  std::vector<double> ckpt_host;
  double restart_host = 0;

  void run_for(core::DmtcpControl& ctl, SimTime dt) {
    const SimTime v0 = ctl.kernel().loop().now();
    const double t0 = host_now();
    ctl.run_for(dt);
    run_host += host_now() - t0;
    run_virtual += to_seconds(ctl.kernel().loop().now() - v0);
  }
  bool run_until(core::DmtcpControl& ctl, const std::function<bool()>& pred,
                 SimTime budget) {
    const SimTime v0 = ctl.kernel().loop().now();
    const double t0 = host_now();
    const bool ok = ctl.run_until(pred, v0 + budget);
    run_host += host_now() - t0;
    run_virtual += to_seconds(ctl.kernel().loop().now() - v0);
    return ok;
  }
  core::CkptRound checkpoint(core::DmtcpControl& ctl) {
    const double t0 = host_now();
    core::CkptRound r = ctl.checkpoint_now();
    ckpt_host.push_back(host_now() - t0);
    return r;
  }
  core::RestartRun restart(core::DmtcpControl& ctl) {
    const double t0 = host_now();
    core::RestartRun rr = ctl.restart();
    restart_host += host_now() - t0;
    return rr;
  }

  void report(Iteration& it) const {
    it.layer["sim.run_host_s"] = run_host;
    it.layer["sim.host_s_per_sim_s"] =
        run_virtual > 0 ? run_host / run_virtual : 0;
    it.layer["core.ckpt_host_s"] = median(ckpt_host);
    it.layer["core.restart_host_s"] = restart_host;
  }
};

// --- virtual-output digest --------------------------------------------------

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[768];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

using ull = unsigned long long;
using ll = long long;

void digest_round(std::string& d, const char* who, const core::CkptRound& r) {
  appendf(d,
          "%s round req=%lld susp=%lld elect=%lld drain=%lld ckpt=%lld "
          "refill=%lld bg=%lld procs=%d unc=%llu cmp=%llu new=%llu dup=%llu "
          "chunks=%llu lookups=%llu rpcs=%llu net=%llu queued=%llu cow=%llu\n",
          who, static_cast<ll>(r.requested), static_cast<ll>(r.suspended),
          static_cast<ll>(r.elected), static_cast<ll>(r.drained),
          static_cast<ll>(r.checkpointed), static_cast<ll>(r.refilled),
          static_cast<ll>(r.background_done), r.procs,
          static_cast<ull>(r.total_uncompressed),
          static_cast<ull>(r.total_compressed),
          static_cast<ull>(r.store_new_bytes),
          static_cast<ull>(r.store_dup_bytes),
          static_cast<ull>(r.total_chunks),
          static_cast<ull>(r.store_lookups), static_cast<ull>(r.store_rpcs),
          static_cast<ull>(r.store_rpc_net_bytes),
          static_cast<ull>(r.async_queued_bytes),
          static_cast<ull>(r.cow_pages_copied));
}

void digest_restart(std::string& d, const char* who,
                    const core::RestartRun& rr) {
  appendf(d,
          "%s restart start=%lld refilled=%lld procs=%d files=%.17g "
          "reconnect=%.17g memory=%.17g refill=%.17g hosts=%d "
          "needs_restore=%d lost=%llu\n",
          who, static_cast<ll>(rr.script_started),
          static_cast<ll>(rr.refilled), rr.procs, rr.files_ptys_seconds,
          rr.reconnect_seconds, rr.memory_threads_seconds, rr.refill_seconds,
          rr.hosts_reported, rr.needs_restore ? 1 : 0,
          static_cast<ull>(rr.lost_chunks));
}

// --- shared metric helpers --------------------------------------------------

/// Virtual seconds from a round's request until its data is stored: the
/// pause for a synchronous round, the background drain's end otherwise.
double durable_seconds(const core::CkptRound& r) {
  const SimTime end = std::max(r.refilled, r.background_done);
  return to_seconds(end - r.requested);
}

void add_critpath(Iteration& it, const obs::CritPathReport& rep) {
  for (const auto& e : rep.entries) {
    it.critpath_ns[e.stage] += static_cast<double>(e.ns);
  }
  it.critpath_window_ns += static_cast<double>(rep.total_ns());
}

/// Barrier and restart stage times (virtual), the Table 1 breakdown.
void report_stages(Iteration& it, const std::vector<core::CkptRound>& rounds,
                   const core::RestartRun& rr) {
  std::vector<double> s, e, d, w, f;
  for (const auto& r : rounds) {
    s.push_back(r.suspend_seconds());
    e.push_back(r.elect_seconds());
    d.push_back(r.drain_seconds());
    w.push_back(r.write_seconds());
    f.push_back(r.refill_seconds());
  }
  it.layer["core.suspend_s"] = median(s);
  it.layer["core.elect_s"] = median(e);
  it.layer["core.drain_s"] = median(d);
  it.layer["core.write_s"] = median(w);
  it.layer["core.refill_s"] = median(f);
  const double hosts = std::max(rr.hosts_reported, 1);
  it.layer["core.restart_files_s"] = rr.files_ptys_seconds / hosts;
  it.layer["core.restart_reconnect_s"] = rr.reconnect_seconds / hosts;
  it.layer["core.restart_memory_s"] = rr.memory_threads_seconds / hosts;
  it.layer["core.restart_refill_s"] = rr.refill_seconds;
}

/// Round/restart end-to-end metrics, common checks and the digest.
void report_rounds(Iteration& it, const char* who,
                   const std::vector<core::CkptRound>& rounds,
                   const core::RestartRun& rr, int expect_procs) {
  std::vector<double> pause, durable;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const auto& r = rounds[i];
    pause.push_back(r.total_seconds());
    durable.push_back(durable_seconds(r));
    it.ops.check(r.refilled > r.requested && r.procs == expect_procs,
                 std::string(who) + " round " + std::to_string(i) +
                     " completes with every process (" +
                     std::to_string(r.procs) + " of " +
                     std::to_string(expect_procs) + ")");
    digest_round(it.virtual_digest, who, r);
    add_critpath(it, r.critical_path);
  }
  it.ckpt_pause_s = median(pause);
  it.durable_s = median(durable);
  it.restart_s = rr.total_seconds();
  it.ops.check(rr.refilled > rr.script_started && !rr.needs_restore &&
                   rr.lost_chunks == 0 && rr.procs == expect_procs,
               std::string(who) + " restart brings back every process (" +
                   std::to_string(rr.procs) + " of " +
                   std::to_string(expect_procs) + ", lost_chunks " +
                   std::to_string(rr.lost_chunks) + ")");
  digest_restart(it.virtual_digest, who, rr);
  add_critpath(it, rr.critical_path);
  report_stages(it, rounds, rr);
}

void report_devices(Iteration& it, const DevBytes& before,
                    const DevBytes& after_rounds, const DevBytes& end) {
  it.ckpt_written_mb = mb(after_rounds.written - before.written);
  it.layer["sim.dev_write_mb"] = mb(end.written - before.written);
  it.layer["sim.dev_read_mb"] = mb(end.read - before.read);
  appendf(it.virtual_digest, "devices written=%llu read=%llu\n",
          static_cast<ull>(end.written - before.written),
          static_cast<ull>(end.read - before.read));
}

/// Store-service counters over the measured phase.
struct ServiceSnapshot {
  ckptstore::ServiceStats svc;
  rpc::RpcStats rpc;
  explicit ServiceSnapshot(const ckptstore::ChunkStoreService& s)
      : svc(s.stats()), rpc(s.fabric().stats()) {}
};

void report_service(Iteration& it, const ckptstore::ChunkStoreService& s,
                    const ServiceSnapshot& before) {
  const obs::Histogram waits = s.stats().lookup_wait.delta_since(
      before.svc.lookup_wait);
  it.layer["ckptstore.lookups"] = static_cast<double>(
      s.stats().lookup_requests - before.svc.lookup_requests);
  it.layer["ckptstore.lookup_wait_p50_ms"] = waits.quantile(0.50) * 1e3;
  it.layer["ckptstore.lookup_wait_p99_ms"] = waits.quantile(0.99) * 1e3;
  const auto& rpc = s.fabric().stats();
  it.layer["rpc.calls"] = static_cast<double>(rpc.calls - before.rpc.calls);
  it.layer["rpc.net_mb"] = mb(rpc.net_bytes - before.rpc.net_bytes);
  it.layer["rpc.net_wait_s"] =
      rpc.net_wait_seconds - before.rpc.net_wait_seconds;
}

void report_store_rounds(Iteration& it,
                         const std::vector<core::CkptRound>& rounds) {
  u64 new_bytes = 0, dup = 0, raw = 0, stored = 0;
  for (const auto& r : rounds) {
    new_bytes += r.store_new_bytes;
    dup += r.store_dup_bytes;
    raw += r.store_raw_new_bytes;
    stored += r.store_new_chunk_bytes;
  }
  it.layer["ckptstore.new_mb"] = mb(new_bytes);
  it.layer["ckptstore.dup_mb"] = mb(dup);
  it.layer["compress.ratio"] =
      raw > 0 ? static_cast<double>(stored) / static_cast<double>(raw) : 1.0;
}

void arm_tracing(core::DmtcpOptions& opts, bool traced,
                 const std::string& out_dir, const std::string& name) {
  if (!traced) return;
  opts.trace_out = out_dir + "/" + name + ".trace.json";
  opts.health_out = out_dir + "/" + name + ".health.json";
}

/// Deterministic incompressible bytes (the dirty data of store_incr).
std::vector<std::byte> random_bytes(u64 n, u64 seed) {
  std::vector<std::byte> out(n);
  u64 s = seed;
  for (u64 i = 0; i < n; i += 8) {
    const u64 v = ref_splitmix64(s);
    std::memcpy(out.data() + i, &v, std::min<u64>(8, n - i));
  }
  return out;
}

/// Deterministic compressible bytes: runs of 1-8 bytes over a 16-symbol
/// alphabet (the victim's memory in async_tenants).
std::vector<std::byte> runs_bytes(u64 n, u64 seed) {
  std::vector<std::byte> out(n);
  u64 s = seed;
  u64 i = 0;
  while (i < n) {
    const u64 v = ref_splitmix64(s);
    const auto sym = static_cast<std::byte>(v & 15);
    const u64 run = 1 + (v >> 8) % 8;
    for (u64 j = 0; j < run && i < n; ++j) out[i++] = sym;
  }
  return out;
}

/// Compare a live segment's content with a reference image, in windows.
bool same_content(const sim::ByteImage& got, const sim::ByteImage& want) {
  if (got.size() != want.size()) return false;
  constexpr u64 kWindow = 1 << 20;
  for (u64 off = 0; off < want.size(); off += kWindow) {
    const u64 n = std::min(kWindow, want.size() - off);
    const auto a = got.materialize(off, n);
    const auto b = want.materialize(off, n);
    if (std::memcmp(a.data(), b.data(), n) != 0) return false;
  }
  return true;
}

/// The live process on `node` holding segment `seg` (restored processes
/// keep their segment names), or nullptr.
sim::Process* process_with(sim::Kernel& k, NodeId node,
                           const std::string& seg) {
  for (const Pid pid : k.live_pids()) {
    sim::Process* p = k.find_process(pid);
    if (p != nullptr && p->node() == node && p->mem().find(seg) != nullptr) {
      return p;
    }
  }
  return nullptr;
}

// --- mpi_full ---------------------------------------------------------------

constexpr int kMpiNodes = 8;
constexpr int kMpiRanks = 32;
constexpr u64 kMpiIters = 1000;
constexpr int kMpiRounds = 3;
constexpr SimTime kMpiComputeGap = 250 * tc::kMillisecond;
constexpr const char* kMpiResult = "/shared/results/mg8";

/// The NAS kernels' final line: every rank folds a_{i+1} = mix(a_i, i)
/// from a_0 = 0 and the ranks allreduce a_N mod 100000.
std::string expected_nas_result(u64 iters, int np) {
  u64 a = 0;
  for (u64 i = 0; i < iters; ++i) a = ref_mix_seed(a, i);
  char out[96];
  std::snprintf(out, sizeof out, "sum=%llu iters=%llu np=%d",
                static_cast<ull>(static_cast<u64>(np) * (a % 100000)),
                static_cast<ull>(iters), np);
  return out;
}

std::string read_shared(sim::Kernel& k, const std::string& path) {
  auto inode = k.shared_fs().lookup(path);
  if (!inode) return "";
  const auto bytes = inode->data.materialize(0, inode->data.size());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

Iteration run_mpi_full(u64 seed, bool traced, const std::string& out_dir) {
  Iteration it;
  const double t_setup = host_now();
  core::DmtcpOptions opts;
  opts.codec = compress::CodecKind::kGzipish;
  arm_tracing(opts, traced, out_dir, "mpi_full");
  World w(kMpiNodes, opts, ref_mix_seed(seed, 0x3b1));
  auto& ctl = *w.ctl;
  ctl.launch(0, "orte_mpirun",
             mpi::mpirun_argv(kMpiRanks, kMpiNodes, "nas",
                              {"mg", std::to_string(kMpiIters), "mg8"}));
  ctl.run_for(500 * tc::kMillisecond);  // ranks up, ballast allocated
  it.setup_s = host_now() - t_setup;

  HostLedger host;
  const double t_wall = host_now();
  const DevBytes dev0 = device_bytes(w.k());
  // The seed staggers where in the compute the rounds land.
  const SimTime stagger = static_cast<SimTime>(seed % 50) * tc::kMillisecond;
  std::vector<core::CkptRound> rounds;
  for (int r = 0; r < kMpiRounds; ++r) {
    host.run_for(ctl, kMpiComputeGap + (r == 0 ? stagger : 0));
    rounds.push_back(host.checkpoint(ctl));
  }
  const DevBytes dev1 = device_bytes(w.k());
  ctl.kill_computation();
  const core::RestartRun rr = host.restart(ctl);
  const bool completed = host.run_until(
      ctl,
      [&] {
        return w.k().shared_fs().exists(kMpiResult) &&
               read_shared(w.k(), kMpiResult).find(" np=") !=
                   std::string::npos;
      },
      600 * tc::kSecond);
  it.wall_s = host_now() - t_wall;
  const DevBytes dev2 = device_bytes(w.k());

  const int procs = rounds.front().procs;
  it.ops.check(procs > kMpiRanks, "mpi_full round 0 checkpoints all " +
                                      std::to_string(kMpiRanks) +
                                      " ranks plus the MPI daemons");
  report_rounds(it, "mpi", rounds, rr, procs);
  for (size_t i = 0; i < rounds.size(); ++i) {
    it.ops.check(rounds[i].total_compressed > 0 &&
                     rounds[i].total_compressed <
                         rounds[i].total_uncompressed,
                 "mpi_full round " + std::to_string(i) +
                     " gzip image is smaller than the raw image");
  }
  it.ops.check(completed, "NAS MG runs to completion after restart");
  const std::string got = read_shared(w.k(), kMpiResult);
  const std::string want = expected_nas_result(kMpiIters, kMpiRanks);
  it.ops.check(got == want, "NAS MG result '" + got + "' == '" + want + "'");
  appendf(it.virtual_digest, "result %s\n", got.c_str());
  report_devices(it, dev0, dev1, dev2);
  host.report(it);

  std::vector<double> image, compressed;
  for (const auto& r : rounds) {
    image.push_back(mb(r.total_uncompressed));
    compressed.push_back(mb(r.total_compressed));
  }
  it.layer["mtcp.image_mb"] = median(image);
  it.layer["mtcp.compressed_mb"] = median(compressed);
  it.layer["compress.ratio"] =
      median(image) > 0 ? median(compressed) / median(image) : 0;
  if (traced) {
    ctl.flush_observability();
    it.health_json = ctl.health_json();
  }
  return it;
}

/// A rank-shaped slice of NAS MG memory: 62% zero ballast, pattern
/// ballast, then the doubles the kernel iterates on.
std::vector<std::byte> mpi_full_input(u64 seed) {
  constexpr u64 kBytes = 4 << 20;
  sim::ByteImage img(kBytes);
  img.fill(kBytes * 62 / 100, kBytes / 4, sim::ExtentKind::kRand,
           ref_mix_seed(0xba11, seed));
  std::vector<double> v(kBytes / 8 / 8);
  u64 acc = seed;
  for (size_t i = 0; i < v.size(); ++i) {
    acc = ref_mix_seed(acc, i);
    v[i] = static_cast<double>(acc % 1000) * 0.75;
  }
  img.write(kBytes - v.size() * 8, std::as_bytes(std::span(v)));
  return img.materialize(0, kBytes);
}

// --- store_incr --------------------------------------------------------------

constexpr int kStoreRanks = 4;
constexpr int kStoreNodes = 8;  // ranks 0-3, shard endpoints 4-5, spares
constexpr u64 kStoreLibBytes = 4ull << 20;
constexpr u64 kStorePrivBytes = 8ull << 20;
constexpr int kStoreGens = 5;  // one full generation + four incremental
constexpr NodeId kStoreLostNode = kStoreNodes - 1;

core::DmtcpOptions store_chunking(core::DmtcpOptions o) {
  o.incremental = true;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 4 * 1024;
  o.cdc_avg_bytes = 16 * 1024;
  o.cdc_max_bytes = 64 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  return o;
}

u64 lib_seed(u64 seed) { return ref_mix_seed(seed, 0x11b); }
u64 priv_seed(u64 seed, int rank) {
  return ref_mix_seed(seed, 0xb0, static_cast<u64>(rank));
}

/// Generation g (>= 1) rewrites quarter (g-1) mod 4 of the private segment.
u64 dirty_offset(int g) {
  return static_cast<u64>((g - 1) % 4) * (kStorePrivBytes / 4);
}
std::vector<std::byte> dirty_bytes(u64 seed, int rank, int g) {
  return random_bytes(kStorePrivBytes / 4,
                      ref_mix_seed(seed, static_cast<u64>(rank),
                                   0xd100 + static_cast<u64>(g)));
}

Iteration run_store_incr(u64 seed, bool traced, const std::string& out_dir) {
  Iteration it;
  const double t_setup = host_now();
  core::DmtcpOptions opts = store_chunking({});
  opts.codec = compress::CodecKind::kNone;
  opts.erasure_k = 4;
  opts.erasure_m = 2;
  opts.store_node = kStoreRanks;
  opts.store_shards = 2;
  arm_tracing(opts, traced, out_dir, "store_incr");
  World w(kStoreNodes, opts, ref_mix_seed(seed, 0x5701));
  auto& ctl = *w.ctl;
  std::vector<Pid> pids;
  for (int n = 0; n < kStoreRanks; ++n) {
    pids.push_back(ctl.launch(n, "desktop_app",
                              {"bc", "0", "r" + std::to_string(n)}));
  }
  ctl.run_for(50 * tc::kMillisecond);
  std::vector<sim::MemSegment*> priv;
  for (int n = 0; n < kStoreRanks; ++n) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
    auto& lib = p->mem().add("libshared", sim::MemKind::kLib, kStoreLibBytes);
    lib.data.fill(0, kStoreLibBytes, sim::ExtentKind::kRand, lib_seed(seed));
    auto& seg = p->mem().add("private", sim::MemKind::kHeap, kStorePrivBytes);
    seg.data.fill(0, kStorePrivBytes, sim::ExtentKind::kRand,
                  priv_seed(seed, n));
    priv.push_back(&seg);
  }
  it.setup_s = host_now() - t_setup;

  auto& svc = *ctl.shared().store_service;
  const ServiceSnapshot svc0(svc);
  HostLedger host;
  const double t_wall = host_now();
  const DevBytes dev0 = device_bytes(w.k());
  std::vector<core::CkptRound> rounds;
  for (int g = 0; g < kStoreGens; ++g) {
    if (g > 0) {
      host.run_for(ctl, 100 * tc::kMillisecond);
      for (int n = 0; n < kStoreRanks; ++n) {
        priv[static_cast<size_t>(n)]->data.write(dirty_offset(g),
                                                 dirty_bytes(seed, n, g));
      }
    }
    rounds.push_back(host.checkpoint(ctl));
  }
  const DevBytes dev1 = device_bytes(w.k());
  // A spare node dies with no heal window: restart reads through parity.
  svc.fail_node(kStoreLostNode);
  const u64 degraded_before_restart = svc.placement().degraded_count();
  const u64 lost_before_restart = svc.placement().lost_chunks();
  ctl.kill_computation();
  const core::RestartRun rr = host.restart(ctl);
  it.wall_s = host_now() - t_wall;
  const DevBytes dev2 = device_bytes(w.k());

  report_rounds(it, "store", rounds, rr, rounds.front().procs);
  it.ops.check(degraded_before_restart > 0 && lost_before_restart == 0,
               "the lost node held fragments of " +
                   std::to_string(degraded_before_restart) +
                   " chunks and (4,2) erasure loses none of them");
  u64 logical = 0, stored = 0;
  for (const auto& r : rounds) {
    logical += r.total_uncompressed;
    stored += r.store_new_bytes;
  }
  it.ops.check(stored < logical, "store_incr stores fewer bytes (" +
                                     std::to_string(stored) +
                                     ") than it checkpoints (" +
                                     std::to_string(logical) + ")");
  // The first generation stores the shared library once: the other three
  // ranks' copies are answered by resident chunks.
  it.ops.check(rounds.front().store_dup_bytes >=
                   (kStoreRanks - 1) * kStoreLibBytes,
               "shared-library chunks are stored once (dup bytes " +
                   std::to_string(rounds.front().store_dup_bytes) + ")");
  for (int n = 0; n < kStoreRanks; ++n) {
    sim::ByteImage want_priv(kStorePrivBytes);
    want_priv.fill(0, kStorePrivBytes, sim::ExtentKind::kRand,
                   priv_seed(seed, n));
    for (int g = 1; g < kStoreGens; ++g) {
      want_priv.write(dirty_offset(g), dirty_bytes(seed, n, g));
    }
    sim::ByteImage want_lib(kStoreLibBytes);
    want_lib.fill(0, kStoreLibBytes, sim::ExtentKind::kRand, lib_seed(seed));
    sim::Process* p = process_with(w.k(), n, "private");
    const std::string rank = "store_incr rank " + std::to_string(n);
    it.ops.check(p != nullptr && same_content(p->mem().find("private")->data,
                                              want_priv),
                 rank + " private memory restored exactly");
    it.ops.check(p != nullptr && p->mem().find("libshared") != nullptr &&
                     same_content(p->mem().find("libshared")->data, want_lib),
                 rank + " library segment restored exactly");
  }
  report_devices(it, dev0, dev1, dev2);
  report_service(it, svc, svc0);
  report_store_rounds(it, rounds);
  host.report(it);
  if (traced) {
    ctl.flush_observability();
    it.health_json = ctl.health_json();
  }
  return it;
}

/// A private segment after one dirty generation: pattern ballast with a
/// quarter rewritten by real, incompressible bytes.
std::vector<std::byte> store_incr_input(u64 seed) {
  sim::ByteImage img(kStorePrivBytes);
  img.fill(0, kStorePrivBytes, sim::ExtentKind::kRand, priv_seed(seed, 0));
  img.write(dirty_offset(1), dirty_bytes(seed, 0, 1));
  return img.materialize(0, kStorePrivBytes / 2);
}

// --- async_tenants ----------------------------------------------------------

constexpr int kTenantRanks = 4;
constexpr NodeId kVictimNode = kTenantRanks;
constexpr NodeId kTenantStoreNode = kTenantRanks + 1;
constexpr int kTenantNodes = kTenantRanks + 2;
constexpr u64 kTenantLibBytes = 2ull << 20;
constexpr u64 kTenantPrivBytes = 16ull << 20;
constexpr u64 kVictimBytes = 8ull << 20;
constexpr int kTenantRounds = 6;

core::DmtcpOptions tenant_opts(int tenant, u16 port) {
  core::DmtcpOptions o = store_chunking({});
  o.codec = compress::CodecKind::kNone;
  o.store_node = kTenantStoreNode;
  o.store_shards = 1;
  o.lookup_batch = 16;
  o.fair_queueing = true;
  o.chunk_replicas = 2;
  o.tenant_id = tenant;
  o.coord_port = port;
  o.ckpt_dir = "/ckpt/t" + std::to_string(tenant);
  return o;
}

u64 noisy_seed(u64 seed, int rank) {
  return ref_mix_seed(seed, 0x7e2a, static_cast<u64>(rank));
}

/// Round g (>= 1) rewrites quarter (g-1) mod 4 of the victim's memory.
u64 victim_offset(int g) {
  return static_cast<u64>((g - 1) % 4) * (kVictimBytes / 4);
}
std::vector<std::byte> victim_bytes(u64 seed, int g) {
  const u64 n = g == 0 ? kVictimBytes : kVictimBytes / 4;
  return runs_bytes(n, ref_mix_seed(seed, 0x71c, static_cast<u64>(g)));
}

Iteration run_async_tenants(u64 seed, bool traced,
                            const std::string& out_dir) {
  Iteration it;
  const double t_setup = host_now();
  core::DmtcpOptions host_opts = tenant_opts(1, 7779);
  arm_tracing(host_opts, traced, out_dir, "async_tenants");
  core::DmtcpOptions guest_opts = tenant_opts(2, 7791);
  guest_opts.ckpt_async = true;
  guest_opts.codec = compress::CodecKind::kGzipish;
  guest_opts.tenant_weight = 4.0;

  sim::Cluster cluster(World::config(kTenantNodes, ref_mix_seed(seed, 0x7e1a)));
  core::DmtcpControl host(cluster.kernel(), host_opts);
  core::DmtcpControl guest(host, guest_opts);
  World::register_apps(cluster.kernel());
  sim::Kernel& k = cluster.kernel();
  auto& svc = *host.shared().store_service;

  std::vector<Pid> noisy;
  for (int n = 0; n < kTenantRanks; ++n) {
    noisy.push_back(
        host.launch(n, "desktop_app", {"bc", "0", "p" + std::to_string(n)}));
  }
  const Pid victim = guest.launch(kVictimNode, "desktop_app",
                                  {"bc", "0", "victim"});
  host.run_for(50 * tc::kMillisecond);
  auto fill_noisy = [&] {
    // Same seeds every time: the pages are dirtied but every chunk key is
    // unchanged, so the noisy rounds are pure dedup-probe storms.
    for (int n = 0; n < kTenantRanks; ++n) {
      sim::Process* p = k.find_process(noisy[static_cast<size_t>(n)]);
      for (const auto& [name, kind, bytes, s] :
           {std::tuple{"libshared", sim::MemKind::kLib, kTenantLibBytes,
                       lib_seed(seed)},
            std::tuple{"private", sim::MemKind::kHeap, kTenantPrivBytes,
                       noisy_seed(seed, n)}}) {
        sim::MemSegment* seg = p->mem().find(name);
        if (seg == nullptr) seg = &p->mem().add(name, kind, bytes);
        seg->data.fill(0, bytes, sim::ExtentKind::kRand, s);
      }
    }
  };
  fill_noisy();
  sim::Process* vp = k.find_process(victim);
  vp->mem()
      .add("libshared", sim::MemKind::kLib, kTenantLibBytes)
      .data.fill(0, kTenantLibBytes, sim::ExtentKind::kRand, lib_seed(seed));
  sim::MemSegment* vseg =
      &vp->mem().add("victim", sim::MemKind::kHeap, kVictimBytes);
  std::vector<std::byte> victim_model = victim_bytes(seed, 0);
  vseg->data.write(0, victim_model);
  auto pipe = guest.shared().async_pipeline;
  const auto drained = [&] { return pipe->idle(); };
  // Warm generation: both tenants' content becomes resident, so measured
  // storm rounds probe without storing.
  host.checkpoint_now();
  guest.checkpoint_now();
  guest.run_until(drained, k.loop().now() + 600 * tc::kSecond);
  it.setup_s = host_now() - t_setup;

  const ServiceSnapshot svc0(svc);
  const obs::Histogram victim_wait0 = svc.tenants().stats(2).wait;
  const ckptasync::PipelineStats pipe0 = pipe->stats();
  HostLedger ledger;
  double drain_host = 0;
  const double t_wall = host_now();
  const DevBytes dev0 = device_bytes(k);
  std::vector<core::CkptRound> storm_rounds, victim_rounds;
  for (int g = 1; g <= kTenantRounds; ++g) {
    fill_noisy();
    const auto dirty = victim_bytes(seed, g);
    vseg->data.write(victim_offset(g), dirty);
    std::copy(dirty.begin(), dirty.end(),
              victim_model.begin() + static_cast<std::ptrdiff_t>(
                                         victim_offset(g)));
    // The storm goes first and is through its suspend/drain stages when
    // the victim's round starts, so the victim probes beside its bulk.
    host.request_checkpoint();
    const size_t storm_index = host.stats().rounds.size();
    ledger.run_for(host, 30 * tc::kMillisecond);
    ledger.checkpoint(guest);
    const double t_drain = host_now();
    const bool storm_done = ledger.run_until(
        host,
        [&] {
          const auto& rs = host.stats().rounds;
          return rs.size() > storm_index && rs[storm_index].refilled != 0;
        },
        600 * tc::kSecond);
    const bool durable = ledger.run_until(guest, drained, 600 * tc::kSecond);
    drain_host += host_now() - t_drain;
    it.ops.check(storm_done, "noisy tenant round " + std::to_string(g) +
                                 " completes");
    it.ops.check(durable, "victim round " + std::to_string(g) +
                              " drains to the store");
    storm_rounds.push_back(storm_done ? host.stats().rounds[storm_index]
                                      : core::CkptRound{});
    // Read after the drain: the drain end is stamped on the recorded round.
    victim_rounds.push_back(guest.stats().rounds.back());
  }
  const DevBytes dev1 = device_bytes(k);
  guest.kill_computation();
  const core::RestartRun rr = ledger.restart(guest);
  it.wall_s = host_now() - t_wall;
  const DevBytes dev2 = device_bytes(k);

  for (size_t i = 0; i < storm_rounds.size(); ++i) {
    it.ops.check(storm_rounds[i].procs == kTenantRanks,
                 "noisy round " + std::to_string(i) + " covers every rank");
    digest_round(it.virtual_digest, "storm", storm_rounds[i]);
  }
  report_rounds(it, "victim", victim_rounds, rr, 1);
  const ckptasync::PipelineStats& ps = pipe->stats();
  const u64 raw = ps.raw_new_bytes - pipe0.raw_new_bytes;
  const u64 compressed = ps.compressed_new_bytes - pipe0.compressed_new_bytes;
  it.ops.check(compressed > 0 && compressed < raw,
               "victim's gzip containers (" + std::to_string(compressed) +
                   " B) are smaller than its raw chunks (" +
                   std::to_string(raw) + " B)");
  sim::Process* restored = process_with(k, kVictimNode, "victim");
  bool same = restored != nullptr;
  if (same) {
    const auto got = restored->mem().find("victim")->data.materialize(
        0, kVictimBytes);
    same = got == victim_model;
  }
  it.ops.check(same, "victim memory restored to the bytes written to it");

  const obs::Histogram vwait =
      svc.tenants().stats(2).wait.delta_since(victim_wait0);
  it.layer["ckptstore.victim_wait_p99_ms"] = vwait.quantile(0.99) * 1e3;
  // The pooled p99 needs at least ten samples above it.
  it.ops.check(vwait.count() >= 1000,
               "victim request-wait pool holds >= 1000 samples (" +
                   std::to_string(vwait.count()) + ")");
  it.layer["ckptasync.queued_mb"] = mb(ps.queued_bytes - pipe0.queued_bytes);
  it.layer["ckptasync.drain_s"] = ps.drain_seconds - pipe0.drain_seconds;
  it.layer["ckptasync.cow_pages"] =
      static_cast<double>(ps.cow_pages_copied - pipe0.cow_pages_copied);
  it.layer["ckptasync.drain_host_s"] = drain_host;
  appendf(it.virtual_digest, "pipeline raw=%llu compressed=%llu\n",
          static_cast<ull>(raw), static_cast<ull>(compressed));
  report_devices(it, dev0, dev1, dev2);
  report_service(it, svc, svc0);
  report_store_rounds(it, victim_rounds);
  // Async rounds close before their drain; the pipeline holds the codec
  // totals of what it drained.
  it.layer["compress.ratio"] =
      raw > 0 ? static_cast<double>(compressed) / static_cast<double>(raw)
              : 0;
  ledger.report(it);
  if (traced) {
    host.flush_observability();
    it.health_json = host.health_json();
  }
  return it;
}

std::vector<std::byte> async_tenants_input(u64 seed) {
  return victim_bytes(seed, 0);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"mpi_full", run_mpi_full, mpi_full_input},
      {"store_incr", run_store_incr, store_incr_input},
      {"async_tenants", run_async_tenants, async_tenants_input},
  };
  return kAll;
}

}  // namespace perfbench

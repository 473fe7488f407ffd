// Kernel replays: the host-side kernels the checkpoint path spends its
// wall-clock in, timed in isolation on a workload-shaped input and each
// checked against a computation made here, apart from the code it checks.
#include <algorithm>
#include <array>
#include <functional>

#include "bench.h"
#include "ckptstore/cdc.h"
#include "ckptstore/chunk.h"
#include "ckptstore/erasure.h"
#include "compress/compressor.h"
#include "sim/byte_image.h"
#include "sim/event_loop.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

using namespace dsim;

constexpr int kReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

/// Median host seconds of `kReps` calls of `fn`.
double time_median(const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = host_now();
    fn();
    t.push_back(host_now() - t0);
  }
  return median(t);
}

double mbps(u64 bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / kMiB / seconds : 0;
}

/// The chunk store's 128-bit content address: two FNV-1a streams, the
/// second folded with the splitmix finalizer of the length.
ckptstore::ChunkKey ref_content_key(std::span<const std::byte> data) {
  u64 len = data.size();
  ckptstore::ChunkKey k;
  k.hi = ref_fnv1a64(data);
  k.lo = ref_fnv1a64(data, 0x84222325CBF29CE4ull) ^ ref_splitmix64(len);
  return k;
}

}  // namespace

void run_replays(const std::vector<std::byte>& input, u64 seed, Ops& ops,
                 std::map<std::string, double>& layer) {
  const u64 n = input.size();
  const std::span<const std::byte> in(input);

  // util: table CRC-32 against a bitwise CRC-32.
  u32 crc = 0;
  layer["util.crc32_mbps"] =
      mbps(n, time_median([&] { crc = crc32(in); }));
  ops.check(crc == ref_crc32(input.data(), n),
            "crc32 equals the bitwise CRC-32");

  // sim: pseudo-random pattern fill + materialize against the pattern's
  // definition f(seed, pos).
  std::vector<std::byte> filled;
  layer["sim.byteimage_fill_mbps"] = mbps(n, time_median([&] {
    sim::ByteImage img(n);
    img.fill(0, n, sim::ExtentKind::kRand, seed);
    filled = img.materialize(0, n);
  }));
  bool fill_ok = filled.size() == n;
  for (u64 i = 0; fill_ok && i < n; ++i) {
    fill_ok = static_cast<u8>(filled[i]) == ref_rand_byte(seed, i);
  }
  ops.check(fill_ok, "kRand fill materializes f(seed, pos) at every byte");

  // ckptstore: gear CDC cut points over real bytes.
  sim::ByteImage real(n);
  real.write(0, in);
  ckptstore::ChunkingParams cdc;
  cdc.mode = ckptstore::ChunkingMode::kCdc;
  cdc.min_bytes = 4 * 1024;
  cdc.avg_bytes = 16 * 1024;
  cdc.max_bytes = 64 * 1024;
  std::vector<ckptstore::ChunkSpan> spans;
  layer["ckptstore.cdc_mbps"] = mbps(
      n, time_median([&] { spans = ckptstore::scan_chunks_cdc(real, cdc); }));
  bool cuts_ok = !spans.empty();
  u64 next = 0;
  for (size_t i = 0; cuts_ok && i < spans.size(); ++i) {
    const bool last = i + 1 == spans.size();
    cuts_ok = spans[i].off == next && spans[i].len <= cdc.max_bytes &&
              (last || spans[i].len >= cdc.min_bytes);
    next += spans[i].len;
  }
  ops.check(cuts_ok && next == n,
            "CDC spans tile the input with lengths within [min, max]");

  // ckptstore: content keys of each span against FNV-1a written here.
  std::vector<ckptstore::ChunkKey> keys(spans.size());
  layer["ckptstore.content_key_mbps"] = mbps(n, time_median([&] {
    for (size_t i = 0; i < spans.size(); ++i) {
      keys[i] = ckptstore::content_key(in.subspan(spans[i].off, spans[i].len));
    }
  }));
  bool keys_ok = true;
  for (size_t i = 0; keys_ok && i < spans.size(); ++i) {
    keys_ok = keys[i] ==
              ref_content_key(in.subspan(spans[i].off, spans[i].len));
  }
  ops.check(keys_ok, "content keys equal the two-stream FNV-1a address");

  // compress: the gzip-class codec both ways; the round trip is identity.
  const auto& gz = compress::codec(compress::CodecKind::kGzipish);
  std::vector<std::byte> packed, unpacked;
  layer["compress.gzipish_mbps"] =
      mbps(n, time_median([&] { packed = gz.compress(in); }));
  layer["compress.gzipish_decode_mbps"] =
      mbps(n, time_median([&] { unpacked = gz.decompress(packed); }));
  ops.check(unpacked == input, "gzip-class codec round trip is identity");

  // ckptstore: (4,2) Reed-Solomon over chunk-sized containers; rebuild
  // each chunk from one of several distinct 4-subsets of its fragments.
  constexpr int kK = 4, kM = 2;
  std::vector<std::vector<std::vector<std::byte>>> frags(spans.size());
  layer["ckptstore.erasure_encode_mbps"] = mbps(n, time_median([&] {
    for (size_t i = 0; i < spans.size(); ++i) {
      frags[i] = ckptstore::erasure::encode(
          in.subspan(spans[i].off, spans[i].len), kK, kM);
    }
  }));
  static constexpr std::array<std::array<int, kK>, 4> kSubsets = {
      {{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 2, 4, 5}, {1, 3, 4, 5}}};
  std::vector<std::vector<std::byte>> rebuilt(spans.size());
  layer["ckptstore.erasure_decode_mbps"] = mbps(n, time_median([&] {
    for (size_t i = 0; i < spans.size(); ++i) {
      std::vector<std::pair<int, std::vector<std::byte>>> have;
      for (const int f : kSubsets[i % kSubsets.size()]) {
        have.emplace_back(f, frags[i][static_cast<size_t>(f)]);
      }
      rebuilt[i] = ckptstore::erasure::reconstruct(have, kK, kM, spans[i].len);
    }
  }));
  bool rs_ok = spans.size() >= kSubsets.size();
  for (size_t i = 0; rs_ok && i < spans.size(); ++i) {
    const auto want = in.subspan(spans[i].off, spans[i].len);
    rs_ok = frags[i].size() == kK + kM && rebuilt[i].size() == want.size() &&
            std::equal(want.begin(), want.end(), rebuilt[i].begin());
  }
  ops.check(rs_ok, "every chunk rebuilds from four distinct 4-of-6 subsets");

  // sim: event-loop post + run; every posted event fires once, in time
  // order.
  constexpr u64 kEvents = 1u << 18;
  u64 fired = 0;
  bool ordered = true;
  layer["sim.eventloop_mevents_s"] =
      static_cast<double>(kEvents) / 1e6 / time_median([&] {
        sim::EventLoop loop;
        fired = 0;
        SimTime last = 0;
        u64 s = seed;
        for (u64 i = 0; i < kEvents; ++i) {
          const auto t = static_cast<SimTime>(ref_splitmix64(s) % 1000000000);
          loop.post_at(t, [&] {
            ordered = ordered && loop.now() >= last;
            last = loop.now();
            ++fired;
          });
        }
        loop.run();
      });
  ops.check(fired == kEvents && ordered,
            "event loop fires every posted event once, in time order");
}

}  // namespace perfbench

// T8 — Hot-path raw throughput: SIMD vs scalar kernels, dedup probes.
//
// Two families of rows, all RESULT lines tagged gated:false — wall-
// clock MB/s is machine-dependent by design, so the artifact tracks it
// but check_regression.py never compares it against baselines.json:
//
//   * bytes/s for the byte-crunching kernels the checkpoint pipeline
//     charges on every chunk — CRC32C, CRC64, the intra-buffer XOR
//     delta pair, XOR-against-parent, and the RLE encoder scan — each
//     measured through the dispatched (SIMD) entry point AND the
//     scalar oracle kept for parity testing. The "speedup_x" field is
//     the ratio; on SSE4.2+PCLMUL hardware CRC32C should clear 1.
//   * chunks/s for dedup probes against one ChunkStore from one thread,
//     the store's single owner: the price of a probe, one lookup in the
//     chunk index under the store mutex.
//
// RLE rows run two content regimes: "entropy" (incompressible, the
// scan's worst case and the vectorization target) and "runny" (mostly
// repeats, where run extension dominates the scan).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/cas.hpp"
#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "io/mem_env.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace qnn;

namespace {

constexpr std::size_t kBufBytes = 1 << 20;  // 1 MiB per kernel pass
constexpr int kPasses = 64;                 // 64 MiB per measurement

util::Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

util::Bytes runny_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes out(n);
  std::size_t i = 0;
  while (i < n) {
    const auto b = static_cast<std::uint8_t>(rng());
    std::size_t run = 1 + rng() % 64;
    while (run-- > 0 && i < n) {
      out[i++] = b;
    }
  }
  return out;
}

/// Runs `fn(buffer)` kPasses times and returns MB/s (decimal MB).
template <typename Fn>
double throughput_mb_s(util::ByteSpan buf, Fn&& fn) {
  // One warmup pass settles dispatch latching and cache state.
  fn(buf);
  util::Timer t;
  for (int i = 0; i < kPasses; ++i) {
    fn(buf);
  }
  const double s = t.seconds();
  return s > 0.0
             ? static_cast<double>(buf.size()) * kPasses / s / 1e6
             : 0.0;
}

void emit_kernel_row(const char* metric, const char* content, double simd,
                     double scalar) {
  const double speedup = scalar > 0.0 ? simd / scalar : 0.0;
  std::printf("%-16s %-8s %10.0f %10.0f %7.2fx\n", metric, content, simd,
              scalar, speedup);
  bench::JsonLine("t8")
      .field("metric", metric)
      .field("content", content)
      .field("backend", util::crc_backend())
      .field("simd_mb_s", simd)
      .field("scalar_mb_s", scalar)
      .field("speedup_x", speedup)
      .field("gated", false)
      .emit();
}

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

void bench_kernels() {
  const util::Bytes entropy = random_bytes(kBufBytes, 42);
  const util::Bytes runny = runny_bytes(kBufBytes, 43);
  const util::Bytes parent = random_bytes(kBufBytes, 44);

  std::printf("%-16s %-8s %10s %10s %8s\n", "kernel", "content", "simd",
              "scalar", "speedup");
  bench::rule(56);

  emit_kernel_row("crc32c", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + util::crc32c(b);
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + util::crc32c_scalar(b);
                  }));
  emit_kernel_row("crc64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + util::crc64(b);
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + util::crc64_scalar(b);
                  }));
  emit_kernel_row("xor_delta64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + codec::xor_delta64(b)[0];
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::xor_delta64_scalar(b)[0];
                  }));
  emit_kernel_row("xor_undelta64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::xor_undelta64(b)[0];
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::xor_undelta64_scalar(b)[0];
                  }));
  emit_kernel_row(
      "xor_with_parent", "entropy",
      throughput_mb_s(entropy,
                      [&](util::ByteSpan b) {
                        g_sink = g_sink + codec::xor_with_parent(b, parent)[0];
                      }),
      throughput_mb_s(entropy, [&](util::ByteSpan b) {
        g_sink = g_sink + codec::xor_with_parent_scalar(b, parent)[0];
      }));
  emit_kernel_row("rle_encode", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::rle_encode(b).size();
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::rle_encode_scalar(b).size();
                  }));
  emit_kernel_row("rle_encode", "runny",
                  throughput_mb_s(runny,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::rle_encode(b).size();
                                  }),
                  throughput_mb_s(runny, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::rle_encode_scalar(b).size();
                  }));
}

// --- dedup probes -----------------------------------------------------------

constexpr std::size_t kProbeChunks = 2048;
constexpr std::size_t kProbes = 200000;

void bench_probes() {
  io::MemEnv env;
  ckpt::ChunkStore store(env, "/bench");

  // Populate: one batch stores kProbeChunks distinct small chunks.
  std::vector<ckpt::ChunkKey> keys;
  keys.reserve(kProbeChunks);
  {
    auto batch = store.begin_batch(1);
    for (std::size_t i = 0; i < kProbeChunks; ++i) {
      const util::Bytes chunk = random_bytes(256, 1000 + i);
      const ckpt::ChunkKey key{util::crc32c(chunk), chunk.size()};
      keys.push_back(key);
      if (!batch->contains(key)) {
        batch->put(key, codec::CodecId::kRaw, chunk);
      }
    }
    batch->commit();
    store.publish(*batch);
  }

  std::printf("\n%-16s %10s %14s\n", "dedup probes", "threads", "chunks/s");
  bench::rule(56);
  util::Timer t;
  auto batch = store.begin_batch(100);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    hits += batch->contains(keys[(i * 3) % keys.size()]) ? 1 : 0;
  }
  g_sink = g_sink + hits;
  const double s = t.seconds();
  const double rate = s > 0.0 ? static_cast<double>(kProbes) / s : 0.0;
  std::printf("%-16s %10d %14.0f\n", "", 1, rate);
  bench::JsonLine("t8")
      .field("metric", "dedup_probe")
      .field("threads", 1)
      .field("chunks_per_s", rate)
      .field("gated", false)
      .emit();
}

}  // namespace

int main() {
  bench::banner("T8", "hot-path raw throughput (SIMD kernels, dedup probes)");
  std::printf("crc backend: %s (QNNCKPT_FORCE_SCALAR_CRC to force scalar)\n\n",
              util::crc_backend());
  bench_kernels();
  bench_probes();
  std::printf(
      "\nclaim check: the dispatched CRC/codec kernels beat the scalar\n"
      "oracles on SIMD hardware (speedup > 1; identical bytes either\n"
      "way); the probe row prices one dedup lookup under the store\n"
      "mutex. Rows are gated:false — tracked as artifacts, never\n"
      "baseline-gated.\n");
  return 0;
}

// Compression codecs for checkpoint sections.
//
// Checkpoint payloads fall into two regimes:
//   * optimiser-dominated data (parameters, Adam moments, loss history):
//     doubles that move slowly between checkpoints — XOR-delta against the
//     parent checkpoint turns them into sparse, highly compressible byte
//     streams (long zero runs), which Rle/Lz then collapse;
//   * statevector amplitudes: near-incompressible high-entropy doubles —
//     codecs must degrade gracefully (bounded expansion, high throughput).
//
// All codecs are self-contained (no external libraries) and deterministic.
// A section records its CodecId so readers are self-describing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/bytes.hpp"

namespace qnn::codec {

using util::Bytes;
using util::ByteSpan;

/// On-disk codec identifiers. Values are part of the checkpoint format —
/// never renumber.
enum class CodecId : std::uint8_t {
  kRaw = 0,      ///< identity
  kRle = 1,      ///< byte run-length encoding
  kLz = 2,       ///< LZ77, greedy hash-chain matcher
  kDeltaLz = 3,  ///< intra-buffer 64-bit XOR delta, then LZ
  kDeltaRle = 4, ///< intra-buffer 64-bit XOR delta, then RLE
};

/// Human-readable codec name ("raw", "rle", ...).
std::string codec_name(CodecId id);

/// Parses a codec name; throws std::invalid_argument on unknown names.
CodecId codec_from_name(const std::string& name);

/// Encodes `raw` with the given codec. Every codec has bounded worst-case
/// expansion (<= raw.size() + raw.size()/128 + 16 bytes).
Bytes encode(CodecId id, ByteSpan raw);

/// Payloads at least this long are probed (worth_encoding) before a
/// full encode; shorter ones are always encoded whole.
inline constexpr std::size_t kProbeMinBytes = std::size_t{64} << 10;

/// Sampled probe: whether a full encode of the payload `raw` followed by
/// `tail` with `id` may come out smaller than the payload. False for
/// kRaw; true below kProbeMinBytes. Otherwise it encodes 8 evenly spaced
/// 4 KiB slices, [j*(n/8), j*(n/8) + 4096) for j = 0..7, each as its own
/// call, and returns whether their total is below 32 KiB. It encodes 32
/// KiB whatever the payload's size: an eighth of a full encode at 256
/// KiB. The two parts are read in place; only a slice that spans both is
/// assembled.
///
/// Blind spot: it sees redundancy within a slice only. A payload that
/// repeats at a distance longer than 4 KiB but inside LZ's 64 KiB window
/// (a noise block repeated every 16 KiB, say) probes as incompressible,
/// although LZ would shrink it.
bool worth_encoding(CodecId id, ByteSpan raw, ByteSpan tail = {});

/// Decodes an encode() output. `raw_len` is the expected decoded size
/// (stored in the section header); mismatch raises std::runtime_error, as
/// does any malformed stream.
Bytes decode(CodecId id, ByteSpan encoded, std::size_t raw_len);

/// Receives decoded bytes in order: `bytes` start at `offset` in the
/// output. The span is valid during the call only.
using DecodeSink = std::function<void(std::size_t offset, ByteSpan bytes)>;

/// decode() that hands the output to `emit` piece by piece instead of
/// returning it, so a caller can apply it where it belongs (XOR it into
/// a payload, or copy it in). kLz streams through a window of 64 KiB of
/// history plus one 256 KiB piece and rejects a match reaching more than
/// 64 KiB back, which lz_encode never writes; kRaw hands over `encoded`
/// itself; the other codecs decode whole, as decode() does, and emit
/// once. A malformed stream throws as in decode(), possibly after some
/// pieces were emitted.
void decode_to(CodecId id, ByteSpan encoded, std::size_t raw_len,
               const DecodeSink& emit);

/// Proves decode_to(id, encoded, raw_len, ...) succeeds without writing
/// its output: throws what it would throw, else returns. kLz walks the
/// tokens through the checks of decode_to's own loop and writes nothing;
/// kRaw checks the length; the other codecs decode whole and drop it.
void check_decodes(CodecId id, ByteSpan encoded, std::size_t raw_len);

/// All codecs, for sweep-style tests and the T2 codec shootout.
inline constexpr CodecId kAllCodecs[] = {CodecId::kRaw, CodecId::kRle,
                                         CodecId::kLz, CodecId::kDeltaLz,
                                         CodecId::kDeltaRle};

// --- individual codec entry points (exposed for unit tests) ---

Bytes rle_encode(ByteSpan raw);
Bytes rle_decode(ByteSpan encoded, std::size_t raw_len);

/// Scalar-scan reference encoder: byte-identical token stream to
/// rle_encode (which vectorizes the run scan). Parity oracle for tests
/// and the forced-scalar rows of the throughput bench.
Bytes rle_encode_scalar(ByteSpan raw);

Bytes lz_encode(ByteSpan raw);
Bytes lz_decode(ByteSpan encoded, std::size_t raw_len);
/// The windowed form of lz_decode behind decode_to(kLz, ...): the same
/// token loop, holding kWindow of history plus one piece.
void lz_decode_to(ByteSpan encoded, std::size_t raw_len,
                  const DecodeSink& emit);
/// check_decodes(kLz, ...): lz_decode_to's token loop and checks, with
/// no output kept.
void lz_check(ByteSpan encoded, std::size_t raw_len);

}  // namespace qnn::codec

// LZ77 with a greedy hash-chain matcher (LZ4-flavoured token layout).
//
// Token stream, repeated until end of input:
//   varint literal_count
//   literal_count raw bytes
//   varint match_code:
//     0            -> end of stream (no match follows)
//     m >= 1       -> match of length m + kMinMatch - 1
//   varint distance (only when match_code != 0), 1-based back-reference
//
// Matches are found via a 4-byte-hash head table with single-step chains
// (head[hash] stores the most recent position), window-limited to kWindow.
// Worst case (incompressible input): the whole input is one literal run,
// expansion bound of n + O(varint overhead).
//
// Both hot loops are word-wide: the match scan compares 8 bytes per step
// (xor + count-trailing-zeros finds the first differing byte), and the
// decoder grows a buffer with one copy per literal run and per
// non-overlapping match, one fill per distance-1 run, and doubling
// memcpys for other overlapping matches. The token stream is the same
// one the byte-at-a-time loops produced.
//
// The encoder does work in proportion to the bytes that are not one
// long match. Its literal scan tests each candidate without a
// data-dependent branch, and inside a match it inserts only the
// positions whose head-table entries can survive the match (see
// lz_encode). Neither shortcut may change the token stream: every
// LZ-coded byte on disk follows from it, the golden fixtures and gated
// byte counts pin it, and the journal's max_log_bytes budget counts it,
// so a different stream would also move when the journal compacts.
//
// One token loop (lz_run) serves lz_decode, which decodes the whole
// output, lz_decode_to, which holds a window and hands pieces on, and
// lz_check, which runs the windowed form's checks and keeps no output.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "codec/codec.hpp"
#include "util/varint.hpp"

namespace qnn::codec {

namespace {
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1 << 16;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kPiece = std::size_t{4} << 16;  ///< bytes per emit
constexpr std::size_t kHashBits = 16;

inline std::uint32_t load4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Longest common prefix of [a, limit) and [b, limit-relative), capped.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* limit) {
  const std::size_t max =
      std::min(static_cast<std::size_t>(limit - a), kMaxMatch);
  std::size_t n = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  for (; n + 8 <= max; n += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (x != y) {
      // Little-endian: the lowest set bit sits in the first differing byte.
      return n + static_cast<std::size_t>(__builtin_ctzll(x ^ y)) / 8;
    }
  }
#endif
  while (n < max && a[n] == b[n]) {
    ++n;
  }
  return n;
}

/// The matcher's head table, reused across calls on the same thread.
/// Slots hold `stamp + position`. Each call's `stamp` sits more than
/// kWindow past every slot an earlier call (or the zero fill) left, so a
/// stale slot reads as a candidate outside the window, without
/// re-filling 512 KiB per call.
struct HeadTable {
  std::vector<std::uint64_t> slots =
      std::vector<std::uint64_t>(std::size_t{1} << kHashBits, 0);
  std::uint64_t next_stamp = kWindow + 1;
};

/// What lz_run does with the output.
enum class Output {
  kWhole,     ///< keeps all of it: lz_decode
  kWindowed,  ///< keeps kWindow of history plus one piece: lz_decode_to
  kChecked,   ///< keeps none: lz_check, kWindowed's verdict without output
};

/// The one LZ token loop: parses and checks every token, and appends the
/// output to a buffer of at most `cap` bytes. kWhole: cap is raw_len,
/// and the per-token checks keep every append within it. kWindowed: cap
/// is raw_len or more than kWindow; an append that would overrun it
/// fills the buffer, hands all but its last kWindow bytes to
/// emit(offset in the output, bytes) and drops them, and a match may
/// reach at most kWindow back. At the end the rest is emitted and the
/// buffer returned. kChecked: every check of kWindowed runs on the
/// output's length alone; nothing is written, emitted or returned.
template <Output kOut, typename Emit>
Bytes lz_run(ByteSpan encoded, std::size_t raw_len, std::size_t cap,
             const Emit& emit) {
  constexpr bool kWindowed = kOut != Output::kWhole;
  constexpr bool kKeep = kOut != Output::kChecked;
  if (encoded.empty()) {
    if (raw_len != 0) {
      throw std::runtime_error("lz_decode: empty stream for non-empty output");
    }
    return {};
  }
  // Every append stays within cap, so the buffer never reallocates.
  Bytes buf;
  buf.reserve(cap);
  // Output bytes emitted and dropped from buf (kChecked: all of them).
  std::size_t flushed = 0;
  const auto flush = [&] {
    const std::size_t drop = buf.size() - kWindow;
    emit(flushed, ByteSpan(buf).first(drop));
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(drop));
    flushed += drop;
  };

  std::size_t pos = 0;
  while (true) {
    const std::uint64_t lits = util::get_varint(encoded, pos);
    if (lits > encoded.size() - pos) {
      throw std::runtime_error("lz_decode: truncated literals");
    }
    if (lits > raw_len - flushed - buf.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    if constexpr (!kKeep) {
      pos += lits;
      flushed += lits;
    } else {
      // Whatever does not fit goes in once the full buffer is flushed
      // (windowed form only).
      for (std::size_t left = lits;;) {
        const std::size_t take =
            kWindowed ? std::min(left, cap - buf.size()) : left;
        buf.insert(buf.end(),
                   encoded.begin() + static_cast<std::ptrdiff_t>(pos),
                   encoded.begin() + static_cast<std::ptrdiff_t>(pos + take));
        pos += take;
        left -= take;
        if (left == 0) {
          break;
        }
        flush();
      }
    }

    const std::uint64_t match_code = util::get_varint(encoded, pos);
    if (match_code == 0) {
      break;
    }
    const std::uint64_t dist = util::get_varint(encoded, pos);
    // Checked against the output so far, n, as kChecked keeps no buffer:
    // the windowed buffer holds at least min(n, kWindow) bytes, so this
    // is the same verdict as a check against buf.size().
    const std::size_t n = flushed + buf.size();
    if (dist == 0 || dist > n || (kWindowed && dist > kWindow)) {
      throw std::runtime_error("lz_decode: bad match distance");
    }
    // Compared before adding kMinMatch - 1 so a huge code cannot wrap.
    if (match_code > raw_len - n || match_code + kMinMatch - 1 > raw_len - n) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    if constexpr (!kKeep) {
      flushed += match_code + kMinMatch - 1;
      continue;
    }
    // A match is a run of shorter matches at the same distance, so it
    // can be cut wherever the buffer fills.
    for (std::size_t left = match_code + kMinMatch - 1;;) {
      const std::size_t take =
          kWindowed ? std::min(left, cap - buf.size()) : left;
      const std::size_t at = buf.size();
      // Overlapping matches (dist < take) are legal and extend a run with
      // period `dist`.
      if (dist == 1) {
        const std::uint8_t run = buf.back();
        buf.resize(at + take, run);  // one fill, no zeroing pass first
      } else {
        buf.resize(at + take);
        std::uint8_t* const to = buf.data() + at;
        const std::uint8_t* const from = to - dist;
        // [from, to + done) repeats with period dist and `done` stays a
        // multiple of dist until the last copy, so every step can copy
        // the whole valid prefix: the copied span doubles and no source
        // range overlaps its destination (one copy when dist >= take).
        for (std::size_t done = 0; done < take;) {
          const std::size_t copy = std::min(take - done, dist + done);
          std::memcpy(to + done, from, copy);
          done += copy;
        }
      }
      left -= take;
      if (left == 0) {
        break;
      }
      flush();
    }
  }
  if (flushed + buf.size() != raw_len) {
    throw std::runtime_error("lz_decode: output length mismatch");
  }
  if constexpr (kKeep) {
    emit(flushed, ByteSpan(buf));
  }
  return buf;
}

}  // namespace

Bytes lz_encode(ByteSpan raw) {
  Bytes out;
  out.reserve(raw.size() / 2 + 16);
  if (raw.empty()) {
    return out;
  }

  thread_local HeadTable table;
  std::uint64_t* head = table.slots.data();
  const std::uint64_t stamp = table.next_stamp;
  table.next_stamp += raw.size() + kWindow;
  const std::uint8_t* base = raw.data();
  const std::uint8_t* limit = base + raw.size();
  const std::size_t size = raw.size();
  // Positions whose 4-gram lies inside the input.
  const std::size_t scan_end = size < kMinMatch ? 0 : size - kMinMatch + 1;

  std::size_t lit_start = 0;
  std::size_t i = 0;
  while (true) {
    // Literal scan. Each position takes the head slot of its 4-gram and
    // tests the slot's position, `back` bytes behind it, for a 4-byte
    // match. The test has no data-dependent branch: a slot more than
    // kWindow back (stale ones always are) is masked to position i
    // itself and the test to a miss, so the loop leaves only on a real
    // match or at the end.
    std::size_t cand = 0;
    for (std::uint64_t here = stamp + i; i < scan_end; ++i, ++here) {
      const std::uint32_t v = load4(base + i);
      std::uint64_t& slot = head[hash4(v)];
      const std::uint64_t back = here - slot;
      slot = here;
      // All ones when back <= kWindow, else 0 (back stays below 2^63).
      const std::uint64_t near = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(back - kWindow - 1) >> 63);
      cand = i - static_cast<std::size_t>(back & near);
      if (((load4(base + cand) ^ v) | static_cast<std::uint32_t>(near + 1)) ==
          0) {
        break;
      }
    }
    if (i >= scan_end) {
      break;
    }
    const std::size_t len = match_length(base + i, base + cand, limit);
    // Emit pending literals, then the match token.
    util::put_varint(out, i - lit_start);
    out.insert(out.end(),
               raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
               raw.begin() + static_cast<std::ptrdiff_t>(i));
    util::put_varint(out, len - kMinMatch + 1);
    util::put_varint(out, i - cand);

    // Insert hash entries inside the match, every other position from
    // i + 1, so later matches can land there too. Inside the match the
    // bytes repeat with period d = i - cand, so position j has the 4-gram
    // of j + 2d, the next insert into the same slot, whenever j + 2d + 4
    // <= end. Only the inserts after that point can survive the loop;
    // the earlier ones are skipped, leaving the table as the full stride
    // would (a 64 KiB zero run takes ~3 inserts instead of 32 K).
    const std::size_t end = i + len;
    const std::size_t shadowed = 2 * (i - cand) + kMinMatch;
    std::size_t j = i + 1;
    if (j + shadowed <= end) {
      j += (end - shadowed - j + 2) & ~std::size_t{1};  // keeps j's parity
    }
    for (const std::size_t stop = std::min(end, scan_end); j < stop; j += 2) {
      head[hash4(load4(base + j))] = stamp + j;
    }
    i = end;
    lit_start = i;
  }

  // Trailing literals + end marker.
  util::put_varint(out, raw.size() - lit_start);
  out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
             raw.end());
  util::put_varint(out, 0);
  return out;
}

Bytes lz_decode(ByteSpan encoded, std::size_t raw_len) {
  // The whole output is the window: nothing is emitted early.
  return lz_run<Output::kWhole>(encoded, raw_len, raw_len,
                                [](std::size_t, ByteSpan) {});
}

void lz_decode_to(ByteSpan encoded, std::size_t raw_len,
                  const DecodeSink& emit) {
  lz_run<Output::kWindowed>(encoded, raw_len,
                            std::min(raw_len, kWindow + kPiece), emit);
}

void lz_check(ByteSpan encoded, std::size_t raw_len) {
  lz_run<Output::kChecked>(encoded, raw_len, 0, [](std::size_t, ByteSpan) {});
}

}  // namespace qnn::codec

// XOR-delta transforms.
//
// inter-buffer: xor_with_parent() XORs a payload against the same section of
// the parent checkpoint; for slowly-moving optimiser state the result is
// mostly zero bytes, which Rle/Lz collapse. Applied by the Incremental
// checkpoint strategy before compression.
//
// intra-buffer: xor_delta64 XORs each 64-bit word with its predecessor
// inside a single payload; exposes repeated structure in arrays of similar
// doubles. Used by the kDeltaLz / kDeltaRle codecs.
//
// Both transforms are involutions-with-inverse and exactly size-preserving.
//
// The default entry points run SSE2 kernels on x86-64 (16 bytes per
// step; the prefix-XOR in xor_undelta64 carries the running word across
// lanes) and wide-word loops elsewhere. The `_scalar` variants are the
// original byte/word loops, kept as the oracle the parity tests compare
// against — outputs are byte-identical by contract.
#pragma once

#include "util/bytes.hpp"

namespace qnn::codec {

using util::Bytes;
using util::ByteSpan;

/// data[i] ^ parent[i]; bytes past parent's length pass through unchanged
/// (payload grew between checkpoints). Result size == data size.
Bytes xor_with_parent(ByteSpan data, ByteSpan parent);

/// In-place form of xor_with_parent: XORs `parent` into `data` (the
/// kernel the allocating form runs on its copy). Every delta path runs
/// here in the buffer of the base it replaces: the writers XOR the state
/// into the previous base, and recovery and journal replay XOR each delta
/// chunk, or each decoded piece of a body, into the resolved payload, so
/// no delta gets a buffer of its own. In SSE2 builds (every x86-64
/// one), wherever `parent` has a 64-byte block of zeros (counted from
/// its start), `data` is neither read nor written: a sparse delta costs
/// about a read of itself.
void xor_with_parent_inplace(std::span<std::uint8_t> data, ByteSpan parent);

/// Forward intra-buffer delta: word[i] ^= word[i-1] (64-bit words; the tail
/// that does not fill a word is left untouched).
Bytes xor_delta64(ByteSpan data);

/// Inverse of xor_delta64.
Bytes xor_undelta64(ByteSpan data);

/// Scalar reference implementations (the pre-vectorization loops).
/// Byte-identical to the defaults; used by parity tests and the
/// throughput bench.
Bytes xor_with_parent_scalar(ByteSpan data, ByteSpan parent);
Bytes xor_delta64_scalar(ByteSpan data);
Bytes xor_undelta64_scalar(ByteSpan data);

}  // namespace qnn::codec

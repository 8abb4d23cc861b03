#include "codec/codec.hpp"

#include <stdexcept>

#include "codec/xor_delta.hpp"

namespace qnn::codec {

std::string codec_name(CodecId id) {
  switch (id) {
    case CodecId::kRaw:
      return "raw";
    case CodecId::kRle:
      return "rle";
    case CodecId::kLz:
      return "lz";
    case CodecId::kDeltaLz:
      return "delta+lz";
    case CodecId::kDeltaRle:
      return "delta+rle";
  }
  return "unknown";
}

CodecId codec_from_name(const std::string& name) {
  for (CodecId id : kAllCodecs) {
    if (codec_name(id) == name) {
      return id;
    }
  }
  throw std::invalid_argument("codec_from_name: unknown codec '" + name + "'");
}

Bytes encode(CodecId id, ByteSpan raw) {
  switch (id) {
    case CodecId::kRaw:
      return Bytes(raw.begin(), raw.end());
    case CodecId::kRle:
      return rle_encode(raw);
    case CodecId::kLz:
      return lz_encode(raw);
    case CodecId::kDeltaLz: {
      const Bytes delta = xor_delta64(raw);
      return lz_encode(delta);
    }
    case CodecId::kDeltaRle: {
      const Bytes delta = xor_delta64(raw);
      return rle_encode(delta);
    }
  }
  throw std::invalid_argument("encode: unknown codec id");
}

bool worth_encoding(CodecId id, ByteSpan raw) {
  constexpr std::size_t kSlices = 8;
  constexpr std::size_t kSliceBytes = std::size_t{4} << 10;
  if (id == CodecId::kRaw) {
    return false;
  }
  if (raw.size() < kProbeMinBytes) {
    return true;
  }
  // n/8 >= 8 KiB here, so every slice lies inside the payload.
  const std::size_t stride = raw.size() / kSlices;
  std::size_t sampled = 0;
  for (std::size_t j = 0; j < kSlices; ++j) {
    sampled += encode(id, raw.subspan(j * stride, kSliceBytes)).size();
  }
  return sampled < kSlices * kSliceBytes;
}

Bytes decode(CodecId id, ByteSpan encoded, std::size_t raw_len) {
  switch (id) {
    case CodecId::kRaw: {
      if (encoded.size() != raw_len) {
        throw std::runtime_error("decode(raw): length mismatch");
      }
      return Bytes(encoded.begin(), encoded.end());
    }
    case CodecId::kRle:
      return rle_decode(encoded, raw_len);
    case CodecId::kLz:
      return lz_decode(encoded, raw_len);
    case CodecId::kDeltaLz:
      return xor_undelta64(lz_decode(encoded, raw_len));
    case CodecId::kDeltaRle:
      return xor_undelta64(rle_decode(encoded, raw_len));
  }
  throw std::invalid_argument("decode: unknown codec id");
}

void decode_to(CodecId id, ByteSpan encoded, std::size_t raw_len,
               const DecodeSink& emit) {
  switch (id) {
    case CodecId::kRaw:
      if (encoded.size() != raw_len) {
        throw std::runtime_error("decode(raw): length mismatch");
      }
      return emit(0, encoded);
    case CodecId::kLz:
      return lz_decode_to(encoded, raw_len, emit);
    default:
      return emit(0, decode(id, encoded, raw_len));
  }
}

}  // namespace qnn::codec

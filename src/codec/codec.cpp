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

bool worth_encoding(CodecId id, ByteSpan raw, ByteSpan tail) {
  constexpr std::size_t kSlices = 8;
  constexpr std::size_t kSliceBytes = std::size_t{4} << 10;
  const std::size_t n = raw.size() + tail.size();
  if (id == CodecId::kRaw) {
    return false;
  }
  if (n < kProbeMinBytes) {
    return true;
  }
  // n/8 >= 8 KiB here, so every slice lies inside the payload.
  const std::size_t stride = n / kSlices;
  std::size_t sampled = 0;
  Bytes spanning;
  for (std::size_t j = 0; j < kSlices; ++j) {
    const std::size_t at = j * stride;
    ByteSpan slice;
    if (at + kSliceBytes <= raw.size()) {
      slice = raw.subspan(at, kSliceBytes);
    } else if (at >= raw.size()) {
      slice = tail.subspan(at - raw.size(), kSliceBytes);
    } else {
      spanning.assign(raw.begin() + static_cast<std::ptrdiff_t>(at),
                      raw.end());
      spanning.insert(spanning.end(), tail.begin(),
                      tail.begin() + static_cast<std::ptrdiff_t>(
                                         at + kSliceBytes - raw.size()));
      slice = spanning;
    }
    sampled += encode(id, slice).size();
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

void check_decodes(CodecId id, ByteSpan encoded, std::size_t raw_len) {
  if (id == CodecId::kLz) {
    return lz_check(encoded, raw_len);
  }
  decode_to(id, encoded, raw_len, [](std::size_t, ByteSpan) {});
}

}  // namespace qnn::codec

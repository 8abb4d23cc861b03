#include "ckpt/state_codec.hpp"

#include <algorithm>
#include <cstring>

#include "codec/xor_delta.hpp"

namespace qnn::ckpt {

namespace {
// v2 added the circuit fingerprint; v1 files decode with fingerprint 0.
constexpr std::uint32_t kMetaVersion = 2;

Bytes encode_meta(const qnn::TrainingState& s) {
  Bytes out;
  util::put_le<std::uint32_t>(out, kMetaVersion);
  util::put_string(out, s.workload_tag);
  util::put_string(out, s.optimizer_name);
  util::put_le<std::uint64_t>(out, s.step);
  util::put_le<std::uint64_t>(out, s.epoch);
  util::put_le<std::uint64_t>(out, s.cursor);
  util::put_le<std::uint64_t>(out, s.circuit_fingerprint);
  return out;
}

void decode_meta(ByteSpan payload, qnn::TrainingState& s) {
  std::size_t off = 0;
  const auto version = util::get_le<std::uint32_t>(payload, off);
  if (version != 1 && version != kMetaVersion) {
    throw CorruptCheckpoint("meta section: bad version");
  }
  s.workload_tag = util::get_string(payload, off);
  s.optimizer_name = util::get_string(payload, off);
  s.step = util::get_le<std::uint64_t>(payload, off);
  s.epoch = util::get_le<std::uint64_t>(payload, off);
  s.cursor = util::get_le<std::uint64_t>(payload, off);
  s.circuit_fingerprint =
      version >= 2 ? util::get_le<std::uint64_t>(payload, off) : 0;
}

/// True when a `size`-byte payload is a whole count slot plus whole T
/// elements: the lengths an array kind's element storage can hold.
template <typename T>
bool on_grid(std::uint64_t size) {
  return size >= sizeof(std::uint64_t) && size % sizeof(T) == 0;
}

/// A `u64 count | elements` payload: the count, owned, then a view of
/// the elements where they lie (util::put_vector's layout).
template <typename T>
void view_array(Section& s, const std::vector<T>& v) {
  const std::uint64_t count = v.size();
  s.payload.resize(sizeof(count));
  std::memcpy(s.payload.data(), &count, sizeof(count));
  s.view = util::as_bytes(v);
}

/// The one section builder: `kind`'s payload, viewing `state` where its
/// bytes already lie.
Section view_section(SectionKind kind, const qnn::TrainingState& state,
                     codec::CodecId codec) {
  Section s{.kind = kind, .codec = codec, .flags = 0, .payload = {}};
  switch (kind) {
    case SectionKind::kMeta:
      s.payload = encode_meta(state);
      return s;
    case SectionKind::kParams:
      view_array(s, state.params);
      return s;
    case SectionKind::kOptimizer:
      s.view = state.optimizer_state;
      return s;
    case SectionKind::kRng:
      s.view = state.rng_state;
      return s;
    case SectionKind::kDataCursor:
      view_array(s, state.permutation);
      return s;
    case SectionKind::kLossHistory:
      view_array(s, state.loss_history);
      return s;
    case SectionKind::kSimulator:
      s.view = state.simulator_state;
      return s;
  }
  throw std::invalid_argument("encode_section_payload: unknown kind");
}
}  // namespace

Bytes encode_section_payload(SectionKind kind,
                             const qnn::TrainingState& state) {
  Section s = view_section(kind, state, codec::CodecId::kRaw);
  s.own();
  return std::move(s.payload);
}

std::vector<Section> view_state_sections(const qnn::TrainingState& state,
                                         bool include_simulator,
                                         codec::CodecId codec) {
  static constexpr SectionKind kAlways[] = {
      SectionKind::kMeta,        SectionKind::kParams,
      SectionKind::kOptimizer,   SectionKind::kRng,
      SectionKind::kDataCursor,  SectionKind::kLossHistory,
  };
  std::vector<Section> sections;
  for (SectionKind kind : kAlways) {
    sections.push_back(view_section(kind, state, codec));
  }
  if (include_simulator && !state.simulator_state.empty()) {
    sections.push_back(view_section(SectionKind::kSimulator, state, codec));
  }
  return sections;
}

std::vector<Section> state_to_sections(const qnn::TrainingState& state,
                                       bool include_simulator,
                                       codec::CodecId codec) {
  std::vector<Section> sections =
      view_state_sections(state, include_simulator, codec);
  for (Section& s : sections) {
    s.own();
  }
  return sections;
}

void xor_section_into(Bytes& base, const Section& s) {
  base.resize(s.size());
  const std::span<std::uint8_t> b(base);
  codec::xor_with_parent_inplace(b, s.payload);
  codec::xor_with_parent_inplace(b.subspan(s.payload.size()), s.view);
}

void copy_section_over(Bytes& base, const Section& s) {
  base.assign(s.payload.begin(), s.payload.end());
  base.insert(base.end(), s.view.begin(), s.view.end());
}

SectionPayload::SectionPayload(SectionKind kind, std::uint64_t size) {
  resize(kind, size);
}

void SectionPayload::resize(SectionKind kind, std::uint64_t size) {
  // Storage of type V for the new size: a resize in place when the
  // payload already lives in a V, else a V of the new size that takes
  // the leading bytes of the old storage.
  const auto fit = [&]<typename V>(std::in_place_type_t<V>) {
    const std::size_t elements = size / sizeof(typename V::value_type);
    if (V* v = std::get_if<V>(&storage_)) {
      v->resize(elements);
      return;
    }
    V next(elements);
    const ByteSpan old = bytes();
    std::copy_n(old.begin(), std::min<std::size_t>(old.size(), size),
                util::as_writable_bytes(next).begin());
    storage_ = std::move(next);
  };
  switch (kind) {
    case SectionKind::kParams:
    case SectionKind::kLossHistory:
      if (on_grid<double>(size)) {
        return fit(std::in_place_type<std::vector<double>>);
      }
      break;
    case SectionKind::kDataCursor:
      if (on_grid<std::uint32_t>(size)) {
        return fit(std::in_place_type<std::vector<std::uint32_t>>);
      }
      break;
    default:
      break;
  }
  fit(std::in_place_type<Bytes>);
}

// Byte strings, and array payloads off the grid, keep `raw` as it is;
// arrays on the grid are copied into their count-slot vector.
SectionPayload::SectionPayload(SectionKind kind, Bytes raw)
    : SectionPayload(kind, section_array_offset(kind) == 0 ? 0 : raw.size()) {
  if (std::holds_alternative<Bytes>(storage_)) {
    storage_ = std::move(raw);
  } else {
    std::ranges::copy(raw, bytes().begin());
  }
}

std::span<std::uint8_t> SectionPayload::bytes() {
  return std::visit([](auto& v) { return util::as_writable_bytes(v); },
                    storage_);
}

ByteSpan SectionPayload::bytes() const {
  return std::visit([](const auto& v) { return util::as_bytes(v); }, storage_);
}

bool operator==(const SectionPayload& a, const SectionPayload& b) {
  return std::ranges::equal(a.bytes(), b.bytes());
}

template <typename T>
std::vector<T> SectionPayload::take_array(SectionKind kind) {
  // Exactly the count's worth of elements, which puts the length on the
  // grid and so the payload in its count-slot vector.
  const ByteSpan raw = bytes();
  std::size_t off = 0;
  if (!on_grid<T>(raw.size()) ||
      util::get_le<std::uint64_t>(raw, off) != (raw.size() - off) / sizeof(T)) {
    throw CorruptCheckpoint(section_kind_name(kind) + " section: " +
                            std::to_string(raw.size()) +
                            " bytes do not hold the count they declare");
  }
  auto& slots = std::get<std::vector<T>>(storage_);
  slots.erase(slots.begin(), slots.begin() + sizeof(std::uint64_t) / sizeof(T));
  return std::move(slots);
}

Bytes SectionPayload::take_bytes() {
  return std::move(std::get<Bytes>(storage_));
}

qnn::TrainingState load_state(SectionPayloads&& payloads) {
  qnn::TrainingState state;
  bool have_meta = false, have_params = false, have_opt = false,
       have_rng = false, have_cursor = false, have_hist = false;

  for (auto& [kind, payload] : payloads) {
    switch (kind) {
      case SectionKind::kMeta:
        decode_meta(payload.bytes(), state);
        have_meta = true;
        break;
      case SectionKind::kParams:
        state.params = payload.take_array<double>(kind);
        have_params = true;
        break;
      case SectionKind::kOptimizer:
        state.optimizer_state = payload.take_bytes();
        have_opt = true;
        break;
      case SectionKind::kRng:
        state.rng_state = payload.take_bytes();
        have_rng = true;
        break;
      case SectionKind::kDataCursor:
        state.permutation = payload.take_array<std::uint32_t>(kind);
        have_cursor = true;
        break;
      case SectionKind::kLossHistory:
        state.loss_history = payload.take_array<double>(kind);
        have_hist = true;
        break;
      case SectionKind::kSimulator:
        state.simulator_state = payload.take_bytes();
        break;
    }
  }

  if (!have_meta || !have_params || !have_opt || !have_rng || !have_cursor ||
      !have_hist) {
    throw CorruptCheckpoint("load_state: required section missing");
  }
  return state;
}

qnn::TrainingState sections_to_state(const std::vector<Section>& sections) {
  SectionPayloads payloads;
  for (const Section& s : sections) {
    if (s.is_delta()) {
      throw CorruptCheckpoint(
          "sections_to_state: unresolved delta section " +
          section_kind_name(s.kind));
    }
    payloads[s.kind] = SectionPayload(s.kind, s.payload);
  }
  return load_state(std::move(payloads));
}

}  // namespace qnn::ckpt

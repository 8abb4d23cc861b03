// Mapping between qnn::TrainingState and checkpoint sections.
//
// Each logical component of the training state becomes exactly one
// section, so strategies can include/exclude and delta-encode components
// independently, and the T1 inventory can report true per-component sizes.
//
// The write side can read the state in place: sections may view the
// TrainingState's own storage (Section::view), and own a copy only where
// they must outlive it. The read side holds one copy of the state.
// Decoded payloads land in a SectionPayload, whose storage is the type
// of the TrainingState field the section loads into, and load_state
// moves each one into its field.
#pragma once

#include <map>
#include <variant>

#include "ckpt/format.hpp"
#include "qnn/training_state.hpp"

namespace qnn::ckpt {

/// Encodes one component of `state` into a raw section payload.
Bytes encode_section_payload(SectionKind kind,
                             const qnn::TrainingState& state);

/// Builds the section list for `state`, each payload viewing the state
/// where its bytes already lie (Section::view): an array kind is its
/// owned u64 count plus a view of the field's elements, a byte-string
/// kind a view of the field; kMeta is encoded. The sections are valid
/// while `state` lives unchanged. When `include_simulator` is false the
/// (potentially huge) simulator snapshot is omitted. `codec` is recorded
/// on every section.
std::vector<Section> view_state_sections(const qnn::TrainingState& state,
                                         bool include_simulator,
                                         codec::CodecId codec);

/// view_state_sections with every view copied in (Section::own): the
/// sections own their payloads and outlive `state`.
std::vector<Section> state_to_sections(const qnn::TrainingState& state,
                                       bool include_simulator,
                                       codec::CodecId codec);

/// The two steps both writers (kIncremental, the journal) take on a delta
/// base, the last written raw payload of its kind. Each reads the section
/// where it lies, its owned prefix and then its view, so a writer that
/// reads the state in place never copies it beside its bases.
/// xor_section_into resizes `base` to the section (leading bytes kept,
/// the tail zero-filled, so across a size change the shared prefix still
/// cancels) and XORs the section in: `base` becomes the delta.
void xor_section_into(Bytes& base, const Section& s);
/// Once the delta is written, copy_section_over makes `base` the section,
/// in the buffer it has: the next delta's base.
void copy_section_over(Bytes& base, const Section& s);

/// One resolved section payload, held in the storage of the
/// TrainingState field it loads into. For the `u64 count | elements`
/// kinds that storage is the field's own vector with the count in its
/// leading slots: kParams and kLossHistory hold a std::vector<double> of
/// 1 + n elements whose bytes are exactly the on-disk payload (slot 0
/// receives the count), kDataCursor a std::vector<std::uint32_t> of
/// 2 + n. Byte-string kinds, and array payloads whose length is off the
/// element grid (which cannot load), are Bytes.
class SectionPayload {
 public:
  SectionPayload() = default;
  /// Zero-filled storage of `kind` for a `size`-byte payload, for a
  /// decoder to write in place through bytes().
  SectionPayload(SectionKind kind, std::uint64_t size);
  /// `raw` as a payload of `kind`: byte strings move in, arrays are
  /// copied into their element storage.
  SectionPayload(SectionKind kind, Bytes raw);

  /// Resizes the payload to `size` bytes in the storage
  /// SectionPayload(kind, size) would choose, keeping the leading
  /// min(old, new) bytes and zero-filling the rest: the base an XOR
  /// delta of that size applies to (codec::xor_with_parent's rule).
  /// Same-storage resizes work in place; an array whose length leaves
  /// its element grid moves to Bytes, and back when it returns.
  void resize(SectionKind kind, std::uint64_t size);

  [[nodiscard]] std::span<std::uint8_t> bytes();
  [[nodiscard]] ByteSpan bytes() const;
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Byte equality, whatever the storage.
  friend bool operator==(const SectionPayload& a, const SectionPayload& b);

 private:
  friend qnn::TrainingState load_state(
      std::map<SectionKind, SectionPayload>&& payloads);

  /// The count-slot vector, checked against its length and moved out
  /// with the count erased; throws CorruptCheckpoint when they disagree.
  template <typename T>
  std::vector<T> take_array(SectionKind kind);
  Bytes take_bytes();

  std::variant<Bytes, std::vector<double>, std::vector<std::uint32_t>> storage_;
};

/// Resolved payloads keyed by kind: recovery's fold and journal replay
/// work on one of these in place.
using SectionPayloads = std::map<SectionKind, SectionPayload>;

/// The state loader: moves each payload into its TrainingState field.
/// An array payload loads only when its length is exactly its count's
/// worth of elements; its count slot is checked and erased in place (one
/// memmove, no allocation). Throws CorruptCheckpoint when a required
/// section is missing or malformed. The simulator section is optional.
qnn::TrainingState load_state(SectionPayloads&& payloads);

/// load_state over copies of fully-resolved (non-delta) sections; throws
/// CorruptCheckpoint on a delta section.
qnn::TrainingState sections_to_state(const std::vector<Section>& sections);

}  // namespace qnn::ckpt

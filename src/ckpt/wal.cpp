#include "ckpt/wal.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/state_codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/bytes.hpp"
#include "util/crc.hpp"
#include "util/strings.hpp"

namespace qnn::ckpt {

namespace {

constexpr char kWalMagic[4] = {'Q', 'W', 'A', 'L'};
/// Raw section bodies, deltas only between equal sizes: replayed, never
/// written.
constexpr std::uint16_t kWalVersion1 = 1;
constexpr std::uint16_t kWalVersion = 2;
/// magic(4) + version(2) + epoch(8) + base_step(8) + crc(4).
constexpr std::size_t kWalHeaderSize = 26;
/// payload_len(8) + crc(4).
constexpr std::size_t kFramePrefixSize = 12;

Bytes encode_header(std::uint64_t epoch, std::uint64_t base_step) {
  Bytes out;
  out.insert(out.end(), kWalMagic, kWalMagic + sizeof(kWalMagic));
  util::put_le<std::uint16_t>(out, kWalVersion);
  util::put_le<std::uint64_t>(out, epoch);
  util::put_le<std::uint64_t>(out, base_step);
  util::put_le<std::uint32_t>(out, util::crc32c(out));
  return out;
}

/// One parsed (not yet decoded or applied) record section; `encoded`
/// views the journal bytes.
struct RecordSection {
  SectionKind kind = SectionKind::kMeta;
  std::uint8_t flags = 0;
  codec::CodecId codec = codec::CodecId::kRaw;
  std::uint64_t base_len = 0;  ///< size of the delta base
  std::uint64_t raw_len = 0;   ///< size of the decoded body
  ByteSpan encoded;
};

struct Record {
  std::uint64_t step = 0;
  std::vector<RecordSection> sections;
};

/// Reads a put_bytes string as a view into `in`.
ByteSpan get_span(ByteSpan in, std::size_t& off) {
  const auto n = util::get_le<std::uint64_t>(in, off);
  if (n > in.size() - off) {
    throw std::out_of_range("wal record: section underrun");
  }
  const ByteSpan out = in.subspan(off, n);
  off += n;
  return out;
}

/// Parses a CRC-validated frame payload of a `version` journal; throws
/// std::out_of_range / std::runtime_error on malformed contents (treated
/// as a torn tail by the callers — a valid CRC over garbage means the
/// writer never wrote it, so the bytes past the previous frame are not a
/// record). Section bodies are decoded by replay only.
Record parse_record(ByteSpan payload, std::uint16_t version) {
  Record rec;
  std::size_t off = 0;
  rec.step = util::get_le<std::uint64_t>(payload, off);
  const auto n = util::get_le<std::uint32_t>(payload, off);
  rec.sections.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RecordSection s;
    s.kind =
        static_cast<SectionKind>(util::get_le<std::uint16_t>(payload, off));
    s.flags = util::get_le<std::uint8_t>(payload, off);
    if (version == kWalVersion1) {
      s.encoded = get_span(payload, off);
      s.base_len = s.raw_len = s.encoded.size();
    } else {
      s.codec =
          static_cast<codec::CodecId>(util::get_le<std::uint8_t>(payload, off));
      s.base_len = util::get_le<std::uint64_t>(payload, off);
      s.raw_len = util::get_le<std::uint64_t>(payload, off);
      s.encoded = get_span(payload, off);
    }
    // One section per kind, as the writer frames them: a repeat would
    // apply twice against one base.
    if (std::ranges::find(rec.sections, s.kind, &RecordSection::kind) !=
        rec.sections.end()) {
      throw std::runtime_error("wal record: section kind repeated");
    }
    rec.sections.push_back(s);
  }
  if (off != payload.size()) {
    throw std::runtime_error("wal record: trailing bytes");
  }
  return rec;
}

/// Shared frame walk for scan/replay: validates the header, then calls
/// `on_record` for each fully-framed record until the first torn or
/// invalid frame. Returns nullopt when the header is unusable.
template <typename OnRecord>
std::optional<WalScan> walk_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch, OnRecord&& on_record) {
  const auto data = env.read_file(dir + "/" + wal_file_name(epoch));
  if (!data || data->size() < kWalHeaderSize) {
    return std::nullopt;
  }
  const ByteSpan bytes(*data);
  if (!std::equal(kWalMagic, kWalMagic + sizeof(kWalMagic), bytes.begin())) {
    return std::nullopt;
  }
  std::size_t off = sizeof(kWalMagic);
  const auto version = util::get_le<std::uint16_t>(bytes, off);
  const auto file_epoch = util::get_le<std::uint64_t>(bytes, off);
  const auto base_step = util::get_le<std::uint64_t>(bytes, off);
  const auto header_crc = util::get_le<std::uint32_t>(bytes, off);
  if ((version != kWalVersion && version != kWalVersion1) ||
      file_epoch != epoch ||
      header_crc != util::crc32c(bytes.first(kWalHeaderSize - 4))) {
    return std::nullopt;
  }
  WalScan scan;
  scan.epoch = epoch;
  scan.base_step = base_step;
  scan.last_step = base_step;
  scan.valid_bytes = kWalHeaderSize;
  while (off + kFramePrefixSize <= bytes.size()) {
    std::size_t frame_off = off;
    const auto payload_len = util::get_le<std::uint64_t>(bytes, frame_off);
    const auto frame_crc = util::get_le<std::uint32_t>(bytes, frame_off);
    if (payload_len > bytes.size() - frame_off) {
      break;  // torn frame: the length outruns the durable bytes
    }
    const ByteSpan payload = bytes.subspan(frame_off, payload_len);
    if (frame_crc !=
        util::crc32c(payload, util::crc32c(bytes.subspan(off, 8)))) {
      break;  // torn or corrupt frame
    }
    Record rec;
    try {
      rec = parse_record(payload, version);
    } catch (const std::exception&) {
      break;  // CRC-valid but malformed: not something the writer framed
    }
    if (!on_record(rec)) {
      break;  // inapplicable record (e.g. delta with no base): stop redo
    }
    off = frame_off + payload_len;
    ++scan.records;
    scan.last_step = rec.step;
    scan.valid_bytes = off;
  }
  scan.torn_bytes = bytes.size() - scan.valid_bytes;
  return scan;
}

}  // namespace

std::string wal_file_name(std::uint64_t epoch) {
  return util::numbered_name("wal-", epoch, ".qwal");
}

std::optional<std::uint64_t> parse_wal_file_name(const std::string& name) {
  return util::parse_numbered_name(name, "wal-", ".qwal");
}

std::optional<WalScan> scan_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch) {
  return walk_wal(env, dir, epoch, [](const Record&) { return true; });
}

std::optional<WalReplay> replay_wal(io::Env& env, const std::string& dir,
                                    std::uint64_t epoch,
                                    SectionPayloads& sections) {
  std::uint64_t applied = 0;
  std::uint64_t step = 0;
  const auto scan =
      walk_wal(env, dir, epoch, [&](const Record& rec) {
        // Check every body of the record before any section changes, so
        // records apply atomically: each delta's base, and that the body
        // decodes to raw_len (an LZ body's tokens are checked, nothing is
        // written).
        try {
          for (const RecordSection& s : rec.sections) {
            if ((s.flags & kSectionFlagDelta) != 0) {
              const auto it = sections.find(s.kind);
              if (it == sections.end() || it->second.size() != s.base_len) {
                return false;  // the delta's base is not this state's
              }
            }
            codec::check_decodes(s.codec, s.encoded, s.raw_len);
          }
        } catch (const std::exception&) {
          return false;  // CRC-valid but undecodable: stop replay here too
        }
        // Then each body decodes into place, piece by piece: a delta is
        // XOR-ed into its payload, resized first to the body's length; a
        // full body is copied into a fresh payload of that length.
        for (const RecordSection& s : rec.sections) {
          const bool delta = (s.flags & kSectionFlagDelta) != 0;
          SectionPayload& payload = sections[s.kind];
          if (!delta) {
            payload = SectionPayload();
          }
          payload.resize(s.kind, s.raw_len);
          const std::span<std::uint8_t> to = payload.bytes();
          codec::decode_to(
              s.codec, s.encoded, s.raw_len,
              [&](std::size_t offset, ByteSpan piece) {
                const auto at = to.subspan(offset, piece.size());
                if (delta) {
                  codec::xor_with_parent_inplace(at, piece);
                } else {
                  std::ranges::copy(piece, at.begin());
                }
              });
        }
        ++applied;
        step = rec.step;
        return true;
      });
  if (!scan || applied == 0) {
    return std::nullopt;
  }
  return WalReplay{applied, step, scan->torn_bytes};
}

WalWriter::WalWriter(io::Env& env, const std::string& dir, std::uint64_t epoch,
                     WalPolicy policy, codec::CodecId codec,
                     const qnn::TrainingState& base, bool include_simulator)
    : env_(env),
      epoch_(epoch),
      policy_(policy),
      codec_(codec),
      include_simulator_(include_simulator) {
  for (Section& s :
       state_to_sections(base, include_simulator_, codec::CodecId::kRaw)) {
    last_raw_[s.kind] = std::move(s.payload);
  }
  // kPlain truncates at open, so a stale log under the same name (id
  // reuse after a crash) can never leak records into this epoch.
  out_ = env_.new_writable(dir + "/" + wal_file_name(epoch_),
                           io::WriteMode::kPlain);
  const Bytes header = encode_header(epoch_, base.step);
  out_->append(header);
  out_->sync();  // the log must exist durably before records ride the cache
  ++syncs_;
  bytes_ = header.size();
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destruction during unwind (e.g. a scheduled crash) must not throw;
    // the torn tail is exactly what recovery is built to truncate.
  }
}

void WalWriter::log_step(const qnn::TrainingState& state) {
  if (failed_) {
    throw std::logic_error("wal: log_step after a failed append");
  }
  Bytes payload;
  util::put_le<std::uint64_t>(payload, state.step);
  // The sections view `state`; each kind's delta is built in its base.
  const auto sections =
      view_state_sections(state, include_simulator_, codec::CodecId::kRaw);
  util::put_le<std::uint32_t>(payload,
                              static_cast<std::uint32_t>(sections.size()));
  try {
    for (const Section& s : sections) {
      // Delta even across a size change (a growing or cleared loss
      // history): the base keeps its leading bytes, so the shared prefix
      // still cancels. A kind without a base gets an empty one, which
      // the XOR fills with the section: a full body.
      const auto [base, fresh] = last_raw_.try_emplace(s.kind);
      Bytes& body = base->second;
      const std::uint64_t base_len = body.size();
      xor_section_into(body, s);
      const std::uint8_t flags = fresh ? 0 : kSectionFlagDelta;
      const Bytes encoded = codec::encode(codec_, body);
      const bool raw = encoded.size() >= body.size();
      const codec::CodecId id = raw ? codec::CodecId::kRaw : codec_;
      util::put_le<std::uint16_t>(payload, static_cast<std::uint16_t>(s.kind));
      util::put_le<std::uint8_t>(payload, flags);
      util::put_le<std::uint8_t>(payload, static_cast<std::uint8_t>(id));
      util::put_le<std::uint64_t>(payload, base_len);
      util::put_le<std::uint64_t>(payload, body.size());
      util::put_bytes(payload, raw ? body : encoded);
    }
    Bytes frame;
    util::put_le<std::uint64_t>(frame, payload.size());
    util::put_le<std::uint32_t>(frame,
                                util::crc32c(payload, util::crc32c(frame)));
    frame.insert(frame.end(), payload.begin(), payload.end());
    out_->append(frame);  // one append = one crash-atomic frame boundary
    bytes_ += frame.size();
  } catch (...) {
    failed_ = true;  // the bases are no longer the logged record's
    throw;
  }
  // Only a logged record may become the next record's delta base: each
  // base now holds the body and is overwritten with the section.
  for (const Section& s : sections) {
    copy_section_over(last_raw_[s.kind], s);
  }
  ++records_;
  ++unsynced_;
  if (unsynced_ >= std::max<std::uint64_t>(policy_.group_commit_steps, 1)) {
    sync();
  }
}

void WalWriter::sync() {
  if (out_ == nullptr || unsynced_ == 0) {
    return;
  }
  out_->sync();
  ++syncs_;
  unsynced_ = 0;
}

void WalWriter::close() {
  if (out_ == nullptr) {
    return;
  }
  sync();
  out_->close();
  out_.reset();
}

}  // namespace qnn::ckpt

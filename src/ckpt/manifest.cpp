#include "ckpt/manifest.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace qnn::ckpt {

namespace {
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kHeader = "qnnckpt-manifest v1";

std::string manifest_path(const std::string& dir) {
  return dir + "/" + kManifestName;
}

std::optional<ManifestEntry> parse_line(const std::string& line) {
  // "ckpt id=1 parent=0 step=10 bytes=123 file=ckpt-0000000001.qckp"
  const auto fields = util::split(util::trim(line), ' ');
  if (fields.empty() || fields[0] != "ckpt") {
    return std::nullopt;
  }
  ManifestEntry e;
  bool have_id = false, have_file = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const auto kv = util::split(fields[i], '=');
    if (kv.size() != 2) {
      return std::nullopt;
    }
    try {
      if (kv[0] == "id") {
        e.id = std::stoull(kv[1]);
        have_id = true;
      } else if (kv[0] == "parent") {
        e.parent_id = std::stoull(kv[1]);
      } else if (kv[0] == "step") {
        e.step = std::stoull(kv[1]);
      } else if (kv[0] == "bytes") {
        e.bytes = std::stoull(kv[1]);
      } else if (kv[0] == "file") {
        e.file = kv[1];
        have_file = true;
      }  // unknown keys ignored (forward compatibility)
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_id || !have_file) {
    return std::nullopt;
  }
  return e;
}

/// "stat dropped_writes=3" -> {"dropped_writes", 3}.
std::optional<std::pair<std::string, std::uint64_t>> parse_stat_line(
    const std::string& line) {
  const auto fields = util::split(util::trim(line), ' ');
  if (fields.size() != 2 || fields[0] != "stat") {
    return std::nullopt;
  }
  const auto kv = util::split(fields[1], '=');
  if (kv.size() != 2 || kv[0].empty()) {
    return std::nullopt;
  }
  try {
    return std::make_pair(kv[0], std::stoull(kv[1]));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}
}  // namespace

Manifest Manifest::load(io::Env& env, const std::string& dir) {
  Manifest m;
  const auto data = env.read_file(manifest_path(dir));
  if (!data) {
    return m;
  }
  const std::string text(data->begin(), data->end());
  const auto lines = util::split(text, '\n');
  // save() terminates every line, so a file that does not end in '\n'
  // was torn mid-line. A torn tail can still be well-formed — "stat
  // dropped_writes=12" torn to "...=1", or a file= name cut one char
  // short — so parsing it would silently shadow the real value with a
  // truncated one. Never parse it; count it as damage instead.
  const bool torn_tail = !text.empty() && text.back() != '\n';
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (torn_tail && i + 1 == lines.size()) {
      if (!util::trim(line).empty()) {
        ++m.parse_warnings_;
      }
      continue;
    }
    if (auto entry = parse_line(line)) {
      m.upsert(*entry);
      continue;
    }
    if (auto stat = parse_stat_line(line)) {
      m.stats_[stat->first] = stat->second;
      continue;
    }
    const std::string trimmed = util::trim(line);
    if (!trimmed.empty() && trimmed != kHeader) {
      ++m.parse_warnings_;  // torn trailing line, damage, unknown record
    }
  }
  return m;
}

void Manifest::save(io::Env& env, const std::string& dir) const {
  std::ostringstream os;
  os << kHeader << "\n";
  for (const auto& [key, value] : stats_) {
    os << "stat " << key << "=" << value << "\n";
  }
  for (const ManifestEntry& e : entries_) {
    os << "ckpt id=" << e.id << " parent=" << e.parent_id
       << " step=" << e.step << " bytes=" << e.bytes << " file=" << e.file
       << "\n";
  }
  const std::string text = os.str();
  env.write_file_atomic(
      manifest_path(dir),
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
}

std::uint64_t Manifest::stat(const std::string& key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? 0 : it->second;
}

void Manifest::set_stat(const std::string& key, std::uint64_t value) {
  stats_[key] = value;
}

void Manifest::upsert(const ManifestEntry& entry) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry.id,
      [](const ManifestEntry& e, std::uint64_t id) { return e.id < id; });
  if (it != entries_.end() && it->id == entry.id) {
    *it = entry;
  } else {
    entries_.insert(it, entry);
  }
}

void Manifest::remove(std::uint64_t id) {
  std::erase_if(entries_, [id](const ManifestEntry& e) { return e.id == id; });
}

const ManifestEntry* Manifest::find(std::uint64_t id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const ManifestEntry& e, std::uint64_t want) { return e.id < want; });
  return it != entries_.end() && it->id == id ? &*it : nullptr;
}

const ManifestEntry* Manifest::latest() const {
  return entries_.empty() ? nullptr : &entries_.back();
}

std::uint64_t Manifest::max_id() const {
  return entries_.empty() ? 0 : entries_.back().id;
}

void insert_with_chain(const Manifest& manifest, std::uint64_t id,
                       std::set<std::uint64_t>& ids) {
  while (id != 0 && ids.insert(id).second) {
    const ManifestEntry* e = manifest.find(id);
    if (e == nullptr) {
      break;
    }
    id = e->parent_id;
  }
}

std::string checkpoint_file_name(std::uint64_t id) {
  return util::numbered_name("ckpt-", id, ".qckp");
}

std::optional<std::uint64_t> parse_checkpoint_file_name(
    const std::string& name) {
  return util::parse_numbered_name(name, "ckpt-", ".qckp");
}

}  // namespace qnn::ckpt

#include "tier/tiered_env.hpp"

#include <algorithm>
#include <set>

namespace qnn::tier {

TieredEnv::TieredEnv(io::Env& hot, io::Env& cold, bool promote_on_read,
                     std::function<bool(const std::string&)> scrub_filter)
    : hot_(hot),
      cold_(cold),
      promote_on_read_(promote_on_read),
      scrub_filter_(std::move(scrub_filter)) {}

/// Streams into the hot tier; when the stream completes (close), any
/// stale cold copy of the path is scrubbed. Scrubbing AFTER the new
/// version is durable in the hot tier keeps the crash order safe: reads
/// prefer hot, so even a crash between the two leaves the fresh bytes
/// winning. Without the scrub a later hot-side delete (or a duplicate-
/// collapse at startup) could resurrect old content. remove_file is a
/// no-op on absent paths by contract, so this costs one cold op — and
/// none at all for paths the scrub filter knows can never be
/// cold-resident (pinned-hot metadata rewritten every install).
class TieredWritableFile final : public io::WritableFile {
 public:
  TieredWritableFile(TieredEnv& env, std::string path, io::WriteMode mode,
                     std::unique_ptr<io::WritableFile> hot)
      : env_(env), path_(std::move(path)), mode_(mode), hot_(std::move(hot)) {}

  void append(ByteSpan data) override {
    hot_->append(data);
    if (mode_ == io::WriteMode::kPlain) {
      env_.bytes_written_ += data.size();
    } else {
      staged_ += data.size();
    }
  }
  void sync() override { hot_->sync(); }
  void close() override {
    hot_->close();
    // Atomic streams count at close, like every other Env: an aborted
    // install must leave the counter untouched.
    env_.bytes_written_ += staged_;
    if (!env_.scrub_filter_ || env_.scrub_filter_(path_)) {
      env_.cold_.remove_file(path_);
    }
  }

 private:
  TieredEnv& env_;
  const std::string path_;
  const io::WriteMode mode_;
  std::unique_ptr<io::WritableFile> hot_;
  std::uint64_t staged_ = 0;
};

/// Ranged reads served by the cold tier: every range is a cold transfer,
/// counted as such. Never promotes — see the header comment.
class ColdRandomAccessFile final : public io::RandomAccessFile {
 public:
  ColdRandomAccessFile(TieredEnv& env,
                       std::unique_ptr<io::RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}

  [[nodiscard]] std::uint64_t size() const override { return base_->size(); }
  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    Bytes out = base_->pread(offset, n);
    env_.bytes_read_ += out.size();
    env_.cold_read_bytes_ += out.size();
    return out;
  }

 private:
  TieredEnv& env_;
  std::unique_ptr<io::RandomAccessFile> base_;
};

/// Hot ranged reads just count logical bytes.
class HotRangedCounter final : public io::RandomAccessFile {
 public:
  HotRangedCounter(std::atomic<std::uint64_t>& counter,
                   std::unique_ptr<io::RandomAccessFile> base)
      : counter_(counter), base_(std::move(base)) {}
  [[nodiscard]] std::uint64_t size() const override { return base_->size(); }
  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    Bytes out = base_->pread(offset, n);
    counter_ += out.size();
    return out;
  }

 private:
  std::atomic<std::uint64_t>& counter_;
  std::unique_ptr<io::RandomAccessFile> base_;
};

std::unique_ptr<io::WritableFile> TieredEnv::new_writable(
    const std::string& path, io::WriteMode mode) {
  return std::make_unique<TieredWritableFile>(*this, path, mode,
                                              hot_.new_writable(path, mode));
}

std::unique_ptr<io::RandomAccessFile> TieredEnv::open_ranged(
    const std::string& path) {
  if (auto file = hot_.open_ranged(path)) {
    return std::make_unique<HotRangedCounter>(bytes_read_, std::move(file));
  }
  auto file = cold_.open_ranged(path);
  if (!file) {
    return nullptr;
  }
  ++cold_reads_;
  return std::make_unique<ColdRandomAccessFile>(*this, std::move(file));
}

std::optional<util::Bytes> TieredEnv::read_promoting(
    const std::string& path) {
  if (auto data = hot_.read_file(path)) {
    bytes_read_ += data->size();
    return data;
  }
  auto data = cold_.read_file(path);
  if (!data) {
    return std::nullopt;
  }
  bytes_read_ += data->size();
  ++cold_reads_;
  cold_read_bytes_ += data->size();
  if (promote_on_read_) {
    // Read-through promotion, same crash discipline as demotion: the
    // hot copy is durable before the cold one dies, so a crash between
    // the two strands a duplicate (collapsed at the next reconcile),
    // never loses the object. Best effort — a promotion failure must
    // not fail a read that already succeeded.
    try {
      hot_.write_file_atomic(path, *data);
      cold_.remove_file(path);
      ++promoted_files_;
      promoted_bytes_ += data->size();
    } catch (const std::exception&) {
      // Served cold; the object stays cold-resident.
    }
  }
  return data;
}

bool TieredEnv::promote_file(const std::string& path) {
  if (hot_.exists(path)) {
    return false;  // already hot
  }
  try {
    const auto copied = io::stream_copy(cold_, hot_, path);
    if (!copied) {
      return false;
    }
    // The streamed transfer is itself a cold read: count it like any
    // other cold-served access.
    ++cold_reads_;
    bytes_read_ += *copied;
    cold_read_bytes_ += *copied;
    cold_.remove_file(path);
    ++promoted_files_;
    promoted_bytes_ += *copied;
    return true;
  } catch (const std::exception&) {
    return false;  // best effort: the object stays cold
  }
}

bool TieredEnv::exists(const std::string& path) {
  return hot_.exists(path) || cold_.exists(path);
}

void TieredEnv::remove_file(const std::string& path) {
  hot_.remove_file(path);
  cold_.remove_file(path);
}

std::vector<std::string> TieredEnv::list_dir(const std::string& dir) {
  std::set<std::string> names;
  for (std::string& name : hot_.list_dir(dir)) {
    names.insert(std::move(name));
  }
  for (std::string& name : cold_.list_dir(dir)) {
    names.insert(std::move(name));
  }
  return {names.begin(), names.end()};
}

std::optional<std::uint64_t> TieredEnv::file_size(const std::string& path) {
  if (auto size = hot_.file_size(path)) {
    return size;
  }
  return cold_.file_size(path);
}

}  // namespace qnn::tier

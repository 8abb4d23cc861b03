#include "io/mem_env.hpp"

#include <algorithm>

namespace qnn::io {

namespace {
/// True when `path` names a file directly inside `dir`.
bool in_dir(const std::string& path, const std::string& dir) {
  if (path.size() <= dir.size() + 1 || path.compare(0, dir.size(), dir) != 0 ||
      path[dir.size()] != '/') {
    return false;
  }
  return path.find('/', dir.size() + 1) == std::string::npos;
}
}  // namespace

/// Streaming writer. kAtomic buffers the stream privately and installs
/// it all-or-nothing at close (the in-memory twin of tmp + rename);
/// kPlain truncates the target at open and publishes every append
/// immediately — exactly the torn-append window the crash engine tears.
class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(MemEnv& env, std::string path, WriteMode mode)
      : env_(env), path_(std::move(path)), mode_(mode) {
    if (mode_ == WriteMode::kPlain) {
      env_.install(path_, Bytes{});  // truncate; counts zero bytes
    }
  }

  void append(ByteSpan data) override {
    if (mode_ == WriteMode::kAtomic) {
      staged_.insert(staged_.end(), data.begin(), data.end());
    } else {
      env_.append_plain(path_, data);
    }
  }

  void sync() override {}  // memory is as durable as it gets

  void close() override {
    if (mode_ == WriteMode::kAtomic && !closed_) {
      env_.install(path_, std::move(staged_));
    }
    closed_ = true;
  }

 private:
  MemEnv& env_;
  const std::string path_;
  const WriteMode mode_;
  Bytes staged_;
  bool closed_ = false;
};

/// Snapshot reader over the shared immutable buffer taken at open.
class MemRandomAccessFile final : public RandomAccessFile {
 public:
  MemRandomAccessFile(MemEnv& env, MemEnv::FileRef data)
      : env_(env), data_(std::move(data)) {}

  [[nodiscard]] std::uint64_t size() const override { return data_->size(); }

  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    if (offset >= data_->size()) {
      return {};
    }
    n = std::min<std::uint64_t>(n, data_->size() - offset);
    Bytes out(data_->begin() + static_cast<std::ptrdiff_t>(offset),
              data_->begin() + static_cast<std::ptrdiff_t>(offset + n));
    std::lock_guard lock(env_.mu_);
    env_.bytes_read_ += out.size();
    return out;
  }

 private:
  MemEnv& env_;
  const MemEnv::FileRef data_;
};

void MemEnv::install(const std::string& path, Bytes data) {
  std::lock_guard lock(mu_);
  bytes_written_ += data.size();
  files_[path] = std::make_shared<const Bytes>(std::move(data));
}

void MemEnv::append_plain(const std::string& path, ByteSpan data) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  Bytes grown =
      it != files_.end() ? *it->second : Bytes{};  // copy-on-write extend
  grown.insert(grown.end(), data.begin(), data.end());
  files_[path] = std::make_shared<const Bytes>(std::move(grown));
  bytes_written_ += data.size();
}

std::unique_ptr<WritableFile> MemEnv::new_writable(const std::string& path,
                                                   WriteMode mode) {
  return std::make_unique<MemWritableFile>(*this, path, mode);
}

std::unique_ptr<RandomAccessFile> MemEnv::open_ranged(
    const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return nullptr;
  }
  return std::make_unique<MemRandomAccessFile>(*this, it->second);
}

bool MemEnv::exists(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.contains(path);
}

void MemEnv::remove_file(const std::string& path) {
  std::lock_guard lock(mu_);
  files_.erase(path);
}

std::vector<std::string> MemEnv::list_dir(const std::string& dir) {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (in_dir(path, dir)) {
      out.push_back(path.substr(dir.size() + 1));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint64_t> MemEnv::file_size(const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second->size();
}

std::uint64_t MemEnv::bytes_written() const {
  std::lock_guard lock(mu_);
  return bytes_written_;
}

std::uint64_t MemEnv::bytes_read() const {
  std::lock_guard lock(mu_);
  return bytes_read_;
}

bool MemEnv::flip_bit(const std::string& path, std::uint64_t bit_index) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end() || it->second->empty()) {
    return false;
  }
  Bytes copy = *it->second;  // clone-on-write: open handles keep old bytes
  const std::uint64_t bit = bit_index % (copy.size() * 8);
  copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  it->second = std::make_shared<const Bytes>(std::move(copy));
  return true;
}

bool MemEnv::truncate(const std::string& path, std::uint64_t len) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return false;
  }
  if (len < it->second->size()) {
    Bytes copy = *it->second;
    copy.resize(len);
    it->second = std::make_shared<const Bytes>(std::move(copy));
  }
  return true;
}

}  // namespace qnn::io

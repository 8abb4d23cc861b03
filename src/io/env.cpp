#include "io/env.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace qnn::io {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

void ensure_parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (ec) {
      throw std::runtime_error("create_directories '" + parent.string() +
                               "': " + ec.message());
    }
  }
}

/// Writes all of `data` to `fd`, handling short writes.
void write_all(int fd, ByteSpan data, const std::string& path) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("write", path);
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return;  // best effort (e.g. directories on some filesystems)
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole-buffer helpers: one-shot streams over the handles
// ---------------------------------------------------------------------------

void Env::write_file_atomic(const std::string& path, ByteSpan data) {
  auto file = new_writable(path, WriteMode::kAtomic);
  file->append(data);
  file->close();
}

void Env::write_file(const std::string& path, ByteSpan data) {
  auto file = new_writable(path, WriteMode::kPlain);
  file->append(data);
  file->close();
}

std::optional<Bytes> Env::read_file(const std::string& path) {
  auto file = open_ranged(path);
  if (!file) {
    return std::nullopt;
  }
  return file->pread(0, file->size());
}

std::optional<std::uint64_t> stream_copy(Env& src, Env& dst,
                                         const std::string& path) {
  /// Big enough to amortize per-op latency on a shaped device, small
  /// enough that copy memory stays O(1) regardless of object size.
  constexpr std::uint64_t kSliceBytes = std::uint64_t{1} << 20;
  auto in = src.open_ranged(path);
  if (!in) {
    return std::nullopt;
  }
  auto out = dst.new_writable(path, WriteMode::kAtomic);
  const std::uint64_t total = in->size();
  std::uint64_t off = 0;
  while (off < total) {
    const Bytes piece = in->pread(off, kSliceBytes);
    if (piece.empty()) {
      break;  // shrank underneath us; install what we have
    }
    out->append(piece);
    off += piece.size();
  }
  out->close();
  return off;
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

/// Streaming POSIX writer. kAtomic stages into `<path>.tmp` and renames
/// on close; kPlain opens the target with O_TRUNC and lands every append
/// in place. On a durable Env under Linux, each MiB appended since the
/// last call starts its writeback (sync_file_range with
/// SYNC_FILE_RANGE_WRITE), so the device writes a long stream while it
/// is still being produced and the fsync at close waits only for the
/// tail. That call waits for nothing and is never a durability point:
/// its result is ignored, and a failed writeback still fails the file's
/// next fsync.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(PosixEnv& env, std::string path, WriteMode mode)
      : env_(env), path_(std::move(path)), mode_(mode) {
    ensure_parent_dir(path_);
    const std::string& target =
        mode_ == WriteMode::kAtomic ? (tmp_ = path_ + ".tmp") : path_;
    fd_ = ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      throw_errno("open", target);
    }
  }

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
      if (mode_ == WriteMode::kAtomic) {
        ::unlink(tmp_.c_str());  // aborted install: nothing ever appears
      }
    }
  }

  void append(ByteSpan data) override {
    write_all(fd_, data, path_);
    written_ += data.size();
    if (mode_ == WriteMode::kPlain) {
      env_.bytes_written_ += data.size();
    }
#ifdef __linux__
    constexpr std::uint64_t kWritebackBytes = std::uint64_t{1} << 20;
    if (env_.durable_ && written_ - writeback_from_ >= kWritebackBytes) {
      (void)::sync_file_range(fd_, static_cast<off_t>(writeback_from_),
                              static_cast<off_t>(written_ - writeback_from_),
                              SYNC_FILE_RANGE_WRITE);
      writeback_from_ = written_;
    }
#endif
  }

  void sync() override {
    if (env_.durable_ && fd_ >= 0 && ::fsync(fd_) != 0) {
      throw_errno("fsync", path_);
    }
  }

  void close() override {
    if (mode_ == WriteMode::kAtomic) {
      sync();  // the naive (kPlain) writer deliberately never fsyncs
    }
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      if (mode_ == WriteMode::kAtomic) {
        ::unlink(tmp_.c_str());
      }
      throw_errno("close", path_);
    }
    if (mode_ == WriteMode::kAtomic) {
      if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
        ::unlink(tmp_.c_str());
        throw_errno("rename", path_);
      }
      if (env_.durable_) {
        const fs::path parent = fs::path(path_).parent_path();
        if (!parent.empty()) {
          fsync_path(parent.string());
        }
      }
      env_.bytes_written_ += written_;
    }
  }

 private:
  PosixEnv& env_;
  const std::string path_;
  std::string tmp_;
  const WriteMode mode_;
  int fd_ = -1;
  std::uint64_t written_ = 0;
  std::uint64_t writeback_from_ = 0;  ///< end of the last writeback range
};

/// pread-backed ranged reader; size fixed by fstat at open (POSIX
/// open-file semantics shield it from later renames/unlinks).
class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(PosixEnv& env, const std::string& path, int fd,
                        std::uint64_t size)
      : env_(env), path_(path), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  [[nodiscard]] std::uint64_t size() const override { return size_; }

  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    if (offset >= size_) {
      return {};
    }
    n = std::min<std::uint64_t>(n, size_ - offset);
    Bytes out(static_cast<std::size_t>(n));
    std::size_t got = 0;
    while (got < out.size()) {
      const ssize_t r = ::pread(fd_, out.data() + got, out.size() - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("pread", path_);
      }
      if (r == 0) {
        break;  // shrank underneath us: short read
      }
      got += static_cast<std::size_t>(r);
    }
    out.resize(got);
    env_.bytes_read_ += out.size();
    return out;
  }

 private:
  PosixEnv& env_;
  const std::string path_;
  const int fd_;
  const std::uint64_t size_;
};

std::unique_ptr<WritableFile> PosixEnv::new_writable(const std::string& path,
                                                     WriteMode mode) {
  return std::make_unique<PosixWritableFile>(*this, path, mode);
}

std::unique_ptr<RandomAccessFile> PosixEnv::open_ranged(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return nullptr;
    }
    throw_errno("open", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  return std::make_unique<PosixRandomAccessFile>(
      *this, path, fd, static_cast<std::uint64_t>(st.st_size));
}

bool PosixEnv::exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

void PosixEnv::remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

std::vector<std::string> PosixEnv::list_dir(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint64_t> PosixEnv::file_size(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return std::nullopt;
  }
  return size;
}

}  // namespace qnn::io

// In-memory Env for fast, hermetic tests.
#pragma once

#include <map>
#include <mutex>

#include "io/env.hpp"

namespace qnn::io {

/// A tiny in-memory filesystem. Thread-safe (the async checkpoint writer
/// and the training thread may touch it concurrently in tests). Files are
/// stored as shared immutable buffers, so a ranged read handle snapshots
/// the file at open — an atomic overwrite after open never tears a
/// reader, matching POSIX open-file semantics.
class MemEnv final : public Env {
 public:
  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override;
  std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;
  [[nodiscard]] std::uint64_t bytes_written() const override;
  [[nodiscard]] std::uint64_t bytes_read() const override;

  /// Directly corrupts a stored file (test helper): flips the bit at
  /// `bit_index` (modulo file size in bits). Returns false when absent or
  /// empty.
  bool flip_bit(const std::string& path, std::uint64_t bit_index);

  /// Truncates a stored file to `len` bytes (test helper). Returns false
  /// when absent.
  bool truncate(const std::string& path, std::uint64_t len);

 private:
  friend class MemWritableFile;
  friend class MemRandomAccessFile;
  using FileRef = std::shared_ptr<const Bytes>;

  /// Installs `data` at `path` and counts the write (locked internally).
  void install(const std::string& path, Bytes data);
  /// Appends to the stored file in place (kPlain streaming).
  void append_plain(const std::string& path, ByteSpan data);

  mutable std::mutex mu_;
  std::map<std::string, FileRef> files_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace qnn::io

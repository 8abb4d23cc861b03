// Storage environment abstraction.
//
// Everything qnnckpt persists goes through an Env, so tests can run against
// an in-memory filesystem (MemEnv) and the fault matrix (T4) can inject torn
// writes and bit flips (FaultEnv) without touching the checkpoint logic.
//
// The contract is HANDLE-based, mirroring what a streaming, crash-safe
// checkpoint writer needs from a real filesystem:
//   * new_writable(path, mode) -> WritableFile: append / sync / close.
//     kAtomic stages the stream (tmp file + rename on close) so the
//     install is all-or-nothing even across a crash; kPlain lands each
//     append in place, so a crash may leave any byte prefix (the torn-
//     append model the crash matrix enumerates);
//   * open_ranged(path) -> RandomAccessFile: pread of arbitrary ranges,
//     so resolving one chunk of a packfile reads that chunk — not the
//     file. bytes_read() counts exactly the ranges actually returned,
//     which is what makes read amplification a measurable quantity;
//   * exists / remove_file / list_dir / file_size metadata ops.
//
// The whole-buffer calls (write_file_atomic, write_file, read_file) are
// not part of the contract: each is one non-virtual helper over the
// handles (one open, one append/pread, one close), so a decorator that
// intercepts the handles intercepts them too, and none can override them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace qnn::io {

using util::Bytes;
using util::ByteSpan;

/// How a WritableFile's bytes become visible to readers.
enum class WriteMode : std::uint8_t {
  /// Staged install: nothing is visible at `path` until close(), which
  /// publishes the whole stream all-or-nothing (tmp + fsync + rename on
  /// a real filesystem). Destroying the handle without close() aborts —
  /// no bytes ever appear.
  kAtomic,
  /// In-place overwrite: the target is truncated at open and each
  /// append lands immediately. A crash mid-stream leaves a prefix at an
  /// arbitrary append/byte boundary (what FaultEnv/CrashScheduleEnv
  /// model as torn writes). Exists so experiments can compare against
  /// naive checkpoint writers.
  kPlain,
};

/// A streaming write handle. Not thread-safe; a hand-off between threads
/// must be externally sequenced.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` to the stream. Throws std::runtime_error on I/O
  /// failure.
  virtual void append(ByteSpan data) = 0;

  /// Pushes appended bytes toward durability (fsync on PosixEnv when
  /// durable; no-op on in-memory envs).
  virtual void sync() = 0;

  /// Completes the stream. kAtomic: atomically installs the full
  /// contents at the target path. Call exactly once; a handle destroyed
  /// without close() aborts the write (kAtomic: nothing installed).
  virtual void close() = 0;
};

/// A ranged (pread-style) read handle. Reads see the file as it was at
/// open time on envs with snapshot semantics (MemEnv), or POSIX
/// open-file semantics on real filesystems — either way an atomic
/// overwrite after open never tears a reader.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// File size in bytes (fixed at open).
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Reads up to `n` bytes at `offset` (short at EOF, empty past it).
  /// Every returned byte is charged to the env's bytes_read().
  virtual Bytes pread(std::uint64_t offset, std::uint64_t n) = 0;
};

/// Abstract storage backend. Paths use '/' separators; directories are
/// created on demand by writers.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens a streaming write handle (see WriteMode for visibility and
  /// crash semantics). Throws std::runtime_error on I/O failure.
  virtual std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                                     WriteMode mode) = 0;

  /// Opens a ranged read handle, or nullptr when the file is absent.
  virtual std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) = 0;

  /// Atomically installs `data` at `path` (all-or-nothing even across a
  /// crash): new_writable(kAtomic) + append + close.
  void write_file_atomic(const std::string& path, ByteSpan data);

  /// Plain, non-atomic overwrite. A crash mid-call may leave a torn
  /// file: new_writable(kPlain) + append + close.
  void write_file(const std::string& path, ByteSpan data);

  /// Reads the whole file, or std::nullopt when it does not exist:
  /// open_ranged + one full-size pread.
  std::optional<Bytes> read_file(const std::string& path);

  virtual bool exists(const std::string& path) = 0;

  /// Removes a file; no-op when absent.
  virtual void remove_file(const std::string& path) = 0;

  /// Non-recursive listing of file names (not full paths) in `dir`,
  /// sorted ascending. Empty when the directory does not exist.
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;

  /// File size in bytes, or std::nullopt when absent.
  virtual std::optional<std::uint64_t> file_size(const std::string& path) = 0;

  /// Total bytes appended through write handles (atomic streams count at
  /// close, so an aborted install counts nothing). Drives the
  /// bytes-written accounting in F6/T3.
  [[nodiscard]] virtual std::uint64_t bytes_written() const = 0;

  /// Total bytes returned by pread / read_file since creation. The
  /// read-side twin of bytes_written(): recovery cost, tier-promotion
  /// cost and the read amplification of chunk-store resolution are all
  /// measured through this counter — ranged ops charge only the ranges
  /// they return.
  [[nodiscard]] virtual std::uint64_t bytes_read() const = 0;
};

/// Decorator base: forwards the handle and metadata contract to `base`.
/// Test and tool decorators (fail-injection, clocks, path rebasing)
/// derive from this and override only the operations they care about.
class ForwardingEnv : public Env {
 public:
  explicit ForwardingEnv(Env& base) : base_(base) {}

  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override {
    return base_.new_writable(path, mode);
  }
  std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) override {
    return base_.open_ranged(path);
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  void remove_file(const std::string& path) override {
    base_.remove_file(path);
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return base_.list_dir(dir);
  }
  std::optional<std::uint64_t> file_size(const std::string& path) override {
    return base_.file_size(path);
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return base_.bytes_written();
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return base_.bytes_read();
  }

 protected:
  Env& base_;
};

/// Streaming cross-env copy: preads `path` from `src` in bounded slices
/// and appends them to an atomic stream on `dst`, so copying an object
/// of any size costs O(slice) memory. Returns the bytes copied, or
/// std::nullopt when the source is absent. The tier migration engine's
/// demotion and TieredEnv::promote_file (read-through pack promotion)
/// both copy through here — one loop, one shrink-handling policy.
std::optional<std::uint64_t> stream_copy(Env& src, Env& dst,
                                         const std::string& path);

/// Real-filesystem Env backed by POSIX calls, with fsync on file and parent
/// directory during atomic installs.
class PosixEnv final : public Env {
 public:
  /// When `durable` is false, fsync calls are skipped (faster tests; still
  /// atomic with respect to process crashes, not power loss).
  explicit PosixEnv(bool durable = true) : durable_(durable) {}

  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override;
  std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return bytes_read_;
  }

 private:
  friend class PosixWritableFile;
  friend class PosixRandomAccessFile;

  bool durable_;
  /// Atomic: one Env serves several threads at once (an async
  /// Checkpointer's pipeline thread, the encode pool, other callers).
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace qnn::io

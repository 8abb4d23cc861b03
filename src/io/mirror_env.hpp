// Replicated storage Env.
//
// Writes go to every replica (local disk + network mount, two disks, ...);
// reads are served by the first replica that has the file. Combined with
// checkpoint-level CRC verification in recovery, this survives the loss
// or corruption of all but one replica: recovery reads a candidate, and
// if it fails verification, read_fallback() lets the caller try the same
// path on later replicas.
//
// Write errors on a minority of replicas are tolerated (counted, not
// thrown) as long as at least one replica accepts the write — a degraded
// mirror is better than a dead training job. All replicas failing throws.
// Streamed writes carry the same contract: a replica that fails any
// append or close drops out of the stream, and the close throws only
// when no replica survived it.
#pragma once

#include <vector>

#include "io/env.hpp"

namespace qnn::io {

class MirrorEnv final : public Env {
 public:
  /// `replicas` are borrowed and must outlive the MirrorEnv.
  explicit MirrorEnv(std::vector<Env*> replicas);

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

  /// Reads `path` from replica `index` only (recovery's cross-replica
  /// fallback). std::nullopt when absent there.
  std::optional<Bytes> read_replica(std::size_t index,
                                    const std::string& path);

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }

  /// Direct access to one replica as a full Env (cross-replica recovery).
  [[nodiscard]] Env& replica(std::size_t index) {
    return *replicas_.at(index);
  }

  /// Writes that failed on some (but not all) replicas since creation.
  [[nodiscard]] std::uint64_t degraded_writes() const {
    return degraded_writes_;
  }

 private:
  friend class MirrorWritableFile;
  friend class MirrorRandomAccessFile;

  std::vector<Env*> replicas_;
  /// Atomic: several threads drive write paths concurrently.
  std::atomic<std::uint64_t> degraded_writes_{0};
  /// Logical read bytes served by this mirror (whichever replica won).
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace qnn::io

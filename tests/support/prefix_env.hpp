// Subtree-mounting Env decorator, for tests.
//
// PrefixEnv exposes one subtree of a base Env as a standalone Env: every
// path is rewritten to `<prefix>/<path>` before it reaches the base.
// The tier tests compose two PrefixEnvs over ONE physical env (e.g.
// "hot/..." and "cold/..." of a single MemEnv) so the crash-schedule
// harness can count and crash every physical operation of BOTH tiers
// through a single CrashScheduleEnv.
#pragma once

#include <atomic>
#include <utility>

#include "io/env.hpp"

namespace qnn::io {

class PrefixEnv final : public Env {
 public:
  /// `prefix` has no trailing '/' (e.g. "cold"); `base` must outlive
  /// this decorator.
  PrefixEnv(Env& base, std::string prefix)
      : base_(base), prefix_(std::move(prefix)) {}

  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override {
    return std::make_unique<CountingWritable>(
        *this, base_.new_writable(full(path), mode));
  }
  std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) override {
    auto file = base_.open_ranged(full(path));
    if (!file) {
      return nullptr;
    }
    return std::make_unique<CountingRanged>(*this, std::move(file));
  }
  bool exists(const std::string& path) override {
    return base_.exists(full(path));
  }
  void remove_file(const std::string& path) override {
    base_.remove_file(full(path));
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return base_.list_dir(full(dir));
  }
  std::optional<std::uint64_t> file_size(const std::string& path) override {
    return base_.file_size(full(path));
  }
  /// Bytes through THIS mount (the base env counts all mounts together).
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return bytes_read_;
  }

 private:
  /// Forwards the stream, charging appended bytes to this mount.
  class CountingWritable final : public WritableFile {
   public:
    CountingWritable(PrefixEnv& env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    void append(ByteSpan data) override {
      base_->append(data);
      env_.bytes_written_ += data.size();
    }
    void sync() override { base_->sync(); }
    void close() override { base_->close(); }

   private:
    PrefixEnv& env_;
    std::unique_ptr<WritableFile> base_;
  };

  /// Forwards preads, charging returned bytes to this mount.
  class CountingRanged final : public RandomAccessFile {
   public:
    CountingRanged(PrefixEnv& env, std::unique_ptr<RandomAccessFile> base)
        : env_(env), base_(std::move(base)) {}
    [[nodiscard]] std::uint64_t size() const override { return base_->size(); }
    Bytes pread(std::uint64_t offset, std::uint64_t n) override {
      Bytes out = base_->pread(offset, n);
      env_.bytes_read_ += out.size();
      return out;
    }

   private:
    PrefixEnv& env_;
    std::unique_ptr<RandomAccessFile> base_;
  };

  [[nodiscard]] std::string full(const std::string& path) const {
    return prefix_ + "/" + path;
  }

  Env& base_;
  const std::string prefix_;
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace qnn::io

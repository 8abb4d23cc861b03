#include "tier/shaped_env.hpp"

namespace qnn::tier {

ShapeSpec local_nvme_shape() {
  ShapeSpec s;
  s.read_latency_s = 80e-6;
  s.write_latency_s = 80e-6;
  s.read_bytes_per_s = 2.0e9;
  s.write_bytes_per_s = 2.0e9;
  return s;
}

ShapeSpec object_store_shape() {
  ShapeSpec s;
  s.read_latency_s = 8e-3;
  s.write_latency_s = 8e-3;
  s.read_bytes_per_s = 120.0e6;
  s.write_bytes_per_s = 120.0e6;
  return s;
}

ShapedEnv::ShapedEnv(io::Env& base, ShapeSpec spec)
    : base_(base), spec_(spec) {}

double ShapedEnv::read_cost(std::uint64_t bytes) const {
  return spec_.read_latency_s + read_bandwidth_cost(bytes);
}

double ShapedEnv::write_cost(std::uint64_t bytes) const {
  return spec_.write_latency_s + write_bandwidth_cost(bytes);
}

double ShapedEnv::read_bandwidth_cost(std::uint64_t bytes) const {
  return spec_.read_bytes_per_s > 0.0
             ? static_cast<double>(bytes) / spec_.read_bytes_per_s
             : 0.0;
}

double ShapedEnv::write_bandwidth_cost(std::uint64_t bytes) const {
  return spec_.write_bytes_per_s > 0.0
             ? static_cast<double>(bytes) / spec_.write_bytes_per_s
             : 0.0;
}

double ShapedEnv::metadata_cost() const {
  return spec_.metadata_latency_s < 0.0 ? spec_.read_latency_s
                                        : spec_.metadata_latency_s;
}

void ShapedEnv::charge(std::atomic<std::uint64_t>& bucket,
                       double seconds) const {
  if (seconds <= 0.0) {
    return;
  }
  bucket += static_cast<std::uint64_t>(seconds * 1e9);
}

/// The charging model follows the mode's crash semantics. kAtomic is a
/// staged buffer: one write latency at open (the device op), bandwidth
/// per append. kPlain appends land in place immediately, so each append
/// IS an independent device op — latency + bandwidth per call, nothing
/// at open; a WAL-style group-commit bench charges per record, not once
/// per stream. Either way the whole-buffer wrappers (open + one append +
/// close) charge exactly what the historical write_file calls charged.
class ShapedWritableFile final : public io::WritableFile {
 public:
  ShapedWritableFile(ShapedEnv& env, std::unique_ptr<io::WritableFile> base,
                     io::WriteMode mode)
      : env_(env), base_(std::move(base)), mode_(mode) {
    if (mode_ == io::WriteMode::kAtomic) {
      env_.charge(env_.write_ns_, env_.spec_.write_latency_s);
    }
  }
  void append(ByteSpan data) override {
    env_.charge(env_.write_ns_, mode_ == io::WriteMode::kPlain
                                    ? env_.write_cost(data.size())
                                    : env_.write_bandwidth_cost(data.size()));
    base_->append(data);
  }
  void sync() override { base_->sync(); }
  void close() override { base_->close(); }

 private:
  ShapedEnv& env_;
  std::unique_ptr<io::WritableFile> base_;
  const io::WriteMode mode_;
};

/// Every pread is an independent device op: one read latency plus the
/// range's bandwidth. The whole-buffer wrapper (open + one full pread)
/// then charges exactly what the historical read_file charged.
class ShapedRandomAccessFile final : public io::RandomAccessFile {
 public:
  ShapedRandomAccessFile(ShapedEnv& env,
                         std::unique_ptr<io::RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}

  [[nodiscard]] std::uint64_t size() const override { return base_->size(); }
  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    Bytes out = base_->pread(offset, n);
    env_.charge(env_.read_ns_, env_.read_cost(out.size()));
    return out;
  }

 private:
  ShapedEnv& env_;
  std::unique_ptr<io::RandomAccessFile> base_;
};

std::unique_ptr<io::WritableFile> ShapedEnv::new_writable(
    const std::string& path, io::WriteMode mode) {
  return std::make_unique<ShapedWritableFile>(
      *this, base_.new_writable(path, mode), mode);
}

std::unique_ptr<io::RandomAccessFile> ShapedEnv::open_ranged(
    const std::string& path) {
  auto file = base_.open_ranged(path);
  if (!file) {
    // Absent files cost one metadata round trip.
    charge(read_ns_, metadata_cost());
    return nullptr;
  }
  return std::make_unique<ShapedRandomAccessFile>(*this, std::move(file));
}

bool ShapedEnv::exists(const std::string& path) {
  charge(read_ns_, metadata_cost());
  return base_.exists(path);
}

void ShapedEnv::remove_file(const std::string& path) {
  charge(write_ns_, metadata_cost());
  base_.remove_file(path);
}

std::vector<std::string> ShapedEnv::list_dir(const std::string& dir) {
  charge(read_ns_, metadata_cost());
  return base_.list_dir(dir);
}

std::optional<std::uint64_t> ShapedEnv::file_size(const std::string& path) {
  charge(read_ns_, metadata_cost());
  return base_.file_size(path);
}

double ShapedEnv::modeled_read_seconds() const {
  return static_cast<double>(read_ns_.load()) * 1e-9;
}

double ShapedEnv::modeled_write_seconds() const {
  return static_cast<double>(write_ns_.load()) * 1e-9;
}

}  // namespace qnn::tier

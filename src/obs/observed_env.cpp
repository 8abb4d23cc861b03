#include "obs/observed_env.hpp"

#include "util/timer.hpp"

namespace qnn::obs {

// The handle wrappers live at namespace scope (not in an anonymous
// namespace) so ObservedEnv's friend declarations reach them.

/// Write-handle wrapper: charges append/sync per call and, for kAtomic
/// streams, one `install` op (with the stream's total bytes) at close.
/// Destruction without close() forwards the abort untouched — an aborted
/// install is not an install, so nothing is charged.
class ObservedWritableFile final : public io::WritableFile {
 public:
  ObservedWritableFile(std::unique_ptr<io::WritableFile> base,
                       const ObservedEnv& env, io::WriteMode mode)
      : base_(std::move(base)), env_(env), mode_(mode) {}

  void append(io::ByteSpan data) override {
    util::Timer t;
    base_->append(data);
    ObservedEnv::charge(env_.append_, data.size(), t.seconds());
    streamed_ += data.size();
  }

  void sync() override {
    util::Timer t;
    base_->sync();
    ObservedEnv::charge(env_.sync_, 0, t.seconds());
  }

  void close() override {
    util::Timer t;
    base_->close();
    if (mode_ == io::WriteMode::kAtomic) {
      ObservedEnv::charge(env_.install_, streamed_, t.seconds());
    }
  }

 private:
  std::unique_ptr<io::WritableFile> base_;
  const ObservedEnv& env_;
  const io::WriteMode mode_;
  std::uint64_t streamed_ = 0;
};

class ObservedRandomAccessFile final : public io::RandomAccessFile {
 public:
  ObservedRandomAccessFile(std::unique_ptr<io::RandomAccessFile> base,
                           const ObservedEnv& env)
      : base_(std::move(base)), env_(env) {}

  [[nodiscard]] std::uint64_t size() const override { return base_->size(); }

  io::Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    util::Timer t;
    io::Bytes out = base_->pread(offset, n);
    ObservedEnv::charge(env_.pread_, out.size(), t.seconds());
    return out;
  }

 private:
  std::unique_ptr<io::RandomAccessFile> base_;
  const ObservedEnv& env_;
};

ObservedEnv::ObservedEnv(io::Env& base, MetricsRegistry& metrics,
                         std::string prefix)
    : ForwardingEnv(base), prefix_(std::move(prefix)) {
  append_ = make_class(metrics, "append");
  sync_ = make_class(metrics, "sync");
  install_ = make_class(metrics, "install");
  pread_ = make_class(metrics, "pread");
  remove_ = make_class(metrics, "remove");
  meta_ = make_class(metrics, "meta");
}

ObservedEnv::OpClass ObservedEnv::make_class(MetricsRegistry& metrics,
                                             const std::string& name) const {
  OpClass c;
  c.ops = &metrics.counter(prefix_ + "." + name + ".ops");
  c.bytes = &metrics.counter(prefix_ + "." + name + ".bytes");
  c.latency = &metrics.histogram(prefix_ + "." + name + ".latency_us");
  return c;
}

void ObservedEnv::charge(const OpClass& c, std::uint64_t bytes,
                         double seconds) {
  c.ops->add(1);
  if (bytes > 0) {
    c.bytes->add(bytes);
  }
  c.latency->record_seconds(seconds);
}

std::unique_ptr<io::WritableFile> ObservedEnv::new_writable(
    const std::string& path, io::WriteMode mode) {
  return std::make_unique<ObservedWritableFile>(
      base_.new_writable(path, mode), *this, mode);
}

std::unique_ptr<io::RandomAccessFile> ObservedEnv::open_ranged(
    const std::string& path) {
  auto base = base_.open_ranged(path);
  if (base == nullptr) {
    return nullptr;
  }
  return std::make_unique<ObservedRandomAccessFile>(std::move(base), *this);
}

bool ObservedEnv::exists(const std::string& path) {
  util::Timer t;
  const bool out = base_.exists(path);
  charge(meta_, 0, t.seconds());
  return out;
}

void ObservedEnv::remove_file(const std::string& path) {
  util::Timer t;
  base_.remove_file(path);
  charge(remove_, 0, t.seconds());
}

std::vector<std::string> ObservedEnv::list_dir(const std::string& dir) {
  util::Timer t;
  auto out = base_.list_dir(dir);
  charge(meta_, 0, t.seconds());
  return out;
}

std::optional<std::uint64_t> ObservedEnv::file_size(const std::string& path) {
  util::Timer t;
  auto out = base_.file_size(path);
  charge(meta_, 0, t.seconds());
  return out;
}

}  // namespace qnn::obs

// Span tracing with Chrome trace-event JSON output.
//
// A Tracer records a flat, append-only list of duration (B/E) and
// instant (i) events; an RAII Span brackets one stage (snapshot, encode,
// install, demote, WAL replay, ...) with a begin event at construction
// and an end event — carrying the span's key=value annotations — at
// destruction. chrome_json() renders the whole recording in the Chrome
// trace-event format, so `chrome://tracing` / Perfetto load it directly;
// write() puts that JSON at a path (benches honour the QNNCKPT_TRACE
// environment variable).
//
// Parent links: every span gets a process-unique id, stamped on its
// begin event; a child started on another thread (the async pipeline
// thread) names its parent explicitly, so the trace
// keeps the checkpoint's causal chain even though the stages run on
// different tids. Same-thread nesting needs no links — B/E pairs nest by
// position per tid.
//
// Clock: pluggable seconds-valued function. The default is wall time
// (steady_clock); tests install a deterministic clock — e.g. one reading
// a ShapedEnv's modeled seconds — under which a seeded workload produces
// a byte-stable trace (asserted by the golden fixture test). Thread ids
// are likewise renumbered in first-use order, not OS handles, so a
// deterministic run yields identical bytes.
//
// "Disabled" is spelled `nullptr`: Span(nullptr, ...) and every Tracer*
// parameter accept null and make the whole layer one pointer test.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qnn::obs {

class Tracer {
 public:
  /// A pre-rendered JSON key/value annotation ("value" holds the literal
  /// JSON token — quoted string or bare number).
  struct Arg {
    std::string key;
    std::string value;
  };

  using Clock = std::function<double()>;  ///< seconds, monotonic

  /// Default clock = wall time; pass a deterministic function for
  /// byte-stable traces.
  explicit Tracer(Clock clock = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a begin event and returns the new span's id (for explicit
  /// cross-thread parenting). `parent` 0 = no parent link.
  std::uint64_t begin(const std::string& name, const std::string& cat,
                      std::uint64_t parent = 0);
  /// Records the matching end event with the span's annotations.
  void end(const std::string& name, const std::string& cat,
           std::vector<Arg> args);
  /// Records a zero-duration instant event.
  void instant(const std::string& name, const std::string& cat,
               std::vector<Arg> args = {});

  [[nodiscard]] std::size_t event_count() const;

  /// The full recording as Chrome trace-event JSON.
  [[nodiscard]] std::string chrome_json() const;
  /// Writes chrome_json() to a filesystem path (throws on I/O failure).
  void write(const std::string& path) const;

  /// Renders a quoted, escaped JSON string token (for Arg values).
  static std::string json_string(const std::string& s);

 private:
  struct Event {
    char ph;  ///< 'B', 'E' or 'i'
    std::string name;
    std::string cat;
    std::uint64_t ts_us;
    std::uint32_t tid;
    std::vector<Arg> args;
  };

  std::uint64_t now_us_locked();
  std::uint32_t tid_locked();

  mutable std::mutex mu_;
  Clock clock_;
  double t0_ = 0.0;
  std::uint64_t last_ts_us_ = 0;  ///< clamps clock glitches monotone
  std::uint64_t next_span_ = 1;
  std::vector<Event> events_;
  /// Stable small thread numbers in first-use order (OS thread ids are
  /// not deterministic across runs).
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span: begin at construction, end (with annotations) at
/// destruction. Inert when the tracer is null — safe to construct
/// unconditionally on hot paths.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name, std::string cat,
       std::uint64_t parent = 0)
      : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)) {
    if (tracer_ != nullptr) {
      id_ = tracer_->begin(name_, cat_, parent);
    }
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      tracer_ = other.tracer_;
      id_ = other.id_;
      name_ = std::move(other.name_);
      cat_ = std::move(other.cat_);
      args_ = std::move(other.args_);
      other.tracer_ = nullptr;
    }
    return *this;
  }

  /// Annotations land on the end event as JSON args.
  void note(const std::string& key, const std::string& value) {
    if (tracer_ != nullptr) {
      args_.push_back({key, Tracer::json_string(value)});
    }
  }
  void note(const std::string& key, std::uint64_t value) {
    if (tracer_ != nullptr) {
      args_.push_back({key, std::to_string(value)});
    }
  }

  /// This span's id, for parenting children on other threads (0 when
  /// tracing is disabled).
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Ends the span early (idempotent; the destructor becomes a no-op).
  void finish() {
    if (tracer_ != nullptr) {
      tracer_->end(name_, cat_, std::move(args_));
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
  std::string name_;
  std::string cat_;
  std::vector<Tracer::Arg> args_;
};

}  // namespace qnn::obs

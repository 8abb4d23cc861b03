#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

namespace qnn::obs {

namespace {

/// JSON string escaping for instrument names (quote and backslash only:
/// names are programmer-chosen identifiers, not user data).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void LatencyHistogram::record_us(double us) {
  if (!(us > 0.0)) {
    us = 0.0;  // negative or NaN clock glitches clamp to the fast bucket
  }
  const auto us_int = static_cast<std::uint64_t>(us);
  // Bucket 0: < 1 us. Bucket i >= 1: [2^(i-1), 2^i) us — i.e. the bit
  // width of the integral microsecond count, clamped into the overflow
  // bucket.
  const std::size_t idx =
      std::min<std::size_t>(std::bit_width(us_int), kBuckets - 1);
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<std::uint64_t>(us * 1e3),
                    std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::bucket_edge_us(std::size_t i) {
  if (i >= kBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return std::uint64_t{1} << i;
}

std::uint64_t LatencyHistogram::percentile_us(double p) const {
  const std::uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      return bucket_edge_us(i);
    }
  }
  return bucket_edge_us(kBuckets - 1);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return *slot;
}

MetricsRegistry& shared_or_own(MetricsRegistry* shared,
                               std::unique_ptr<MetricsRegistry>& own) {
  if (shared != nullptr) {
    return *shared;
  }
  own = std::make_unique<MetricsRegistry>();
  return *own;
}

std::string MetricsRegistry::text() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "counter " << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge " << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram " << name << " count=" << h->count()
       << " sum_us=" << h->sum_us() << " p50_us=" << h->percentile_us(50)
       << " p99_us=" << h->percentile_us(99) << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::json(const std::string& bench) const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"schema\":\"metrics-v1\"";
  if (!bench.empty()) {
    os << ",\"bench\":\"" << escaped(bench) << '"';
  }
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << '"' << escaped(name) << "\":" << c->value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << '"' << escaped(name) << "\":" << g->value();
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << '"' << escaped(name)
       << "\":{\"count\":" << h->count() << ",\"sum_us\":" << h->sum_us()
       << ",\"p50_us\":" << h->percentile_us(50)
       << ",\"p99_us\":" << h->percentile_us(99) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace qnn::obs

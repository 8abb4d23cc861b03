// Unit tests for the observability layer: MetricsRegistry instruments
// (correctness + concurrency), the registry as the one accumulator
// behind every component's stats() (sync and async, with and without
// CheckpointPolicy::metrics, the checkpoint span tree beside it,
// GC/chunk-store/tier/writer instruments, and on a shared registry each
// component's own counts, levels and peaks and each MANIFEST's own drop
// count),
// Tracer/Span output (including the golden byte-stable trace under a
// deterministic clock), ObservedEnv per-op accounting, the recovery
// flight recorder, and JsonLine's nan/inf handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "ckpt/async_writer.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/wal.hpp"
#include "io/mem_env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "tier/tiered_env.hpp"
#include "util/rng.hpp"

namespace qnn::obs {
namespace {

using io::Bytes;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------- MetricsRegistry ----------

TEST(MetricsRegistry, InstrumentsAreNamedAndStable) {
  MetricsRegistry r;
  Counter& c = r.counter("x.ops");
  c.add(3);
  EXPECT_EQ(&c, &r.counter("x.ops"));  // same instrument on re-lookup
  EXPECT_EQ(r.counter("x.ops").value(), 3u);

  r.gauge("depth").set(-4);
  EXPECT_EQ(r.gauge("depth").value(), -4);
  r.gauge("depth").add(10);
  EXPECT_EQ(r.gauge("depth").value(), 6);
}

TEST(MetricsRegistry, GaugeRaiseKeepsTheHighWaterMark) {
  MetricsRegistry r;
  Gauge& peak = r.gauge("peak");
  peak.raise_to(5);
  peak.raise_to(3);
  EXPECT_EQ(peak.value(), 5);
  peak.raise_to(9);
  EXPECT_EQ(peak.value(), 9);
}

TEST(MetricsRegistry, SharesReadTheirOwnPart) {
  MetricsRegistry r;
  r.counter("n").add(5);
  CounterShare late(r.counter("n"));
  late.add(2);
  EXPECT_EQ(late.value(), 2u);
  EXPECT_EQ(r.counter("n").value(), 7u);

  r.histogram("h").record_seconds(1.0);
  HistogramShare h(r.histogram("h"));
  h.record_seconds(0.5);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.5);
  EXPECT_EQ(r.histogram("h").count(), 2u);

  GaugeShare a(r.gauge("level"));
  GaugeShare b(r.gauge("level"));
  a.set(10);
  b.add(3);
  b.add(-1);
  EXPECT_EQ(a.value(), 10u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(r.gauge("level").value(), 2);  // the latest writer's
}

TEST(MetricsRegistry, ConcurrentRecordingIsExact) {
  MetricsRegistry r;
  Counter& ops = r.counter("ops");
  LatencyHistogram& lat = r.histogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ops, &lat] {
      for (int i = 0; i < kPerThread; ++i) {
        ops.add(1);
        lat.record_us(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(ops.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogram, PowerOfTwoBucketsAndQuantiles) {
  LatencyHistogram h;
  // Bucket 0: sub-microsecond. Bucket i >= 1: [2^(i-1), 2^i) us.
  h.record_us(0.5);
  EXPECT_EQ(h.bucket(0), 1u);
  h.record_us(1.0);  // [1,2) -> bucket 1
  EXPECT_EQ(h.bucket(1), 1u);
  h.record_us(3.0);  // [2,4) -> bucket 2
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.count(), 3u);
  // Quantiles answer the holding bucket's upper edge (never under).
  EXPECT_EQ(h.percentile_us(0.0), 1u);
  EXPECT_EQ(h.percentile_us(100.0), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_edge_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_edge_us(3), 8u);
}

TEST(LatencyHistogram, OverflowBucketAbsorbsSlowSamples) {
  LatencyHistogram h;
  h.record_seconds(1e6);  // absurdly slow: must land in the last bucket
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, TextAndJsonSnapshots) {
  MetricsRegistry r;
  r.counter("b.ops").add(2);
  r.counter("a.ops").add(1);
  r.gauge("depth").set(5);
  r.histogram("lat").record_us(10.0);
  const std::string text = r.text();
  // Sorted: a.ops line precedes b.ops.
  EXPECT_LT(text.find("a.ops"), text.find("b.ops"));
  const std::string json = r.json("unit");
  EXPECT_NE(json.find("\"schema\":\"metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"a.ops\":1"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ---------- Tracer / Span ----------

/// Deterministic clock: advances 100us per call, starting at 0.
Tracer::Clock fake_clock() {
  auto t = std::make_shared<double>(0.0);
  return [t] {
    const double now = *t;
    *t += 100e-6;
    return now;
  };
}

TEST(Tracer, SpansNestAndBalance) {
  Tracer tracer(fake_clock());
  {
    Span outer(&tracer, "outer", "test");
    Span inner(&tracer, "inner", "test", outer.id());
    inner.note("k", std::uint64_t{7});
  }
  tracer.instant("tick", "test");
  EXPECT_EQ(tracer.event_count(), 5u);  // 2 B + 2 E + 1 i
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":7"), std::string::npos);
}

TEST(Tracer, NullTracerSpansAreInert) {
  Span s(nullptr, "nothing", "test");
  s.note("k", "v");
  EXPECT_EQ(s.id(), 0u);
  s.finish();  // must not crash
}

TEST(Tracer, DeterministicClockYieldsByteStableTraces) {
  const auto record = [](Tracer& tracer) {
    Span root(&tracer, "checkpoint", "ckpt");
    root.note("id", std::uint64_t{1});
    {
      Span child(&tracer, "encode", "ckpt", root.id());
      child.note("bytes", std::uint64_t{4096});
    }
    tracer.instant("wal.append", "wal",
                   {{"step", "3"}, {"bytes", "128"}});
  };
  Tracer a(fake_clock());
  Tracer b(fake_clock());
  record(a);
  record(b);
  EXPECT_EQ(a.chrome_json(), b.chrome_json());
}

TEST(Tracer, GoldenTraceFixture) {
  // The exact bytes of a minimal recording. This is the compatibility
  // contract for downstream trace tooling (check_trace.py, Perfetto):
  // renaming fields or reordering events breaks consumers, so it must
  // be a deliberate decision that updates this fixture.
  Tracer tracer(fake_clock());
  {
    Span s(&tracer, "op", "cat");
    s.note("n", std::uint64_t{1});
  }
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"op\",\"cat\":\"cat\",\"ph\":\"B\",\"ts\":100,\"pid\":1,"
      "\"tid\":1,\"args\":{\"span\":1}},\n"
      "{\"name\":\"op\",\"cat\":\"cat\",\"ph\":\"E\",\"ts\":200,\"pid\":1,"
      "\"tid\":1,\"args\":{\"n\":1}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(tracer.chrome_json(), expected);
}

TEST(Tracer, ClockGlitchesAreClampedMonotone) {
  auto t = std::make_shared<double>(1.0);
  Tracer tracer([t] {
    const double now = *t;
    *t -= 0.5;  // clock runs BACKWARDS
    return now;
  });
  tracer.instant("a", "test");
  tracer.instant("b", "test");
  const std::string json = tracer.chrome_json();
  // Second event must not go backwards: both at ts 0 (clamped).
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos);
}

// ---------- ObservedEnv ----------

TEST(ObservedEnv, ChargesHandleOps) {
  io::MemEnv mem;
  MetricsRegistry r;
  ObservedEnv env(mem, r);

  auto out = env.new_writable("f", io::WriteMode::kAtomic);
  out->append(bytes_of("hello"));
  out->append(bytes_of("world"));
  out->sync();
  out->close();

  EXPECT_EQ(r.counter("io.append.ops").value(), 2u);
  EXPECT_EQ(r.counter("io.append.bytes").value(), 10u);
  EXPECT_EQ(r.counter("io.sync.ops").value(), 1u);
  // One atomic close = one install carrying the whole stream.
  EXPECT_EQ(r.counter("io.install.ops").value(), 1u);
  EXPECT_EQ(r.counter("io.install.bytes").value(), 10u);

  auto in = env.open_ranged("f");
  ASSERT_NE(in, nullptr);
  const Bytes got = in->pread(2, 100);  // clamped to 8 bytes
  EXPECT_EQ(got.size(), 8u);
  EXPECT_EQ(r.counter("io.pread.ops").value(), 1u);
  EXPECT_EQ(r.counter("io.pread.bytes").value(), 8u);
}

TEST(ObservedEnv, AbortedAtomicStreamChargesNoInstall) {
  io::MemEnv mem;
  MetricsRegistry r;
  ObservedEnv env(mem, r);
  {
    auto out = env.new_writable("f", io::WriteMode::kAtomic);
    out->append(bytes_of("doomed"));
    // Destroyed without close(): the base aborts the install.
  }
  EXPECT_FALSE(env.exists("f"));
  EXPECT_EQ(r.counter("io.install.ops").value(), 0u);
  EXPECT_EQ(r.counter("io.append.ops").value(), 1u);  // the append happened
}

TEST(ObservedEnv, WholeBufferCallsChargeClasses) {
  io::MemEnv mem;
  MetricsRegistry r;
  ObservedEnv env(mem, r);
  env.write_file_atomic("a", bytes_of("xyz"));
  // One stream through the handles: one append, then one install.
  EXPECT_EQ(r.counter("io.append.ops").value(), 1u);
  EXPECT_EQ(r.counter("io.append.bytes").value(), 3u);
  EXPECT_EQ(r.counter("io.install.ops").value(), 1u);
  EXPECT_EQ(r.counter("io.install.bytes").value(), 3u);
  env.read_file("a");
  EXPECT_EQ(r.counter("io.pread.ops").value(), 1u);
  EXPECT_EQ(r.counter("io.pread.bytes").value(), 3u);
  // A miss opens no handle, so it reads nothing.
  EXPECT_FALSE(env.read_file("missing"));
  EXPECT_EQ(r.counter("io.pread.ops").value(), 1u);
  env.exists("a");
  env.file_size("a");
  env.list_dir("");
  EXPECT_EQ(r.counter("io.meta.ops").value(), 3u);
  env.remove_file("a");
  EXPECT_EQ(r.counter("io.remove.ops").value(), 1u);
}

// ---------- Recovery flight recorder ----------

qnn::TrainingState make_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params.assign(16, 0.25 * static_cast<double>(step));
  s.optimizer_name = "adam";
  s.optimizer_state.assign(64, static_cast<std::uint8_t>(step));
  s.loss_history.assign(step, 0.5);
  s.workload_tag = "obs-test";
  return s;
}

TEST(ObservedEnv, AppendBytesAreEveryByteACheckpointerWrites) {
  // Containers and MANIFEST saves alike stream through the handles, so
  // the append class counts every byte the base env wrote. Keep-all
  // makes MANIFEST saves most of those bytes.
  io::MemEnv mem;
  MetricsRegistry r;
  ObservedEnv env(mem, r);
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  {
    ckpt::Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 40; ++step) {
      ck.maybe_checkpoint(make_state(step));
    }
    EXPECT_EQ(ck.stats().checkpoints, 40u);
  }
  EXPECT_GT(mem.bytes_written(), 0u);
  EXPECT_EQ(r.counter("io.append.bytes").value(), mem.bytes_written());
}

TEST(FlightRecorder, OrderedEventsForWalReplayAfterCrash) {
  io::MemEnv env;
  const std::string dir = "ckpt";
  {
    ckpt::CheckpointPolicy policy;
    policy.strategy = ckpt::Strategy::kFullState;
    policy.every_steps = 10;
    policy.wal.enable = true;
    policy.wal.group_commit_steps = 1;  // every record durable
    ckpt::Checkpointer ck(env, dir, policy);
    for (std::uint64_t step = 1; step <= 13; ++step) {
      ck.maybe_checkpoint(make_state(step));
    }
    // "Crash": drop the checkpointer with journal records 11..13
    // newer than the installed checkpoint at step 10.
  }

  const auto outcome = ckpt::recover_latest(env, dir);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 13u);

  // The recorder must tell the story in order: scan, try the newest
  // candidate, resolve its chain, replay the journal, recover.
  const auto& events = outcome->events;
  ASSERT_GE(events.size(), 5u);
  std::vector<std::string> names;
  names.reserve(events.size());
  for (const auto& e : events) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names[0], "manifest.scan");
  const auto pos = [&names](const std::string& n) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return std::ptrdiff_t{-1};
  };
  ASSERT_GE(pos("candidate.try"), 0);
  ASSERT_GE(pos("chain.resolved"), 0);
  ASSERT_GE(pos("wal.replay"), 0);
  ASSERT_GE(pos("recovered"), 0);
  EXPECT_LT(pos("candidate.try"), pos("chain.resolved"));
  EXPECT_LT(pos("chain.resolved"), pos("wal.replay"));
  EXPECT_LT(pos("wal.replay"), pos("recovered"));

  const auto& replay = events[static_cast<std::size_t>(pos("wal.replay"))];
  EXPECT_EQ(replay.value("records"), "3");
  EXPECT_EQ(replay.value("step"), "13");
  EXPECT_EQ(replay.value("torn_bytes"), "0");
  const auto& done = events[static_cast<std::size_t>(pos("recovered"))];
  EXPECT_EQ(done.value("step"), "13");
  EXPECT_EQ(done.value("missing"), "");  // absent key reads as empty
}

TEST(FlightRecorder, RejectedCandidateIsRecordedBeforeFallback) {
  io::MemEnv env;
  const std::string dir = "ckpt";
  {
    ckpt::CheckpointPolicy policy;
    policy.strategy = ckpt::Strategy::kFullState;
    policy.every_steps = 5;
    ckpt::Checkpointer ck(env, dir, policy);
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.maybe_checkpoint(make_state(step));
    }
  }
  // Corrupt the newest file so recovery must fall back.
  env.write_file_atomic(dir + "/" + ckpt::checkpoint_file_name(2),
                        bytes_of("garbage"));

  const auto outcome = ckpt::recover_latest(env, dir);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 1u);

  bool saw_reject = false;
  bool saw_recover_after_reject = false;
  for (const auto& e : outcome->events) {
    if (e.name == "candidate.reject" && e.value("id") == "2") {
      saw_reject = true;
    }
    if (e.name == "recovered" && saw_reject) {
      saw_recover_after_reject = true;
      EXPECT_EQ(e.value("id"), "1");
    }
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_TRUE(saw_recover_after_reject);
}

// ---------- The registry as the one accumulator ----------

/// The value of counter or gauge `name` as `r` renders it; nullopt when
/// `r` has no such instrument (reading through text() creates none).
std::optional<std::int64_t> rendered(const MetricsRegistry& r,
                                     const std::string& name) {
  std::istringstream lines(r.text());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string kind;
    std::string got;
    std::int64_t value = 0;
    if (fields >> kind >> got >> value && got == name) {
      return value;
    }
  }
  return std::nullopt;
}

/// A Checkpointer policy whose params sections are cut into chunks, so
/// every checkpoint goes through the chunk store.
ckpt::CheckpointPolicy chunked_policy() {
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.codec = codec::CodecId::kRaw;
  policy.every_steps = 2;
  policy.chunk_bytes = ckpt::kMinChunkBytes;
  policy.retention.keep_last = 2;
  return policy;
}

struct SnapshotCase {
  bool async;
  bool shared_registry;
};

class StatsSnapshot : public ::testing::TestWithParam<SnapshotCase> {};

/// How often `needle` occurs in `text`.
std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST_P(StatsSnapshot, EveryFieldIsItsInstrument) {
  const SnapshotCase tc = GetParam();
  io::MemEnv env;
  MetricsRegistry shared;
  Tracer tracer(fake_clock());
  ckpt::CheckpointPolicy policy = chunked_policy();
  policy.async = tc.async;
  policy.metrics = tc.shared_registry ? &shared : nullptr;
  policy.tracer = &tracer;
  ckpt::Checkpointer ck(env, "ckpt", policy);
  for (std::uint64_t step = 1; step <= 12; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  ck.flush();  // no export call: the registry already holds everything
  MetricsRegistry& r = ck.metrics();
  EXPECT_EQ(&r == &shared, tc.shared_registry);

  const auto count = [&r](const char* name) {
    return r.counter(name).value();
  };
  const auto seconds = [&r](const char* name) {
    return r.histogram(name).sum_seconds();
  };
  const ckpt::Checkpointer::Stats s = ck.stats();
  EXPECT_EQ(s.checkpoints, 6u);
  EXPECT_EQ(s.checkpoints, count("ckpt.checkpoints"));
  EXPECT_EQ(s.full_checkpoints, count("ckpt.full_checkpoints"));
  EXPECT_EQ(s.incremental_checkpoints,
            count("ckpt.incremental_checkpoints"));
  EXPECT_EQ(s.bytes_encoded, count("ckpt.bytes_encoded"));
  EXPECT_EQ(s.bytes_raw, count("ckpt.bytes_raw"));
  EXPECT_GT(s.bytes_raw, 0u);
  EXPECT_EQ(s.dropped_writes, count("ckpt.dropped_writes"));
  EXPECT_EQ(s.writer_dropped, count("writer.dropped"));
  EXPECT_EQ(s.writer_failures, count("writer.failures"));
  EXPECT_EQ(s.chunk_refs, count("cas.chunk_refs"));
  EXPECT_GT(s.chunk_refs, 0u);
  EXPECT_EQ(s.chunks_deduped, count("cas.dedup_hits"));
  EXPECT_EQ(s.dedup_bytes, count("cas.dedup_bytes"));
  EXPECT_EQ(s.pack_bytes_written, count("cas.pack_bytes_written"));
  EXPECT_GT(s.pack_bytes_written, 0u);
  EXPECT_EQ(s.wal_records, count("wal.records"));
  EXPECT_EQ(s.wal_bytes, count("wal.bytes"));
  EXPECT_EQ(s.wal_compactions, count("wal.compactions"));
  EXPECT_EQ(s.lifetime_dropped_writes,
            static_cast<std::uint64_t>(
                r.gauge("ckpt.lifetime_dropped_writes").value()));
  EXPECT_EQ(s.peak_encode_buffer_bytes,
            static_cast<std::uint64_t>(
                r.gauge("ckpt.peak_encode_buffer_bytes").value()));
  EXPECT_GT(s.peak_encode_buffer_bytes, 0u);
  // Seconds are the stage histograms' sums; each stage site timed every
  // checkpoint once.
  EXPECT_EQ(s.snapshot_seconds, seconds("ckpt.snapshot"));
  EXPECT_EQ(s.sync_write_seconds, seconds("ckpt.sync_write"));
  EXPECT_EQ(s.submit_blocked_seconds, seconds("ckpt.submit_blocked"));
  EXPECT_EQ(tc.async ? s.pipeline_encode_seconds : s.encode_seconds,
            seconds("ckpt.encode"));
  EXPECT_EQ(tc.async ? s.encode_seconds : s.pipeline_encode_seconds, 0.0);
  EXPECT_EQ(r.histogram("ckpt.snapshot").count(), 6u);
  EXPECT_EQ(r.histogram("ckpt.encode").count(), 6u);
  EXPECT_EQ(r.histogram("ckpt.install").count(), 6u);
  EXPECT_EQ(r.histogram("ckpt.submit_blocked").count(), tc.async ? 6u : 0u);
  EXPECT_EQ(r.histogram("ckpt.sync_write").count(), tc.async ? 0u : 6u);
  // Each checkpoint's span tree wraps the same stage sites: one begin and
  // one end of checkpoint, snapshot, encode and install per checkpoint.
  const std::string trace = tracer.chrome_json();
  for (const char* span : {"checkpoint", "snapshot", "encode", "install"}) {
    for (const char* phase : {"B", "E"}) {
      EXPECT_EQ(occurrences(trace, std::string("{\"name\":\"") + span +
                                       "\",\"cat\":\"ckpt\",\"ph\":\"" +
                                       phase + "\""),
                6u)
          << span << ' ' << phase;
    }
  }

  const ckpt::GcStats gc = ck.gc_stats();
  EXPECT_GT(gc.files_deleted, 0u);
  EXPECT_EQ(gc.runs, count("gc.runs"));
  EXPECT_EQ(gc.files_deleted, count("gc.files_deleted"));
  EXPECT_EQ(gc.bytes_reclaimed, count("gc.bytes_reclaimed"));
  EXPECT_EQ(gc.manifest_rewrites, count("gc.manifest_rewrites"));
  EXPECT_EQ(gc.orphans_deleted, count("gc.orphans_deleted"));
  EXPECT_EQ(gc.budget_violations, count("gc.budget_violations"));
  EXPECT_EQ(gc.wals_reaped, count("gc.wals_reaped"));

  // Every count and byte name the registry used to receive by export
  // holds the value that export copied from the snapshots (tier.* has
  // no engine on a flat Env).
  const ckpt::CasStats cas = ck.cas_stats();
  const std::vector<std::pair<const char*, std::uint64_t>> exported = {
      {"ckpt.checkpoints", s.checkpoints},
      {"ckpt.full_checkpoints", s.full_checkpoints},
      {"ckpt.incremental_checkpoints", s.incremental_checkpoints},
      {"ckpt.bytes_raw", s.bytes_raw},
      {"ckpt.bytes_encoded", s.bytes_encoded},
      {"ckpt.dropped_writes", s.dropped_writes},
      {"ckpt.lifetime_dropped_writes", s.lifetime_dropped_writes},
      {"ckpt.peak_encode_buffer_bytes", s.peak_encode_buffer_bytes},
      {"wal.records", s.wal_records},
      {"wal.bytes", s.wal_bytes},
      {"wal.compactions", s.wal_compactions},
      {"gc.runs", gc.runs},
      {"gc.files_deleted", gc.files_deleted},
      {"gc.bytes_reclaimed", gc.bytes_reclaimed},
      {"gc.manifest_rewrites", gc.manifest_rewrites},
      {"gc.orphans_deleted", gc.orphans_deleted},
      {"gc.wals_reaped", gc.wals_reaped},
      {"cas.packfiles", cas.packfiles},
      {"cas.chunks", cas.chunks},
      {"cas.stored_bytes", cas.stored_bytes},
      {"cas.dedup_hits", cas.dedup_hits},
      {"cas.dedup_bytes", cas.dedup_bytes},
      {"cas.chunks_written", cas.chunks_written}};
  for (const auto& [name, value] : exported) {
    EXPECT_EQ(rendered(r, name), static_cast<std::int64_t>(value)) << name;
  }
  EXPECT_GT(cas.packfiles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RegistryAccumulator, StatsSnapshot,
    ::testing::Values(SnapshotCase{false, false}, SnapshotCase{false, true},
                      SnapshotCase{true, false}, SnapshotCase{true, true}),
    [](const ::testing::TestParamInfo<SnapshotCase>& info) {
      return std::string(info.param.async ? "async" : "sync") +
             (info.param.shared_registry ? "_policy_registry"
                                         : "_own_registry");
    });

/// The value of field `key` in one line of chrome_json() (one event per
/// line), without its quotes; empty when the line has no such field.
std::string event_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = line.find(tag);
  if (at == std::string::npos) {
    return {};
  }
  const auto begin = at + tag.size() + (line[at + tag.size()] == '"');
  return line.substr(begin, line.find_first_of("\",}", begin) - begin);
}

TEST(Tracer, InstallSpansItsParts) {
  // The install tail's parts are spans inside install, on whichever
  // thread installs: the manifest save, the GC pass with its chunk sweep,
  // and the migration.
  for (const bool async : {false, true}) {
    io::MemEnv hot;
    io::MemEnv cold;
    tier::TieredEnv env(hot, cold);
    Tracer tracer(fake_clock());
    ckpt::CheckpointPolicy policy = chunked_policy();
    policy.every_steps = 1;
    policy.async = async;
    policy.retention.keep_last = 6;
    policy.tier.hot_byte_budget = 4 << 10;
    policy.tracer = &tracer;
    {
      ckpt::Checkpointer ck(env, "cp", policy);
      for (std::uint64_t step = 1; step <= 10; ++step) {
        ck.checkpoint_now(make_state(step));
      }
    }
    std::map<std::string, std::vector<std::string>> stacks;  // per tid
    std::map<std::string, int> inside_install;
    std::istringstream lines(tracer.chrome_json());
    for (std::string line; std::getline(lines, line);) {
      const std::string name = event_field(line, "name");
      const std::string phase = event_field(line, "ph");
      std::vector<std::string>& stack = stacks[event_field(line, "tid")];
      if (phase == "E") {
        ASSERT_FALSE(stack.empty());
        EXPECT_EQ(stack.back(), name);
        stack.pop_back();
        continue;
      }
      if (phase != "B") {
        continue;
      }
      const bool in_install =
          std::find(stack.begin(), stack.end(), "install") != stack.end();
      if (name == "manifest.save" || name == "tier.migrate" ||
          name == "gc.collect") {
        EXPECT_TRUE(in_install) << name << " outside install";
      }
      if (name == "cas.sweep" && in_install) {
        EXPECT_EQ(stack.back(), "gc.collect") << "async " << async;
      }
      if (in_install) {
        ++inside_install[name];
      }
      stack.push_back(name);
    }
    EXPECT_GE(inside_install["manifest.save"], 10) << "async " << async;
    EXPECT_EQ(inside_install["tier.migrate"], 10) << "async " << async;
    EXPECT_GT(inside_install["gc.collect"], 0) << "async " << async;
    EXPECT_EQ(inside_install["cas.sweep"], inside_install["gc.collect"])
        << "async " << async;
    EXPECT_GT(inside_install["demote"], 0) << "async " << async;
  }
}

TEST(RegistryAccumulator, GcCasAndTierInstrumentsMove) {
  io::MemEnv hot;
  io::MemEnv cold;
  tier::TieredEnv env(hot, cold);
  MetricsRegistry r;
  ckpt::CheckpointPolicy policy = chunked_policy();
  policy.every_steps = 1;
  policy.retention.keep_last = 6;
  policy.tier.hot_byte_budget = 4 << 10;
  policy.metrics = &r;
  {
    ckpt::Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.checkpoint_now(make_state(step));
    }
  }
  // What a crash between a GC fence and its deletions leaves: a
  // checkpoint file the manifest no longer names, and the journal of an
  // epoch it no longer advertises.
  const auto newest = env.read_file("cp/" + ckpt::checkpoint_file_name(10));
  ASSERT_TRUE(newest.has_value());
  env.write_file_atomic("cp/" + ckpt::checkpoint_file_name(1), *newest);
  env.write_file_atomic("cp/" + ckpt::wal_file_name(2), bytes_of("stale"));
  // The newest checkpoint alone is over this budget.
  policy.retention.byte_budget = 1;
  const auto count = [&r](const char* name) {
    return r.counter(name).value();
  };
  const std::uint64_t gc_runs = count("gc.runs");
  const std::uint64_t files_deleted = count("gc.files_deleted");
  const std::uint64_t demote_runs = count("tier.demote_runs");
  const std::uint64_t files_demoted = count("tier.files_demoted");
  {
    // The startup sweep reaps both and indexes six packs through the
    // four-slot handle cache.
    ckpt::Checkpointer ck(env, "cp", policy);
    ck.checkpoint_now(make_state(11));
    // Its own counts, on a registry the first Checkpointer counted into.
    EXPECT_EQ(ck.stats().checkpoints, 1u);
    EXPECT_EQ(ck.gc_stats().runs, count("gc.runs") - gc_runs);
    EXPECT_EQ(ck.gc_stats().files_deleted,
              count("gc.files_deleted") - files_deleted);
    EXPECT_GT(ck.gc_stats().orphans_deleted, 0u);
    EXPECT_EQ(ck.tier_stats().demote_runs,
              count("tier.demote_runs") - demote_runs);
    EXPECT_EQ(ck.tier_stats().files_demoted,
              count("tier.files_demoted") - files_demoted);
    EXPECT_LT(ck.tier_stats().demote_runs, demote_runs);
  }
  for (const char* name :
       {"gc.runs", "gc.files_deleted", "gc.bytes_reclaimed",
        "gc.manifest_rewrites", "gc.orphans_deleted", "gc.budget_violations",
        "gc.wals_reaped", "cas.packfiles", "cas.chunks", "cas.stored_bytes",
        "cas.chunk_refs", "cas.chunks_written", "cas.pack_bytes_written",
        "cas.packs_deleted", "cas.chunks_swept", "cas.bytes_swept",
        "cas.pack_handle_evictions",
        "tier.demote_runs", "tier.files_demoted", "tier.bytes_demoted",
        "tier.hot_bytes", "tier.cold_bytes"}) {
    EXPECT_GT(rendered(r, name).value_or(0), 0) << name;
  }
  EXPECT_EQ(r.counter("ckpt.checkpoints").value(), 11u);
}

/// Fails the `n`-th open of a checkpoint container for writing
/// (1-based).
class FailNthCheckpointWrite final : public io::ForwardingEnv {
 public:
  FailNthCheckpointWrite(io::Env& base, int n) : ForwardingEnv(base), n_(n) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    if (path.find("ckpt-") != std::string::npos && ++writes_ == n_) {
      throw std::runtime_error("injected checkpoint write failure");
    }
    return base_.new_writable(path, mode);
  }

 private:
  const int n_;
  int writes_ = 0;
};

TEST(RegistryAccumulator, DropsStayInTheirOwnManifest) {
  io::MemEnv mem;
  FailNthCheckpointWrite failing(mem, 2);
  MetricsRegistry shared;
  ckpt::CheckpointPolicy policy = chunked_policy();
  policy.every_steps = 1;
  policy.metrics = &shared;
  ckpt::CheckpointPolicy async_policy = policy;
  async_policy.async = true;
  {
    // Two Checkpointers on one registry at once: "a" loses its second
    // write, "b" installs after that.
    ckpt::Checkpointer b(mem, "b", policy);
    {
      ckpt::Checkpointer a(failing, "a", async_policy);
      for (std::uint64_t step = 1; step <= 3; ++step) {
        a.maybe_checkpoint(make_state(step));
        a.flush();
      }
      EXPECT_EQ(a.stats().dropped_writes, 1u);
      EXPECT_EQ(a.stats().writer_failures, 1u);
      EXPECT_EQ(a.stats().lifetime_dropped_writes, 1u);
      // The gauge shows a's level, b's Stats its own directory's.
      EXPECT_EQ(shared.gauge("ckpt.lifetime_dropped_writes").value(), 1);
      EXPECT_EQ(b.stats().lifetime_dropped_writes, 0u);
    }
    b.maybe_checkpoint(make_state(1));
  }
  EXPECT_EQ(shared.counter("ckpt.dropped_writes").value(), 1u);
  EXPECT_EQ(shared.counter("writer.failures").value(), 1u);
  EXPECT_EQ(ckpt::Manifest::load(mem, "a").stat("dropped_writes"), 1u);
  EXPECT_EQ(ckpt::Manifest::load(mem, "b").stat("dropped_writes"), 0u);
  // A Checkpointer opened on the registry later reports only its own
  // counts, and its directory's lifetime drops.
  ckpt::Checkpointer again(mem, "a", policy);
  again.maybe_checkpoint(make_state(4));
  EXPECT_EQ(again.stats().checkpoints, 1u);
  EXPECT_EQ(again.stats().dropped_writes, 0u);
  EXPECT_EQ(again.stats().lifetime_dropped_writes, 1u);
}

TEST(RegistryAccumulator, ReopenedStoreCountsTheDirectoryOnce) {
  io::MemEnv env;
  MetricsRegistry shared;
  ckpt::CheckpointPolicy policy = chunked_policy();
  policy.metrics = &shared;
  const auto packs_on_disk = [&env] {
    std::uint64_t n = 0;
    for (const std::string& name : env.list_dir("cp/chunks")) {
      n += ckpt::parse_pack_file_name(name).has_value() ? 1 : 0;
    }
    return n;
  };
  {
    ckpt::Checkpointer first(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 4; ++step) {
      first.checkpoint_now(make_state(step));
    }
    EXPECT_EQ(first.gc_stats().files_deleted, 2u);  // keep_last 2
  }
  // The same directory on the same registry: the reopened chunk store
  // indexes the packs on disk once, and its counts start from zero.
  ckpt::Checkpointer again(env, "cp", policy);
  EXPECT_EQ(packs_on_disk(), 2u);
  EXPECT_EQ(again.cas_stats().packfiles, packs_on_disk());
  EXPECT_EQ(rendered(shared, "cas.packfiles"), 2);
  EXPECT_EQ(again.cas_stats().chunks_written, 0u);
  EXPECT_EQ(again.gc_stats().files_deleted, 0u);
  again.checkpoint_now(make_state(5));
  EXPECT_EQ(again.cas_stats().packfiles, packs_on_disk());
  EXPECT_EQ(rendered(shared, "cas.packfiles"),
            static_cast<std::int64_t>(packs_on_disk()));
  EXPECT_EQ(again.gc_stats().files_deleted, 1u);
  EXPECT_EQ(shared.counter("gc.files_deleted").value(), 3u);
}

TEST(RegistryAccumulator, PeaksStayTheirCheckpointers) {
  // Two async Checkpointers on one registry at once: the gauge holds the
  // higher peak, each Stats its own. chunk_bytes is above every section,
  // so each section is stored inline and encoded one at a time, and each
  // peak is its checkpoint's largest encoded section: a fixed size, not
  // a count of chunks some pool thread happened to hold at once.
  io::MemEnv env;
  MetricsRegistry shared;
  ckpt::CheckpointPolicy policy;
  policy.codec = codec::CodecId::kLz;
  policy.chunk_bytes = std::size_t{1} << 20;
  policy.async = true;
  policy.metrics = &shared;
  ckpt::Checkpointer large(env, "large", policy);
  ckpt::Checkpointer small(env, "small", policy);
  // 32 KiB of random params: below the codec's sampling probe, so LZ
  // encodes them whatever it saves, and above every section of the
  // small state.
  qnn::TrainingState big = make_state(1);
  big.params.resize(4096);
  util::Rng rng(7);
  for (double& p : big.params) {
    p = rng.uniform(-1.0, 1.0);
  }
  large.checkpoint_now(big);
  large.flush();
  small.checkpoint_now(make_state(1));
  small.flush();
  const std::uint64_t large_peak = large.stats().peak_encode_buffer_bytes;
  const std::uint64_t small_peak = small.stats().peak_encode_buffer_bytes;
  EXPECT_GT(small_peak, 0u);
  EXPECT_LT(small_peak, large_peak);
  EXPECT_EQ(shared.gauge("ckpt.peak_encode_buffer_bytes").value(),
            static_cast<std::int64_t>(large_peak));
}

TEST(RegistryAccumulator, WriterCountsAJobRefusedAtShutdown) {
  MetricsRegistry r;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> ran_b{false};
  std::atomic<bool> ran_c{false};
  auto* writer = new ckpt::AsyncWriter(/*queue_capacity=*/1, &r);
  // The worker holds "a" until released; "b" then fills the queue.
  EXPECT_TRUE(writer->submit([released] { released.wait(); }));
  EXPECT_TRUE(writer->submit([&ran_b] { ran_b = true; }));
  // "c" either waits for room or arrives after shutdown began; either
  // way the stopping writer refuses it. The destructor cannot finish
  // before the release, so the writer outlives both threads' calls.
  bool refused = false;
  std::thread submitter(
      [&] { refused = !writer->submit([&ran_c] { ran_c = true; }); });
  std::thread destroyer([writer] { delete writer; });
  submitter.join();
  release.set_value();
  destroyer.join();
  EXPECT_TRUE(refused);
  EXPECT_EQ(r.counter("writer.dropped").value(), 1u);
  EXPECT_EQ(r.counter("writer.jobs").value(), 2u);  // "a" and "b" ran
  EXPECT_TRUE(ran_b.load());
  EXPECT_FALSE(ran_c.load());
}

// ---------- JsonLine ----------

TEST(JsonLine, NanAndInfDegradeToNull) {
  const std::string json = bench::JsonLine("unit")
                               .field("ok", 1.5)
                               .field("nan", std::nan(""))
                               .field("inf", HUGE_VAL)
                               .json();
  EXPECT_NE(json.find("\"ok\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos);
  EXPECT_EQ(json.find("nan,"), std::string::npos);
}

}  // namespace
}  // namespace qnn::obs

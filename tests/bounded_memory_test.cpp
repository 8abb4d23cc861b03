// Proof that neither the streaming encode/write path nor chain recovery
// rematerializes whole checkpoint files in memory.
//
// A large full-state checkpoint is written through a real-filesystem
// PosixEnv (MemEnv IS memory, so only the Posix path can demonstrate an
// RSS bound). A sync checkpoint reads the state in place, so it adds no
// copy of it; only async mode pays an O(state) snapshot on the trainer
// thread. Everything the storage stack adds —
// compression waves, the packfile, the container — must stay bounded
// by O(chunk_bytes x encode window), measured by
// Checkpointer::Stats::peak_encode_buffer_bytes and, end to end, by the
// process's peak RSS. Recovering a full checkpoint must hold one copy
// of the state, and so must recovering an incremental chain of any
// depth: each delta chunk is XOR-ed into the resolved payload. Journal
// replay decodes each record body through LZ's window, piece by piece,
// into the payloads, so it adds no copy either. The writers read the
// state in place and build each delta in the buffer of the base it
// replaces, so a sync kIncremental delta checkpoint adds no copy of the
// state and a journal record only its encoded bytes.
//
// CI runs this test under a hard address-space ulimit sized well below
// what the historical whole-buffer path needed (snapshot + serialized
// packfile + encoded container each O(state)); the QNNCKPT_BOUNDED_MEM_MB
// environment variable scales the state so the local default stays fast
// while the CI job writes a checkpoint that simply cannot fit twice.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/wal.hpp"
#include "io/env.hpp"
#include "util/rng.hpp"

namespace qnn::ckpt {
namespace {

namespace fs = std::filesystem;

// AddressSanitizer keeps freed blocks resident in its quarantine, so
// under it peak RSS counts every byte a run allocated, not the bytes
// alive at once: a bound on live copies cannot be read from RSS there.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssTracksLiveBytes = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRssTracksLiveBytes = false;
#else
constexpr bool kRssTracksLiveBytes = true;
#endif
#else
constexpr bool kRssTracksLiveBytes = true;
#endif

std::size_t state_megabytes() {
  if (const char* s = std::getenv("QNNCKPT_BOUNDED_MEM_MB")) {
    const auto v = std::strtoull(s, nullptr, 10);
    if (v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return 24;  // fast local default; CI passes a few hundred
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// VmHWM (peak resident set since the last reset) in bytes; 0 when
/// unreadable.
std::uint64_t vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

/// Returns freed heap pages to the kernel, then resets VmHWM to the
/// current resident set (Linux: "5" written to clear_refs). Pins glibc's
/// mmap threshold first, so that blocks of 128 KiB and more (chunk
/// buffers) are unmapped when freed. Once an earlier free raises the
/// dynamic threshold, each pool thread's arena keeps its freed chunk
/// buffers resident: RSS would count the threads that ran a wave, not
/// the bytes alive at once.
void reset_peak_rss() {
  ::mallopt(M_MMAP_THRESHOLD, 128 << 10);
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

qnn::TrainingState huge_state(std::size_t megabytes) {
  qnn::TrainingState s;
  s.step = 1;
  s.params.resize(megabytes * (std::size_t{1} << 20) / sizeof(double));
  util::Rng rng(2026);
  for (double& p : s.params) {
    p = rng.uniform(-1.0, 1.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.assign(128, 7);
  s.rng_state = rng.serialize();
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

/// The state size of the delta-path tests: a quarter of the encode
/// test's state, so writing a chain of 8 fits CI's ulimit; at least 24
/// MiB, so the fixed slack of the bounds cannot hide a copy of the state
/// in the fast local run.
std::size_t delta_state_megabytes() {
  return std::max<std::size_t>(state_megabytes() / 4, 24);
}

/// Rewrites the `part`-th eighth of the params (0 <= part < 8), so every
/// delta carries real changes.
void rewrite_eighth(qnn::TrainingState& state, std::size_t part) {
  const std::size_t slice = state.params.size() / 8;
  for (std::size_t i = 0; i < slice; ++i) {
    state.params[part * slice + i] += 1.0;
  }
}

/// The bound of every path that may hold one more copy of the state:
/// the copy itself, plus a quarter and 8 MiB of slack (chunks, waves,
/// the chunk store's bookkeeping).
std::uint64_t one_copy_bound(std::uint64_t raw_bytes) {
  return raw_bytes + raw_bytes / 4 + (std::uint64_t{8} << 20);
}

TEST(BoundedMemory, StreamingEncodeNeverRematerializesTheCheckpoint) {
  const std::size_t mb = state_megabytes();
  const std::string root =
      (fs::temp_directory_path() /
       ("qnnckpt_bounded_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  const std::uint64_t rss_before = peak_rss_bytes();
  io::PosixEnv env(/*durable=*/false);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 1;
  policy.codec = codec::CodecId::kRaw;  // bound the CPU, not just memory
  policy.chunk_bytes = std::size_t{1} << 20;

  std::uint64_t raw_bytes = 0;
  std::uint64_t peak_buffered = 0;
  {
    Checkpointer ck(env, root + "/cp", policy);
    const auto state = huge_state(mb);
    raw_bytes = state.params.size() * sizeof(double);
    ck.checkpoint_now(state);
    const auto stats = ck.stats();
    peak_buffered = stats.peak_encode_buffer_bytes;
  }

  // The storage stack's own buffering: a few compression waves (the
  // auto encode window clamps at 16 chunks), never a second copy of the
  // state.
  EXPECT_GT(peak_buffered, 0u);
  EXPECT_LE(peak_buffered, 20 * policy.chunk_bytes)
      << "encode buffering grew with checkpoint size";

  // End to end: peak RSS grew by roughly the state itself (built in this
  // window; the sync checkpoint reads it in place), NOT by the
  // additional O(state) the whole-buffer path paid for the serialized
  // packfile + encoded container. 3x the state is a deliberately loose
  // ceiling that still catches any extra copy of a multi-hundred-MB
  // checkpoint in the CI-sized run.
  const std::uint64_t rss_growth = peak_rss_bytes() - rss_before;
  EXPECT_LT(rss_growth, 3 * raw_bytes + (std::uint64_t{64} << 20))
      << "peak RSS suggests the checkpoint was materialized again";

  // And it actually landed, intact.
  const auto outcome = recover_latest(env, root + "/cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state.params.size(), raw_bytes / sizeof(double));
  EXPECT_EQ(outcome->state, huge_state(mb));

  fs::remove_all(root);
}

TEST(BoundedMemory, SyncCheckpointAddsNoCopyOfTheState) {
  const std::size_t mb = state_megabytes();
  const std::uint64_t raw_bytes = huge_state(mb).params.size() * sizeof(double);
  // Extern 256 KiB chunks, and chunk_bytes above the state: every
  // section inline, the way to keep a directory out of the chunk store.
  for (const std::uint64_t chunk_bytes :
       {std::uint64_t{256} << 10, 2 * raw_bytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk_bytes));
    const bool extern_params = chunk_bytes < raw_bytes;
    const std::string root =
        (fs::temp_directory_path() /
         ("qnnckpt_bounded_sync_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(root);

    io::PosixEnv env(/*durable=*/false);
    CheckpointPolicy policy;
    policy.strategy = Strategy::kFullState;
    policy.every_steps = 1;
    policy.codec = codec::CodecId::kRaw;
    policy.chunk_bytes = chunk_bytes;
    std::uint64_t rss_growth = 0;
    {
      const auto state = huge_state(mb);
      Checkpointer ck(env, root + "/cp", policy);
      reset_peak_rss();
      const std::uint64_t rss_before = vm_hwm_bytes();
      ASSERT_GT(rss_before, 0u) << "VmHWM unreadable";
      ck.checkpoint_now(state);
      rss_growth = vm_hwm_bytes() - rss_before;
    }

    // The payload is read from the state's own vectors. Extern, the
    // checkpoint adds one wave of encoded chunks (the auto window clamps
    // at 16), the assembled first chunk and the store's bookkeeping.
    // Inline and stored raw, the params section goes out as its count
    // and then its elements, never joined. A snapshot of the state, or a
    // joined payload, would add the whole state.
    if (kRssTracksLiveBytes) {
      const std::uint64_t bound = raw_bytes / 4 +
                                  (extern_params ? 20 * chunk_bytes : 0) +
                                  (std::uint64_t{4} << 20);
      const double ratio =
          static_cast<double>(rss_growth) / static_cast<double>(raw_bytes);
      EXPECT_LT(rss_growth, bound)
          << "copied the state: grew " << ratio << "x";
    }
    // The state is rebuilt for the comparison, so recovery (which holds
    // an inline section's whole container) fits CI's address-space limit.
    const auto outcome = recover_latest(env, root + "/cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, huge_state(mb));

    fs::remove_all(root);
  }
}

TEST(BoundedMemory, FullStateRecoveryHoldsOneCopyOfTheState) {
  const std::size_t mb = state_megabytes();
  const std::string root =
      (fs::temp_directory_path() /
       ("qnnckpt_bounded_full_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  io::PosixEnv env(/*durable=*/false);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = std::size_t{1} << 20;
  std::uint64_t raw_bytes = 0;
  {
    Checkpointer ck(env, root + "/cp", policy);
    const auto state = huge_state(mb);
    raw_bytes = state.params.size() * sizeof(double);
    ck.checkpoint_now(state);
  }

  reset_peak_rss();
  const std::uint64_t rss_before = vm_hwm_bytes();
  ASSERT_GT(rss_before, 0u) << "VmHWM unreadable";
  const auto outcome = recover_latest(env, root + "/cp");
  const std::uint64_t rss_growth = vm_hwm_bytes() - rss_before;

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 1u);
  // Every extern chunk lands in the params vector the state keeps, so
  // recovery grows by the state plus a chunk and the chunk store's
  // bookkeeping. A resolved payload copied into the state is 2x.
  if (kRssTracksLiveBytes) {
    EXPECT_LT(rss_growth, one_copy_bound(raw_bytes))
        << "recovery held a second copy of the state: grew "
        << static_cast<double>(rss_growth) / static_cast<double>(raw_bytes)
        << "x";
  }
  EXPECT_EQ(outcome->state, huge_state(mb));

  fs::remove_all(root);
}

TEST(BoundedMemory, IncrementalChainRecoveryHoldsOneCopyOfTheState) {
  const std::size_t mb = delta_state_megabytes();
  const std::string root =
      (fs::temp_directory_path() /
       ("qnnckpt_bounded_chain_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  io::PosixEnv env(/*durable=*/false);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 8;  // one full + 7 deltas: a chain of depth 8
  policy.retention.keep_last = 0;
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = std::size_t{1} << 20;

  auto state = huge_state(mb);
  const std::uint64_t raw_bytes = state.params.size() * sizeof(double);
  {
    Checkpointer ck(env, root + "/cp", policy);
    for (std::uint64_t step = 1; step <= 8; ++step) {
      state.step = step;
      rewrite_eighth(state, step - 1);
      ck.checkpoint_now(state);
    }
    ASSERT_EQ(ck.stats().incremental_checkpoints, 7u);
  }

  reset_peak_rss();
  const std::uint64_t rss_before = vm_hwm_bytes();
  ASSERT_GT(rss_before, 0u) << "VmHWM unreadable";
  const auto outcome = recover_latest(env, root + "/cp");
  const std::uint64_t rss_growth = vm_hwm_bytes() - rss_before;

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 8u);
  EXPECT_EQ(outcome->state, state);
  // Each delta chunk is XOR-ed into the resolved payload the state
  // keeps, so the chain recovers like one full checkpoint: one copy of
  // the state, whatever the depth. A decoded file beside the resolved
  // state is 2x; a chain held whole ~9x at depth 8.
  if (kRssTracksLiveBytes) {
    const double ratio =
        static_cast<double>(rss_growth) / static_cast<double>(raw_bytes);
    EXPECT_LT(rss_growth, one_copy_bound(raw_bytes))
        << "recovery held a decoded file: grew " << ratio << "x";
  }

  fs::remove_all(root);
}

TEST(BoundedMemory, IncrementalDeltaCheckpointAddsNoCopyOfTheState) {
  const std::size_t mb = delta_state_megabytes();
  const std::string root =
      (fs::temp_directory_path() /
       ("qnnckpt_bounded_delta_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  io::PosixEnv env(/*durable=*/false);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = std::size_t{1} << 20;
  auto state = huge_state(mb);
  const std::uint64_t raw_bytes = state.params.size() * sizeof(double);
  std::uint64_t rss_growth = 0;
  {
    Checkpointer ck(env, root + "/cp", policy);
    ck.checkpoint_now(state);  // full: the first delta base
    state.step = 2;
    rewrite_eighth(state, 0);
    reset_peak_rss();
    const std::uint64_t rss_before = vm_hwm_bytes();
    ASSERT_GT(rss_before, 0u) << "VmHWM unreadable";
    ck.checkpoint_now(state);
    rss_growth = vm_hwm_bytes() - rss_before;
    ASSERT_EQ(ck.stats().incremental_checkpoints, 1u);
  }

  // The sync delta checkpoint reads the state in place, builds the
  // delta in the previous base's buffer, and copies the state over that
  // buffer once the encode returns: no state-sized buffer. kRaw holds no
  // encode wave at any pool size. A copy of the state is 1x; a delta in a
  // buffer of its own besides it 2x.
  if (kRssTracksLiveBytes) {
    const double ratio =
        static_cast<double>(rss_growth) / static_cast<double>(raw_bytes);
    EXPECT_LT(rss_growth, raw_bytes / 4 + (std::uint64_t{4} << 20))
        << "the delta checkpoint copied the state: grew " << ratio << "x";
  }
  const auto outcome = recover_latest(env, root + "/cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, state);

  fs::remove_all(root);
}

TEST(BoundedMemory, JournalRecordBuildsItsDeltaInItsBase) {
  const std::size_t mb = delta_state_megabytes();
  const std::string root =
      (fs::temp_directory_path() /
       ("qnnckpt_bounded_wal_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  io::PosixEnv env(/*durable=*/false);
  const auto base = huge_state(mb);
  auto state = base;
  const std::uint64_t raw_bytes = state.params.size() * sizeof(double);
  std::uint64_t rss_growth = 0;
  {
    WalWriter wal(env, root, 1, WalPolicy{}, codec::CodecId::kLz, base,
                  /*include_simulator=*/false);
    state.step = 2;
    rewrite_eighth(state, 0);
    reset_peak_rss();
    const std::uint64_t rss_before = vm_hwm_bytes();
    ASSERT_GT(rss_before, 0u) << "VmHWM unreadable";
    wal.log_step(state);
    rss_growth = vm_hwm_bytes() - rss_before;
  }

  // The record reads the state in place and XORs it into the writer's
  // base, so it adds the encoded record and its frame: an eighth of the
  // state each. A copy of the state, or a delta buffer, adds 1x each.
  if (kRssTracksLiveBytes) {
    const double ratio =
        static_cast<double>(rss_growth) / static_cast<double>(raw_bytes);
    EXPECT_LT(rss_growth, raw_bytes / 2 + (std::uint64_t{4} << 20))
        << "the record copied the state: grew " << ratio << "x";
  }
  SectionPayloads sections;
  for (Section& s : state_to_sections(base, false, codec::CodecId::kRaw)) {
    sections[s.kind] = SectionPayload(s.kind, std::move(s.payload));
  }
  reset_peak_rss();
  const std::uint64_t replay_before = vm_hwm_bytes();
  ASSERT_TRUE(replay_wal(env, root, 1, sections).has_value());
  const std::uint64_t replay_growth = vm_hwm_bytes() - replay_before;
  // Replay XORs each decoded piece into the resolved payloads, through
  // LZ's window: it adds the journal's bytes (an eighth of the state)
  // and the window. A decoded body beside the payloads adds 1x.
  if (kRssTracksLiveBytes) {
    const double ratio =
        static_cast<double>(replay_growth) / static_cast<double>(raw_bytes);
    EXPECT_LT(replay_growth, raw_bytes / 4 + (std::uint64_t{4} << 20))
        << "replay decoded a whole body: grew " << ratio << "x";
  }
  EXPECT_EQ(load_state(std::move(sections)), state);

  fs::remove_all(root);
}

}  // namespace
}  // namespace qnn::ckpt

// The Checkpointer: policy-driven persistence of training state.
//
// Strategies (DESIGN.md §1.3):
//   * kParamsOnly   — classical state only (params, optimiser, RNG, data
//                     cursor, loss history). Small; recovery restarts any
//                     in-flight circuit evaluation from scratch.
//   * kFullState    — additionally persists the mid-evaluation simulator
//                     snapshot when one is present in the TrainingState.
//   * kIncremental  — like kFullState, but sections are XOR-deltas against
//                     the previous checkpoint, with a self-contained full
//                     checkpoint forced every `full_every` checkpoints to
//                     bound chain length.
//
// Writes are atomic installs via the Env; the manifest is updated after a
// successful install, and retention/garbage-collection is delegated to
// the CheckpointStore (ckpt/store.hpp), which runs after every install
// with crash-consistent ordering (manifest fence before deletion,
// child-before-parent) and sweeps crash-stranded orphan files at startup.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "ckpt/async_writer.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/store.hpp"
#include "ckpt/wal.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qnn/training_state.hpp"
#include "util/thread_pool.hpp"

namespace qnn::ckpt {

enum class Strategy : std::uint8_t {
  kParamsOnly = 0,
  kFullState = 1,
  kIncremental = 2,
};

std::string strategy_name(Strategy s);

struct CheckpointPolicy {
  Strategy strategy = Strategy::kParamsOnly;
  /// Section and chunk codec. A payload (inline section or extern chunk)
  /// of codec::kProbeMinBytes or more is stored raw when the sampled
  /// probe or the full encode shows this codec would not shrink it, so a
  /// record's or a section's codec may be kRaw whatever this says.
  codec::CodecId codec = codec::CodecId::kLz;
  /// Checkpoint when state.step is a positive multiple of this. With the
  /// adaptive mode below, this is only the *initial* interval.
  std::uint64_t every_steps = 10;
  /// What the CheckpointStore keeps resolvable after each install:
  /// keep-last-N window, step-spaced long-horizon history (optionally
  /// Young–Daly-derived), byte budget. See ckpt/store.hpp.
  RetentionPolicy retention;
  /// WHERE the retained set lives when the Env is a tier::TieredEnv:
  /// hot byte budget, pin-last-N hot, demotion batching. Inert on a
  /// flat Env. See tier/migration.hpp.
  tier::TierPolicy tier;
  /// Incremental chains: force a full checkpoint every N checkpoints.
  std::uint64_t full_every = 10;
  /// Write checkpoints on one background pipeline thread instead of the
  /// caller's: the trainer thread only copies the state into section
  /// payloads; chunk compression, CRC, the file write and the install run
  /// off the critical path, one checkpoint at a time in id order, through
  /// the same write step a sync checkpoint runs. At most
  /// Checkpointer::kPipelineDepth copies wait behind the one being
  /// written; the trainer blocks for room before it copies (bounded
  /// memory; the wait is ckpt.submit_blocked). Chunk keys and
  /// compression fan out on a private pool of half of
  /// ThreadPool::default_thread_count(), leaving headroom for the
  /// training computation they overlap. (Sync mode encodes straight from
  /// the state.)
  bool async = false;
  /// Sections larger than this are cut into chunks of this size, stored
  /// content-addressed in the directory's chunk store and deduplicated
  /// across checkpoints (see ckpt/format.hpp); their misses compress in
  /// parallel. Cuts fall on the section's element grid: a params block
  /// aligned to chunk_bytes in the array and rewritten in place dirties
  /// one chunk, not two. Sections at most this size are stored inline,
  /// so a value above the largest section keeps every checkpoint
  /// self-contained and out of the chunk store (no dedup).
  std::size_t chunk_bytes = std::size_t{1} << 20;

  /// Adaptive (Young–Daly) interval selection: when > 0, the checkpointer
  /// measures the per-step wall time and the per-checkpoint cost (EWMA)
  /// and re-derives every_steps ≈ sqrt(2*C*MTBF) / step_time after every
  /// checkpoint, clamped to [1, adaptive_max_steps].
  double target_mtbf_seconds = 0.0;
  std::uint64_t adaptive_max_steps = 100000;

  /// Injectable monotonic clock (seconds); tests drive a fake one.
  /// Defaults to std::chrono::steady_clock.
  std::function<double()> clock;

  /// Delta journal between full installs (ckpt/wal.hpp): when enabled,
  /// every off-boundary maybe_checkpoint() appends one framed record to
  /// the active wal-<epoch>.qwal, the log rotates on each install, and
  /// an over-budget log compacts into a normal install. Forces sync mode
  /// (async = false): the journal's epoch must be durable before its
  /// records claim to delta against it.
  WalPolicy wal;

  /// Observability, both borrowed. `metrics` is the registry the
  /// Checkpointer counts and times into, as do the async writer, store,
  /// chunk store and tier engine it owns: the ckpt.*, wal.*, writer.*,
  /// gc.*, cas.* and tier.* instruments and one latency histogram per
  /// stage (ckpt.submit_blocked, .snapshot, .encode, .sync_write,
  /// .install, .keep_bases, .rotate_wal, and wal.append). Null means a
  /// registry of the Checkpointer's own; Stats reads the instruments
  /// either way. `tracer` (null = one pointer test) receives one span
  /// tree per checkpoint (checkpoint -> snapshot/encode/install, linked
  /// to the async pipeline thread by parent ids; install -> its
  /// manifest.save, gc.collect, cas.sweep and tier.migrate) plus WAL
  /// append/compaction instants.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

class Checkpointer {
 public:
  /// Async mode: checkpoints queued behind the one the pipeline thread is
  /// writing before checkpoint_now blocks. Each holds one snapshot; with
  /// the one being written that is 5 in flight, enough to ride out a
  /// burst of slow syncs when checkpoints come every few steps of a
  /// small model (bench_f3 at interval 5).
  static constexpr std::size_t kPipelineDepth = 4;

  /// A snapshot of the registry instruments named beside each field.
  /// Counts and seconds are net of what their instruments held when this
  /// Checkpointer opened, so they stay this Checkpointer's when a
  /// registry serves several in turn (Checkpointers recording into one
  /// registry at once add into the same counters); the two levels are
  /// this Checkpointer's own. Seconds are the sums of the stage
  /// histograms. Each field is read on its own: take the snapshot after
  /// flush() for fields that agree with each other.
  struct Stats {
    // ckpt.checkpoints, ckpt.full_checkpoints, ckpt.incremental_checkpoints
    std::uint64_t checkpoints = 0;
    std::uint64_t full_checkpoints = 0;
    std::uint64_t incremental_checkpoints = 0;
    std::uint64_t bytes_encoded = 0;  ///< ckpt.bytes_encoded: file sizes
    std::uint64_t bytes_raw = 0;      ///< ckpt.bytes_raw: section payloads
    /// ckpt.snapshot: section build and, async, the hand-off to the
    /// pipeline thread.
    double snapshot_seconds = 0.0;
    double encode_seconds = 0.0;      ///< ckpt.encode, sync: trainer thread
    double sync_write_seconds = 0.0;  ///< ckpt.sync_write: pack + close
    /// ckpt.install, sync: the trainer thread's manifest save, GC, chunk
    /// sweep and migration. 0 in async mode, where the pipeline installs.
    double install_seconds = 0.0;
    /// ckpt.keep_bases: sync kIncremental's copy of the state over its
    /// delta bases after each write.
    double keep_bases_seconds = 0.0;
    /// ckpt.rotate_wal: opening the next journal (its base copy of the
    /// state) after each install.
    double rotate_wal_seconds = 0.0;
    /// wal.append: journal records appended between installs.
    double wal_append_seconds = 0.0;
    /// ckpt.submit_blocked (async): the trainer's waits for room in the
    /// pipeline queue, 0 for a checkpoint that found room.
    double submit_blocked_seconds = 0.0;
    double pipeline_encode_seconds = 0.0;  ///< ckpt.encode, async
    /// ckpt.dropped_writes: checkpoints lost in the async pipeline: the
    /// encode or write failed, a delta child was quarantined behind a
    /// lost parent, or the pipeline refused the checkpoint during
    /// shutdown. After a drop the next checkpoint is forced full so a
    /// missing file cannot orphan later deltas. A sync caller sees its
    /// loss as the exception alone.
    std::uint64_t dropped_writes = 0;
    /// writer.dropped / writer.failures: the AsyncWriter's own counts,
    /// so shutdown-drops are never silent: checkpoints refused because
    /// the pipeline was stopping, and checkpoint writes that threw. 0 in
    /// sync mode. dropped_writes above is the pipeline-level view (it
    /// also counts quarantined delta children).
    std::uint64_t writer_dropped = 0;
    std::uint64_t writer_failures = 0;
    /// ckpt.lifetime_dropped_writes (a gauge): the directory's drop count
    /// persisted in the MANIFEST ("stat dropped_writes=N"), surviving
    /// restarts — what the inspector shows post mortem. Includes this
    /// session's drops (each becomes durable at the next install), and
    /// never another directory's.
    std::uint64_t lifetime_dropped_writes = 0;

    // Content-addressed dedup, counted by the chunk store. A "chunk ref"
    // is one chunk of one extern section of one checkpoint; deduped refs
    // skipped compression and storage because the chunk was resident.
    std::uint64_t chunk_refs = 0;          ///< cas.chunk_refs
    std::uint64_t chunks_deduped = 0;      ///< cas.dedup_hits
    std::uint64_t dedup_bytes = 0;         ///< cas.dedup_bytes
    std::uint64_t pack_bytes_written = 0;  ///< cas.pack_bytes_written

    /// ckpt.peak_encode_buffer_bytes (a gauge raised to the highest peak
    /// of the Checkpointers recording into it): this Checkpointer's
    /// high-water mark of encoded bytes buffered by the encode path: the
    /// misses in flight, or one encoded inline section. Both modes
    /// stream the container into its file and the chunks into the
    /// packfile, one checkpoint at a time; an inline section is at most
    /// chunk_bytes, and the misses in flight hold <= window x
    /// chunk_bytes + 8 (a first chunk carries its u64 count; see
    /// section_array_offset). The peak is therefore O(chunk x window),
    /// independent of checkpoint size, as the bounded-memory pipeline
    /// test asserts.
    std::uint64_t peak_encode_buffer_bytes = 0;

    /// Delta journal (policy.wal): records appended (wal.records),
    /// journal bytes appended, headers + frames (wal.bytes), and
    /// over-budget compactions folded into normal installs
    /// (wal.compactions).
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t wal_compactions = 0;

    /// Total trainer-thread stall attributable to checkpointing: every
    /// stage that runs on the caller's thread inside checkpoint_now and
    /// the journal append.
    [[nodiscard]] double trainer_stall_seconds() const {
      return submit_blocked_seconds + snapshot_seconds + encode_seconds +
             sync_write_seconds + install_seconds + keep_bases_seconds +
             rotate_wal_seconds + wal_append_seconds;
    }
  };

  Checkpointer(io::Env& env, std::string dir, CheckpointPolicy policy);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Checkpoints when the policy's step boundary is hit. Returns true
  /// when a checkpoint was produced. Reads `state` as checkpoint_now
  /// does.
  bool maybe_checkpoint(const qnn::TrainingState& state);

  /// True when maybe_checkpoint() would checkpoint at `step`. Lets a
  /// caller skip the TrainingState capture entirely on off-boundary
  /// steps — but only when neither of two modes needs every step: the
  /// adaptive interval learns the step cadence from *every*
  /// maybe_checkpoint call, and the journal (policy.wal) logs exactly
  /// the steps that are not due, so adaptive and journaling callers must
  /// keep calling it each step.
  [[nodiscard]] bool due(std::uint64_t step) const {
    const std::uint64_t interval = policy_.target_mtbf_seconds > 0.0
                                       ? current_interval_
                                       : policy_.every_steps;
    return interval != 0 && step != 0 &&
           step >= last_checkpoint_step_ + interval;
  }

  /// Unconditionally produces a checkpoint of `state`. Sync mode reads
  /// `state` in place until the call returns (Strategy::kIncremental
  /// too, which copies it over its delta bases after the write), so it
  /// must not be mutated concurrently. Async mode waits for room in the
  /// pipeline queue, copies `state` before returning and writes the copy
  /// in the background.
  void checkpoint_now(const qnn::TrainingState& state);

  /// Waits for any in-flight async writes to install.
  void flush();

  [[nodiscard]] Stats stats() const;
  /// The registry everything this Checkpointer owns counts into:
  /// policy().metrics, or the Checkpointer's own when that is null.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Retention/GC counters from the underlying CheckpointStore (the
  /// gc.* instruments, as they stand in the registry).
  [[nodiscard]] GcStats gc_stats() const { return store_.stats(); }
  /// Hot/cold migration counters (zeros on a flat, non-tiered Env).
  [[nodiscard]] tier::TierStats tier_stats() { return store_.tier_stats(); }
  [[nodiscard]] const CheckpointStore& store() const { return store_; }
  [[nodiscard]] const CheckpointPolicy& policy() const { return policy_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Chunk-store counters (dedup ratio, packfile population).
  [[nodiscard]] CasStats cas_stats() { return store_.chunks().stats(); }

  /// The interval currently in force (== policy().every_steps unless the
  /// adaptive mode has re-derived it).
  [[nodiscard]] std::uint64_t current_interval() const {
    return current_interval_;
  }

 private:
  /// Builds the (possibly delta-encoded) section list. Returns the file
  /// object to encode; in sync mode its full sections view `state`, and
  /// its delta sections hold their base's buffer. An async kIncremental
  /// checkpoint keeps its copy of the state as the next delta base.
  CheckpointFile build_file(const qnn::TrainingState& state,
                            std::uint64_t id);

  /// Sync kIncremental, once `file` is written: each kind's base takes
  /// its buffer back from its delta section (or from last_raw_) and
  /// `state` is copied over it; kinds absent from `state` drop out.
  void keep_bases(CheckpointFile& file, const qnn::TrainingState& state);

  /// The write step of one checkpoint, on the caller's thread in sync
  /// mode and on the pipeline thread in async mode: opens the chunk
  /// batch, streams the container into its atomic handle (chunks into
  /// the batch's packfile, keys and compression on `pool`, null =
  /// inline), commits and publishes the pack, closes the container, then
  /// installs it. The pack commit lands strictly before the container's
  /// close: chunks are durable before anything references them. Throws
  /// when the checkpoint did not become durable. A delta child of
  /// broken_chain_tip_ is dropped before its file opens.
  void write_checkpoint(const CheckpointFile& file, ManifestEntry entry,
                        util::ThreadPool* pool, std::uint64_t parent_span);

  /// Installs an encoded checkpoint: manifest upsert + save, the retain
  /// of `batch`'s chunk references (none when every section is inline),
  /// then the store's fenced GC.
  void install(ManifestEntry entry, ChunkStore::Batch& batch);

  /// Counts one dropped checkpoint (manifest_mu_ held).
  void count_drop_locked();

  io::Env& env_;
  std::string dir_;
  CheckpointPolicy policy_;
  /// The registry kept when policy.metrics is null.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry& metrics_;
  // Instruments resolved once from metrics_ (see Stats and
  // CheckpointPolicy::metrics); recording is a relaxed atomic add.
  obs::CounterShare checkpoints_;
  obs::CounterShare full_checkpoints_;
  obs::CounterShare incremental_checkpoints_;
  obs::CounterShare bytes_encoded_;
  obs::CounterShare bytes_raw_;
  obs::CounterShare dropped_writes_;
  /// manifest_'s "stat dropped_writes", written under manifest_mu_.
  obs::GaugeShare lifetime_dropped_writes_;
  obs::CounterShare wal_records_;
  obs::CounterShare wal_bytes_;
  obs::CounterShare wal_compactions_;
  obs::HistogramShare submit_blocked_;
  obs::HistogramShare snapshot_;
  obs::HistogramShare encode_;
  obs::HistogramShare sync_write_;
  obs::HistogramShare install_;
  obs::HistogramShare keep_bases_;
  obs::HistogramShare rotate_wal_;
  obs::HistogramShare wal_append_;
  /// Owns retention + crash-consistent GC + tier migration; invoked
  /// under manifest_mu_.
  CheckpointStore store_;
  /// Measures peak encoded bytes buffered in flight (see Stats).
  util::MemGauge encode_gauge_;

  /// Guards manifest_ (its "stat dropped_writes" line is the directory's
  /// lifetime drop count) and broken_chain_tip_; serialises installs.
  std::mutex manifest_mu_;
  Manifest manifest_;

  /// Re-derives current_interval_ from EWMA costs (adaptive mode).
  void update_adaptive_interval(double ckpt_cost_seconds);

  std::uint64_t next_id_ = 1;
  std::uint64_t last_checkpoint_step_ = 0;
  std::uint64_t current_interval_ = 0;

  // Adaptive-mode measurements.
  double last_seen_time_ = -1.0;   ///< clock at the previous maybe_checkpoint
  std::uint64_t last_seen_step_ = 0;
  double ewma_step_seconds_ = 0.0;
  double ewma_ckpt_seconds_ = 0.0;
  std::uint64_t last_id_ = 0;
  /// Raw section payloads of the previous checkpoint (delta bases).
  /// kIncremental builds each delta in its base's buffer, moved out of
  /// here. A sync checkpoint reads the state in place and then copies it
  /// over the buffers the bases already have (keep_bases), so once they
  /// exist it allocates no state-sized buffer; an async one's copy of the
  /// state becomes the next base.
  std::map<SectionKind, Bytes> last_raw_;
  std::uint64_t checkpoints_since_full_ = 0;

  /// Closes (and supersedes) the previous epoch's journal and opens
  /// wal-<id>.qwal with `state` — the just-installed checkpoint — as the
  /// delta base. Called at the tail of every successful sync install
  /// when policy.wal is enabled. When the new log fails to open, wal_
  /// stays null and the exception reaches the caller; the next step past
  /// the install installs instead, which retries the rotation.
  void rotate_wal(std::uint64_t id, const qnn::TrainingState& state);

  /// Async checkpoint `id` failed on the pipeline thread: sets
  /// force_full_, makes `id` broken_chain_tip_ and counts the drop.
  /// Allocation-free, so the failure path cannot itself fail.
  void mark_chain_broken(std::uint64_t id);

  /// Set when a checkpoint was lost: the next checkpoint built must be
  /// full, because deltas may chain through the missing file. Deltas
  /// already queued behind a lost async checkpoint are dropped via
  /// broken_chain_tip_.
  std::atomic<bool> force_full_{false};
  /// Newest async id (guarded by manifest_mu_) that failed on the
  /// pipeline thread or was dropped behind such a failure — the tip of a
  /// broken delta chain. Chains are linear (each child's parent is the
  /// previous id) and the pipeline thread takes checkpoints in id order,
  /// so one id suffices and is final when the next checkpoint's write
  /// starts: write_checkpoint drops a child whose parent is the tip and
  /// advances the tip to it, and a successful full install resets the
  /// tip — chains cannot reach back past a full. A loss on the trainer
  /// thread, or any sync loss, needs no tip: nothing in flight deltas
  /// against the id, and force_full_ covers what follows. 0 = no broken
  /// chain.
  std::uint64_t broken_chain_tip_ = 0;
  /// Async mode's chunk keys and compression; null in sync mode.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Async mode's pipeline thread; null in sync mode. Declared after
  /// everything its tasks touch (pool_ included), so it is destroyed
  /// first and drains any task ~Checkpointer's flush left while they
  /// are all alive.
  std::unique_ptr<AsyncWriter> writer_;
  /// Active delta journal (policy.wal). Created by the first install of
  /// the session — steps before it are covered by the previous session's
  /// (immutable) log up to the step recovery replayed. Trainer-thread
  /// only: wal mode forces sync installs.
  std::unique_ptr<WalWriter> wal_;
  /// Set by the session's first rotation: from then on every step past
  /// an install is journaled or installed, and a null wal_ means the
  /// last rotation failed.
  bool wal_rotated_ = false;
};

}  // namespace qnn::ckpt

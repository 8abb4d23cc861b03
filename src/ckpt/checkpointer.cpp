#include "ckpt/checkpointer.hpp"

#include <algorithm>
#include <cmath>
#include <chrono>

#include "ckpt/state_codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/timer.hpp"

namespace qnn::ckpt {

namespace {
std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kParamsOnly:
      return "params-only";
    case Strategy::kFullState:
      return "full-state";
    case Strategy::kIncremental:
      return "incremental";
  }
  return "unknown";
}

Checkpointer::Checkpointer(io::Env& env, std::string dir,
                           CheckpointPolicy policy)
    : env_(env),
      dir_(std::move(dir)),
      policy_(std::move(policy)),
      metrics_(obs::shared_or_own(policy_.metrics, own_metrics_)),
      checkpoints_(metrics_.counter("ckpt.checkpoints")),
      full_checkpoints_(metrics_.counter("ckpt.full_checkpoints")),
      incremental_checkpoints_(
          metrics_.counter("ckpt.incremental_checkpoints")),
      bytes_encoded_(metrics_.counter("ckpt.bytes_encoded")),
      bytes_raw_(metrics_.counter("ckpt.bytes_raw")),
      dropped_writes_(metrics_.counter("ckpt.dropped_writes")),
      lifetime_dropped_writes_(metrics_.gauge("ckpt.lifetime_dropped_writes")),
      wal_records_(metrics_.counter("wal.records")),
      wal_bytes_(metrics_.counter("wal.bytes")),
      wal_compactions_(metrics_.counter("wal.compactions")),
      submit_blocked_(metrics_.histogram("ckpt.submit_blocked")),
      snapshot_(metrics_.histogram("ckpt.snapshot")),
      encode_(metrics_.histogram("ckpt.encode")),
      sync_write_(metrics_.histogram("ckpt.sync_write")),
      install_(metrics_.histogram("ckpt.install")),
      keep_bases_(metrics_.histogram("ckpt.keep_bases")),
      rotate_wal_(metrics_.histogram("ckpt.rotate_wal")),
      wal_append_(metrics_.histogram("wal.append")),
      store_(env_, dir_, policy_.retention, policy_.tier, &metrics_),
      encode_gauge_(metrics_.gauge("ckpt.peak_encode_buffer_bytes")) {
  if (!policy_.clock) {
    policy_.clock = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
  current_interval_ = policy_.every_steps;
  if (policy_.tracer != nullptr) {
    store_.set_observability(policy_.tracer);
  }
  if (policy_.wal.enable) {
    // The journal's epoch (its delta base) must be durably installed
    // before records claiming to delta against it are appended; an
    // async install lands behind the trainer's next appends, so wal mode
    // runs sync installs.
    policy_.async = false;
  }
  // Keep the lazy-pool trigger in checkpoint_now aligned with the
  // clamp encode_checkpoint applies internally.
  policy_.chunk_bytes = std::max(policy_.chunk_bytes, kMinChunkBytes);
  // Resume id allocation after any existing checkpoints in the directory.
  manifest_ = Manifest::load(env_, dir_);
  next_id_ = manifest_.max_id() + 1;
  // Every manifest this Checkpointer writes carries the directory's
  // lifetime drop count, which count_drop_locked() adds to.
  const std::uint64_t lifetime_drops = manifest_.stat("dropped_writes");
  manifest_.set_stat("dropped_writes", lifetime_drops);
  lifetime_dropped_writes_.set(lifetime_drops);
  // Load the chunk refcount baseline NOW, while the directory is
  // quiescent. Deferring it into the pipeline would let the rebuild run
  // concurrently with in-flight installs and count a just-written file
  // whose retain() is still pending (double count).
  store_.chunks().open();
  // Startup GC: reap files a previous run's crash stranded between a GC
  // fence and its deletions (safe here — nothing is in flight yet).
  store_.sweep_orphans(manifest_);
  if (policy_.async) {
    // Half the cores for chunk keys and compression: the pipeline runs
    // concurrently with training, whose sim kernels fan out on the
    // global pool — claiming every hardware thread here would
    // oversubscribe the CPU against the very steps async mode is meant
    // to protect.
    pool_ = std::make_unique<util::ThreadPool>(std::max<std::size_t>(
        1, util::ThreadPool::default_thread_count() / 2));
    writer_ = std::make_unique<AsyncWriter>(kPipelineDepth, &metrics_);
  }
}

void Checkpointer::update_adaptive_interval(double ckpt_cost_seconds) {
  constexpr double kAlpha = 0.3;  // EWMA weight for fresh samples
  ewma_ckpt_seconds_ = ewma_ckpt_seconds_ <= 0.0
                           ? ckpt_cost_seconds
                           : (1.0 - kAlpha) * ewma_ckpt_seconds_ +
                                 kAlpha * ckpt_cost_seconds;
  if (ewma_step_seconds_ <= 0.0 || ewma_ckpt_seconds_ <= 0.0) {
    return;  // not enough signal yet
  }
  // Young's first-order optimum, converted from seconds to steps.
  const double tau =
      std::sqrt(2.0 * ewma_ckpt_seconds_ * policy_.target_mtbf_seconds);
  const double steps = tau / ewma_step_seconds_;
  current_interval_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(steps + 0.5), 1, policy_.adaptive_max_steps);
}

Checkpointer::~Checkpointer() {
  try {
    flush();
  } catch (...) {
    // The final journal sync runs against the live env and can fail
    // (e.g. a scheduled crash mid-teardown); destruction must not
    // throw — recovery truncates whatever tail the failure left.
  }
  // writer_ is destroyed first after this body and drains whatever the
  // flush left, while everything its tasks touch is still alive.
}

bool Checkpointer::maybe_checkpoint(const qnn::TrainingState& state) {
  // Adaptive mode: learn the per-step wall time from call cadence.
  if (policy_.target_mtbf_seconds > 0.0) {
    const double now = policy_.clock();
    if (last_seen_time_ >= 0.0 && state.step > last_seen_step_) {
      const double per_step = (now - last_seen_time_) /
                              static_cast<double>(state.step - last_seen_step_);
      constexpr double kAlpha = 0.3;
      ewma_step_seconds_ = ewma_step_seconds_ <= 0.0
                               ? per_step
                               : (1.0 - kAlpha) * ewma_step_seconds_ +
                                     kAlpha * per_step;
    }
    last_seen_time_ = now;
    last_seen_step_ = state.step;
  }

  if (!due(state.step)) {
    if (wal_rotated_ && state.step > last_checkpoint_step_) {
      if (wal_ == nullptr || wal_->over_budget() || wal_->failed()) {
        // Compaction: fold the journal into a normal install, which
        // rotates the log onto the new epoch. A journal whose last
        // append failed, or that a failed rotation never opened, takes
        // the same path instead of logging on (or skipping the step).
        wal_compactions_.add();
        if (policy_.tracer != nullptr && wal_ != nullptr) {
          policy_.tracer->instant(
              "wal.compact", "wal",
              {{"epoch", std::to_string(wal_->epoch())},
               {"bytes", std::to_string(wal_->bytes_logged())}});
        }
        checkpoint_now(state);
        return true;
      }
      util::Timer append_timer;
      const std::uint64_t before = wal_->bytes_logged();
      wal_->log_step(state);
      if (policy_.tracer != nullptr) {
        policy_.tracer->instant(
            "wal.append", "wal",
            {{"step", std::to_string(state.step)},
             {"bytes", std::to_string(wal_->bytes_logged() - before)}});
      }
      wal_records_.add();
      wal_bytes_.add(wal_->bytes_logged() - before);
      wal_append_.record_seconds(append_timer.seconds());
    }
    return false;
  }
  checkpoint_now(state);
  return true;
}

CheckpointFile Checkpointer::build_file(const qnn::TrainingState& state,
                                        std::uint64_t id) {
  const bool include_sim = policy_.strategy != Strategy::kParamsOnly;
  CheckpointFile file;
  file.checkpoint_id = id;
  file.step = state.step;
  file.time_us = now_us();
  // The one place that decides when a checkpoint owns a copy of the
  // state: only the async hand-off, which outlives this call. A sync
  // checkpoint encodes straight from the caller's state, which stays
  // borrowed until checkpoint_now returns; under kIncremental it builds
  // each delta in the previous base's buffer and copies the state over
  // the bases once the write returns (keep_bases).
  const bool own = writer_ != nullptr;
  file.sections = own ? state_to_sections(state, include_sim, policy_.codec)
                      : view_state_sections(state, include_sim, policy_.codec);

  // Consume the drop-recovery flag unconditionally: if a scheduled full
  // already breaks the chain this round, the flag must not linger and
  // force a second, redundant full next round.
  const bool force_full = force_full_.exchange(false);
  const bool want_delta = policy_.strategy == Strategy::kIncremental &&
                          last_id_ != 0 &&
                          checkpoints_since_full_ < policy_.full_every &&
                          !force_full;
  if (want_delta) {
    file.parent_id = last_id_;
    std::map<SectionKind, Bytes> current_raw;  // async: the next bases
    try {
      for (Section& s : file.sections) {
        const auto parent = last_raw_.find(s.kind);
        if (parent == last_raw_.end()) {
          if (own) {
            current_raw[s.kind] = s.payload;  // stays raw in the file too
          }
          continue;
        }
        // The parent's buffer becomes the delta, moved: this runs on the
        // trainer thread, where every byte counts. An async checkpoint's
        // copy of the state becomes the next base; a sync one takes the
        // buffer back after the write.
        Bytes delta = std::move(parent->second);
        xor_section_into(delta, s);
        if (own) {
          current_raw[s.kind] = std::move(s.payload);
        }
        s.payload = std::move(delta);
        s.view = {};
        s.flags |= kSectionFlagDelta;
      }
    } catch (...) {
      // A base went into a delta that is never written: the next
      // checkpoint must not delta against what is left of last_raw_.
      force_full_.store(true);
      throw;
    }
    if (own) {
      last_raw_ = std::move(current_raw);
    }
    ++checkpoints_since_full_;
  } else {
    // Full checkpoint (also the delta base for what follows). Only the
    // incremental strategy ever reads the base, and a sync one refreshes
    // it after the write: don't spend trainer time copying payloads
    // nobody will diff against.
    if (own) {
      last_raw_.clear();
      if (policy_.strategy == Strategy::kIncremental) {
        for (const Section& s : file.sections) {
          last_raw_[s.kind] = s.payload;
        }
      }
    }
    checkpoints_since_full_ = 1;
  }
  last_id_ = id;
  return file;
}

void Checkpointer::checkpoint_now(const qnn::TrainingState& state) {
  const double t_begin = policy_.clock();
  const std::uint64_t id = next_id_++;
  last_checkpoint_step_ = state.step;

  // The root span covers the trainer-visible slice; the async pipeline
  // thread's encode and install link back via its id.
  obs::Span ckpt_span(policy_.tracer, "checkpoint", "ckpt");
  ckpt_span.note("id", id);
  ckpt_span.note("step", state.step);
  const std::uint64_t parent_span = ckpt_span.id();

  if (writer_) {
    // Backpressure before the copy: the trainer never holds a snapshot
    // the queue has no room for.
    submit_blocked_.record_seconds(writer_->wait_for_room());
  }

  try {
    // Trainer-thread stage: the state's section payloads (plus delta
    // bookkeeping), copied only where build_file must own them, and in
    // async mode their hand-off to the pipeline thread: with the wait for
    // room, all the trainer pays for there.
    util::Timer snapshot_timer;
    obs::Span snap_span(policy_.tracer, "snapshot", "ckpt", parent_span);
    CheckpointFile file = build_file(state, id);
    std::uint64_t raw_bytes = 0;
    for (const Section& s : file.sections) {
      raw_bytes += s.size();
    }
    snap_span.note("bytes_raw", raw_bytes);

    ManifestEntry entry;
    entry.id = id;
    entry.parent_id = file.parent_id;
    entry.step = state.step;
    entry.file = checkpoint_file_name(id);
    bytes_raw_.add(raw_bytes);
    checkpoints_.add();
    (file.is_incremental() ? incremental_checkpoints_ : full_checkpoints_)
        .add();

    if (writer_) {
      // The pipeline thread runs the same write step, in id order. A
      // failure there breaks the chain before the next queued checkpoint
      // is taken, and rethrows into writer.failures.
      const bool queued = writer_->submit(
          [this, file = std::move(file), entry, parent_span] {
            try {
              write_checkpoint(file, entry, pool_.get(), parent_span);
            } catch (...) {
              mark_chain_broken(entry.id);
              throw;
            }
          });
      if (!queued) {
        // Refused at shutdown: nothing queued can delta against this id.
        force_full_.store(true);
        std::lock_guard lock(manifest_mu_);
        count_drop_locked();
      }
    }
    snap_span.finish();
    snapshot_.record_seconds(snapshot_timer.seconds());

    if (writer_ == nullptr) {
      // The trainer is stalled for the whole write anyway — fan chunk
      // compression out on the global pool so the stall at least shrinks
      // with core count. Resolve it lazily: only touch (and thereby
      // instantiate) the global pool when some section is actually large
      // enough to chunk.
      util::ThreadPool* pool = nullptr;
      for (const Section& s : file.sections) {
        if (s.size() > policy_.chunk_bytes) {
          pool = &util::global_pool();
          break;
        }
      }
      write_checkpoint(file, entry, pool, parent_span);
      if (policy_.strategy == Strategy::kIncremental) {
        util::Timer keep_timer;
        keep_bases(file, state);
        keep_bases_.record_seconds(keep_timer.seconds());
      }
    }
  } catch (...) {
    // The snapshot, the hand-off or the sync write failed. build_file
    // may already have advanced last_id_/last_raw_ to the lost id, so the
    // next checkpoint must be full: a caller that swallows this exception
    // and keeps training must not produce orphaned deltas. Nothing in
    // flight can delta against this id, so no chain needs a quarantine.
    // Not counted as a drop: the exception alone reports the loss.
    force_full_.store(true);
    throw;
  }

  if (policy_.wal.enable && writer_ == nullptr) {
    // The install is durable and advertised: start this epoch's journal
    // and retire the superseded one behind that fence.
    util::Timer rotate_timer;
    rotate_wal(id, state);
    rotate_wal_.record_seconds(rotate_timer.seconds());
  }

  if (policy_.target_mtbf_seconds > 0.0) {
    // The training thread paid from t_begin to now (async mode excludes
    // the background encode + write by construction).
    update_adaptive_interval(policy_.clock() - t_begin);
    // The step-cadence clock must not count checkpoint time as step time.
    last_seen_time_ = policy_.clock();
  }
}

void Checkpointer::write_checkpoint(const CheckpointFile& file,
                                    ManifestEntry entry,
                                    util::ThreadPool* pool,
                                    std::uint64_t parent_span) {
  {
    std::lock_guard lock(manifest_mu_);
    if (entry.parent_id != 0 && entry.parent_id == broken_chain_tip_) {
      // A delta child queued behind a parent that never became durable
      // resolves to nothing: drop it before its file opens, and pass the
      // quarantine on to its own children.
      broken_chain_tip_ = entry.id;
      count_drop_locked();
      return;
    }
  }
  // Every oversized section's chunks dedup against the directory's chunk
  // store through this batch. install() retains its references before
  // any GC pass, which is what keeps a dedup hit alive; a drop kills the
  // batch unretained, aborting an uncommitted pack stream.
  const std::unique_ptr<ChunkStore::Batch> batch =
      store_.chunks().begin_batch(entry.id);
  const EncodeOptions encode_options{.chunk_bytes = policy_.chunk_bytes,
                                     .pool = pool,
                                     .sink = batch.get(),
                                     .encode_window = 0,
                                     .gauge = &encode_gauge_};

  // The container streams straight into its atomic handle: neither it
  // nor the packfile ever exists as a second in-memory copy.
  util::Timer encode_timer;
  obs::Span encode_span(policy_.tracer, "encode", "ckpt", parent_span);
  encode_span.note("id", entry.id);
  auto out = env_.new_writable(dir_ + "/" + entry.file, io::WriteMode::kAtomic);
  WritableSink out_sink(*out);
  entry.bytes = encode_checkpoint(file, encode_options, out_sink);
  encode_span.note("bytes", entry.bytes);
  encode_span.finish();
  encode_.record_seconds(encode_timer.seconds());

  util::Timer write_timer;
  if (!batch->empty()) {
    batch->commit();
    // Durable now: the records become dedup targets for later
    // checkpoints.
    store_.chunks().publish(*batch);
  }
  out->close();
  if (writer_ == nullptr) {
    sync_write_.record_seconds(write_timer.seconds());
  }
  bytes_encoded_.add(entry.bytes);

  util::Timer install_timer;
  obs::Span install_span(policy_.tracer, "install", "ckpt", parent_span);
  install_span.note("id", entry.id);
  install(entry, *batch);
  install_span.finish();
  install_.record_seconds(install_timer.seconds());
}

void Checkpointer::keep_bases(CheckpointFile& file,
                              const qnn::TrainingState& state) {
  // A delta section carries its base's buffer; a full one views the
  // state, and its kind's base, if any, is still in last_raw_.
  std::map<SectionKind, Bytes> bases;
  for (Section& s : file.sections) {
    Bytes& base = bases[s.kind];
    if (s.is_delta()) {
      base = std::move(s.payload);
    } else if (const auto it = last_raw_.find(s.kind); it != last_raw_.end()) {
      base = std::move(it->second);
    }
  }
  const bool include_sim = policy_.strategy != Strategy::kParamsOnly;
  for (const Section& s :
       view_state_sections(state, include_sim, policy_.codec)) {
    copy_section_over(bases[s.kind], s);
  }
  last_raw_ = std::move(bases);  // kinds absent from the state drop out
}

void Checkpointer::rotate_wal(std::uint64_t id,
                              const qnn::TrainingState& state) {
  const std::uint64_t old_epoch = wal_ ? wal_->epoch() : 0;
  wal_.reset();  // close is best-effort: a torn tail is recovery's job
  wal_rotated_ = true;
  const bool include_sim = policy_.strategy != Strategy::kParamsOnly;
  wal_ = std::make_unique<WalWriter>(env_, dir_, id, policy_.wal,
                                     policy_.codec, state, include_sim);
  wal_bytes_.add(wal_->bytes_logged());  // the new log's header
  if (old_epoch != 0 && old_epoch != id) {
    // The new install supersedes the old epoch's records wholesale; its
    // log dies behind the manifest fence install() already wrote. The
    // store's GC and startup sweep reap it if this remove never runs.
    env_.remove_file(dir_ + "/" + wal_file_name(old_epoch));
  }
}

void Checkpointer::mark_chain_broken(std::uint64_t id) {
  force_full_.store(true);
  std::lock_guard lock(manifest_mu_);
  broken_chain_tip_ = id;
  count_drop_locked();
}

void Checkpointer::count_drop_locked() {
  // The MANIFEST's count is kept in manifest_, not derived from the
  // registry counter, so a registry shared with another Checkpointer can
  // never add that one's drops to this directory's. Its key exists from
  // the constructor on, so this allocates nothing; the next install's
  // manifest write persists it.
  const std::uint64_t lifetime = manifest_.stat("dropped_writes") + 1;
  manifest_.set_stat("dropped_writes", lifetime);
  lifetime_dropped_writes_.set(lifetime);
  dropped_writes_.add();
}

void Checkpointer::install(ManifestEntry entry, ChunkStore::Batch& batch) {
  std::lock_guard lock(manifest_mu_);
  if (!entry.is_incremental()) {
    // A full checkpoint ends every chain; older failures are moot.
    broken_chain_tip_ = 0;
  }
  // The manifest write below also persists the lifetime drop count: a
  // dropped checkpoint leaves no file, so its "stat dropped_writes" line
  // is the only post-mortem trace the inspector has.
  manifest_.upsert(entry);
  // The new file is durable, so its chunk references are live from this
  // moment: retain them BEFORE the GC pass below decides what dies.
  store_.chunks().retain(batch);
  // One atomic manifest write advertises the new checkpoint AND fences
  // the first GC batch (victims leave the manifest before any file
  // dies). A crash before the write loses only this not-yet-complete
  // install; after it, every advertised entry still resolves. (The
  // pre-store ordering deleted files first and saved the manifest last —
  // a crash in between left the manifest naming dead files.)
  store_.collect(manifest_, /*save_manifest=*/true);
  // Placement rides the install tail too: with a tiered Env and a hot
  // byte budget, retained-but-old objects demote to the capacity tier
  // (copy + fsync cold, then the hot copy dies).
  // Best-effort by design: the checkpoint IS durable and advertised at
  // this point, so a cold-tier failure (ENOSPC, transient object-store
  // error) must not escape — it would mark this perfectly valid
  // checkpoint's chain broken. A failed demotion just leaves objects
  // hot; the next install retries.
  try {
    store_.migrate(manifest_);
  } catch (const std::exception&) {
  }
}

void Checkpointer::flush() {
  if (wal_) {
    wal_->sync();  // flush is a durability point for the journal too
  }
  if (writer_) {
    writer_->flush();
  }
}

Checkpointer::Stats Checkpointer::stats() const {
  Stats s;
  s.checkpoints = checkpoints_.value();
  s.full_checkpoints = full_checkpoints_.value();
  s.incremental_checkpoints = incremental_checkpoints_.value();
  s.bytes_encoded = bytes_encoded_.value();
  s.bytes_raw = bytes_raw_.value();
  s.snapshot_seconds = snapshot_.sum_seconds();
  s.sync_write_seconds = sync_write_.sum_seconds();
  s.submit_blocked_seconds = submit_blocked_.sum_seconds();
  s.keep_bases_seconds = keep_bases_.sum_seconds();
  s.rotate_wal_seconds = rotate_wal_.sum_seconds();
  s.wal_append_seconds = wal_append_.sum_seconds();
  s.dropped_writes = dropped_writes_.value();
  if (writer_) {
    // One histogram times each of the encode and install sites of both
    // modes; a Checkpointer has one mode.
    s.pipeline_encode_seconds = encode_.sum_seconds();
    const AsyncWriter::Stats w = writer_->stats();
    s.writer_dropped = w.dropped;
    s.writer_failures = w.failures;
  } else {
    s.encode_seconds = encode_.sum_seconds();
    s.install_seconds = install_.sum_seconds();
  }
  s.lifetime_dropped_writes = lifetime_dropped_writes_.value();
  const CasStats cas = store_.chunks().snapshot();
  s.chunk_refs = cas.chunk_refs;
  s.chunks_deduped = cas.dedup_hits;
  s.dedup_bytes = cas.dedup_bytes;
  s.pack_bytes_written = cas.pack_bytes_written;
  s.peak_encode_buffer_bytes = encode_gauge_.peak();
  s.wal_records = wal_records_.value();
  s.wal_bytes = wal_bytes_.value();
  s.wal_compactions = wal_compactions_.value();
  return s;
}

}  // namespace qnn::ckpt

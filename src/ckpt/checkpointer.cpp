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
  if (policy_.encode_queue == 0) {
    policy_.encode_queue = 1;
  }
  if (policy_.wal.enable) {
    // The journal's epoch (its delta base) must be durably installed
    // before records claiming to delta against it are appended; the
    // async pipeline would reorder that, so wal mode runs sync installs.
    policy_.async = false;
  }
  // Keep the lazy-pool trigger in checkpoint_now aligned with the
  // clamp encode_checkpoint applies internally.
  policy_.chunk_bytes = std::max(policy_.chunk_bytes, kMinChunkBytes);
  // Resume id allocation after any existing checkpoints in the directory.
  manifest_ = Manifest::load(env_, dir_);
  next_id_ = manifest_.max_id() + 1;
  next_submit_id_ = next_id_;
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
    // Default to half the cores: the encode pipeline runs concurrently
    // with training, whose sim kernels fan out on the global pool —
    // claiming every hardware thread here would oversubscribe the CPU
    // against the very steps async mode is meant to protect.
    pool_ = std::make_unique<util::ThreadPool>(
        policy_.encode_threads == 0
            ? std::max<std::size_t>(
                  1, util::ThreadPool::default_thread_count() / 2)
            : policy_.encode_threads);
    // Parallel writers finish out of order; an incremental chain needs
    // parent-before-child durability, so it gets exactly one writer.
    const std::size_t writer_threads =
        policy_.strategy == Strategy::kIncremental
            ? 1
            : std::max<std::size_t>(1, policy_.writer_threads);
    writer_ = std::make_unique<AsyncWriter>(
        env_, std::max<std::size_t>(2, writer_threads), writer_threads,
        &metrics_);
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
  // writer_ then pool_ are destroyed after this body; flush() guarantees
  // no encode task is still running when they go.
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
  // the bases once the encode returns (keep_bases).
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
        // buffer back after the encode.
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
    // it after the encode: don't spend trainer time copying payloads
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

  // The root span covers the trainer-visible slice; the async encode and
  // install stages run on other threads and link back via its id.
  obs::Span ckpt_span(policy_.tracer, "checkpoint", "ckpt");
  ckpt_span.note("id", id);
  ckpt_span.note("step", state.step);
  const std::uint64_t parent_span = ckpt_span.id();

  if (writer_) {
    // Reserve the reorder-buffer slot (and apply encode backpressure)
    // before any delta bookkeeping: ids must stay contiguous in
    // ready_jobs_ or the ordered drain stalls. If the reservation
    // throws, the id is returned and nothing downstream observed it.
    util::Timer submit_timer;
    std::unique_lock lock(encode_mu_);
    encode_cv_.wait(lock, [this] {
      return pending_encodes_ < policy_.encode_queue;
    });
    try {
      ready_jobs_.emplace(id, PendingEncode{});
    } catch (...) {
      --next_id_;
      throw;
    }
    ++pending_encodes_;
    submit_blocked_.record_seconds(submit_timer.seconds());
  }

  // Everything between the slot reservation above and the dispatch below
  // must release the slot on failure, or the ordered drain waits on id
  // forever (see catch at the end of this block).
  try {
  // Trainer-thread stage: the state's section payloads (plus delta
  // bookkeeping), copied only where build_file must own them. In async
  // mode this copy is all the trainer pays for.
  util::Timer snapshot_timer;
  obs::Span snap_span(policy_.tracer, "snapshot", "ckpt", parent_span);
  CheckpointFile file = build_file(state, id);
  std::uint64_t raw_bytes = 0;
  for (const Section& s : file.sections) {
    raw_bytes += s.size();
  }
  snap_span.note("bytes_raw", raw_bytes);
  snap_span.finish();
  snapshot_.record_seconds(snapshot_timer.seconds());

  ManifestEntry entry;
  entry.id = id;
  entry.parent_id = file.parent_id;
  entry.step = state.step;
  entry.file = checkpoint_file_name(id);
  bytes_raw_.add(raw_bytes);
  checkpoints_.add();
  (file.is_incremental() ? incremental_checkpoints_ : full_checkpoints_)
      .add();

  const std::string path = dir_ + "/" + entry.file;
  // Sync mode has no private pipeline pool, but the trainer is stalled
  // for the whole encode anyway — fan chunk compression out on the
  // global pool so the stall at least shrinks with core count. Resolve
  // it lazily: only touch (and thereby instantiate) the global pool when
  // some section is actually large enough to chunk.
  util::ThreadPool* encode_pool = pool_.get();
  if (encode_pool == nullptr) {
    for (const Section& s : file.sections) {
      if (s.size() > policy_.chunk_bytes) {
        encode_pool = &util::global_pool();
        break;
      }
    }
  }
  // The encode stage dedups every oversized section's chunks against the
  // directory's chunk store through this batch, which also pins the
  // referenced chunks against concurrent GC until the checkpoint
  // installs (or drops — the batch dies either way).
  const std::shared_ptr<ChunkStore::Batch> batch =
      store_.chunks().begin_batch(id);
  const EncodeOptions encode_options{.chunk_bytes = policy_.chunk_bytes,
                                     .pool = encode_pool,
                                     .sink = batch.get(),
                                     .encode_window = 0,
                                     .gauge = &encode_gauge_};

  if (writer_) {
    // Hand the whole encode stage to the pipeline (the slot and
    // backpressure were handled up front). Chunk bytes stream into the
    // batch's packfile during the encode (bounded waves); only the
    // container — key tables and small inline sections — rides the job
    // as a buffer.
    try {
      pool_->submit([this, file = std::move(file), entry, path,
                     encode_options, batch, parent_span]() mutable {
        std::optional<AsyncWriter::Job> job;
        try {
          util::Timer encode_timer;
          obs::Span encode_span(policy_.tracer, "encode", "ckpt",
                                parent_span);
          encode_span.note("id", entry.id);
          Bytes encoded = encode_checkpoint(file, encode_options);
          entry.bytes = encoded.size();
          encode_span.note("bytes", entry.bytes);
          encode_span.finish();
          encode_.record_seconds(encode_timer.seconds());
          job.emplace();
          job->path = path;
          // Gauge the container while it sits in the writer queue; the
          // shared holder lives exactly as long as the job's closures,
          // so dropped jobs release it too.
          auto held = std::make_shared<util::GaugedBytes>(&encode_gauge_,
                                                          encoded.size());
          job->data = std::move(encoded);
          if (!batch->empty()) {
            // The packfile commit precedes the checkpoint file: chunks
            // must be durable before anything references them. The
            // records were already streamed into the staged (invisible)
            // pack during encode; commit() finishes and installs it.
            job->pre_install = [batch] { batch->commit(); };
          }
          job->on_installed = [this, entry, batch, held, parent_span] {
            util::Timer install_timer;
            obs::Span install_span(policy_.tracer, "install", "ckpt",
                                   parent_span);
            install_span.note("id", entry.id);
            // Durable now: the records become dedup targets for later
            // checkpoints.
            store_.chunks().publish(*batch);
            install(entry, batch->refs());
            install_span.finish();
            install_.record_seconds(install_timer.seconds());
          };
          job->on_failed = [this, entry, held] {
            // The file never became durable: break any delta chain
            // that would pass through it, and quarantine in-flight
            // children (see install()). An already-committed packfile
            // merely strands unreferenced chunks for the next sweep.
            mark_chain_broken(entry.id, /*count_drop=*/true);
          };
          bytes_encoded_.add(entry.bytes);
        } catch (...) {
          // Encode failures must not wedge the pipeline; surface as a
          // drop (job stays empty) so later ids can still install. An
          // un-committed pack stream aborts with the batch.
          job.reset();
        }
        enqueue_ready(entry.id, std::move(job));
      });
    } catch (const std::exception&) {
      // The pool refused the task (shutdown/allocation): account the
      // slot and advance the submission cursor or flush() hangs forever.
      enqueue_ready(id, std::nullopt);
    }
  } else {
    // Sync mode streams the container straight into its atomic handle:
    // neither the container nor the packfile ever exists as a second
    // in-memory copy. The install order is unchanged — the pack commit
    // (its atomic close) lands strictly before the container's close.
    util::Timer encode_timer;
    obs::Span encode_span(policy_.tracer, "encode", "ckpt", parent_span);
    encode_span.note("id", id);
    auto out = env_.new_writable(path, io::WriteMode::kAtomic);
    WritableSink out_sink(*out);
    entry.bytes = encode_checkpoint(file, encode_options, out_sink);
    encode_span.note("bytes", entry.bytes);
    encode_span.finish();
    encode_.record_seconds(encode_timer.seconds());
    if (policy_.strategy == Strategy::kIncremental) {
      keep_bases(file, state);
    }

    util::Timer write_timer;
    if (!batch->empty()) {
      batch->commit();
      store_.chunks().publish(*batch);
    }
    out->close();
    sync_write_.record_seconds(write_timer.seconds());
    bytes_encoded_.add(entry.bytes);
    {
      util::Timer install_timer;
      obs::Span install_span(policy_.tracer, "install", "ckpt", parent_span);
      install_span.note("id", id);
      install(entry, batch->refs());
      install_span.finish();
      install_.record_seconds(install_timer.seconds());
    }
  }
  } catch (...) {
    // Snapshot/dispatch failed before the encode task took ownership of
    // the slot. Break any delta chain through the lost id — build_file
    // already advanced last_id_/last_raw_ to it, so a caller that
    // swallows this exception and keeps training must not produce
    // orphaned deltas (sync mode included). In async mode additionally
    // release the slot (allocation-free) so the pipeline cannot wedge.
    // The dispatch block's own catches do not rethrow, so this cannot
    // double-release.
    // Don't count the drop here: in async mode the ordered drain counts
    // it exactly once when it reaches the empty slot released below (the
    // caller additionally sees the exception); in sync mode nothing was
    // queued and the exception alone reports the loss.
    mark_chain_broken(id, /*count_drop=*/false);
    if (writer_) {
      enqueue_ready(id, std::nullopt);
    }
    throw;
  }

  if (policy_.wal.enable && writer_ == nullptr) {
    // The install is durable and advertised: start this epoch's journal
    // and retire the superseded one behind that fence.
    rotate_wal(id, state);
  }

  if (policy_.target_mtbf_seconds > 0.0) {
    // The training thread paid from t_begin to now (async mode excludes
    // the background encode + write by construction).
    update_adaptive_interval(policy_.clock() - t_begin);
    // The step-cadence clock must not count checkpoint time as step time.
    last_seen_time_ = policy_.clock();
  }
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

void Checkpointer::mark_chain_broken(std::uint64_t id, bool count_drop) {
  force_full_.store(true);
  std::lock_guard lock(manifest_mu_);
  // Monotonic: failure notifications can arrive out of id order (a
  // writer failing an OLD id after a newer encode drop), and install()
  // compares each child's parent against the tip — regressing it would
  // let a child of the newer missing id slip into the manifest.
  broken_chain_tip_ = std::max(broken_chain_tip_, id);
  if (count_drop) {
    count_drop_locked();
  }
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

void Checkpointer::enqueue_ready(std::uint64_t id,
                                 std::optional<AsyncWriter::Job> job) {
  {
    std::lock_guard lock(encode_mu_);
    const auto it = ready_jobs_.find(id);
    if (it == ready_jobs_.end()) {
      return;  // defensive: slot already released
    }
    it->second.done = true;  // slot was reserved by checkpoint_now
    it->second.job = std::move(job);
    // Release every completed in-order job. writer_->submit may block on
    // writer backpressure while encode_mu_ is held; that is the intended
    // cascade (writer workers drain independently and never take
    // encode_mu_, so progress is guaranteed).
    while (!ready_jobs_.empty() &&
           ready_jobs_.begin()->first == next_submit_id_ &&
           ready_jobs_.begin()->second.done) {
      auto node = ready_jobs_.extract(ready_jobs_.begin());
      bool queued = false;
      if (node.mapped().job.has_value()) {
        try {
          queued = writer_->submit(std::move(*node.mapped().job));
        } catch (...) {
          // Allocation failure in the writer queue: treat exactly like a
          // refused job so the cursor still advances.
        }
      }
      if (!queued) {
        // Record the broken chain BEFORE the loop can hand a later
        // (delta child) job to the writer, and allocation-free, so the
        // failure path can neither race install() nor itself fail.
        // Nesting follows the established encode_mu_ -> manifest_mu_
        // hierarchy.
        mark_chain_broken(node.key(), /*count_drop=*/true);
      }
      ++next_submit_id_;
      --pending_encodes_;
    }
  }
  encode_cv_.notify_all();
}

void Checkpointer::install(ManifestEntry entry,
                           const std::vector<ChunkKey>& refs) {
  std::lock_guard lock(manifest_mu_);
  if (entry.parent_id != 0 && entry.parent_id == broken_chain_tip_) {
    // The parent never became durable: this delta resolves to nothing.
    // Refuse to advertise it — every manifest entry must load — and
    // propagate the quarantine to its own descendants. Its chunk refs
    // are never retained; any chunks it stored become sweep fodder.
    broken_chain_tip_ = entry.id;
    count_drop_locked();
    env_.remove_file(dir_ + "/" + entry.file);
    return;
  }
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
  store_.chunks().retain(refs);
  // One atomic manifest write advertises the new checkpoint AND fences
  // the first GC batch (victims leave the manifest before any file
  // dies). A crash before the write loses only this not-yet-complete
  // install; after it, every advertised entry still resolves. (The
  // pre-store ordering deleted files first and saved the manifest last —
  // a crash in between left the manifest naming dead files.)
  store_.collect(manifest_, /*save_manifest=*/true);
  // Placement rides the install tail too: with a tiered Env and a hot
  // byte budget, retained-but-old objects demote to the capacity tier
  // (copy + fsync cold, TIERMAP fence, then the hot copy dies).
  // Best-effort by design: the checkpoint IS durable and advertised at
  // this point, so a cold-tier failure (ENOSPC, transient object-store
  // error) must not escape — on the async path it would run on_failed
  // and mark this perfectly valid checkpoint's chain broken. A failed
  // demotion just leaves objects hot; the next install retries.
  try {
    store_.migrate(manifest_);
  } catch (const std::exception&) {
  }
}

void Checkpointer::flush() {
  if (wal_) {
    wal_->sync();  // flush is a durability point for the journal too
  }
  if (!writer_) {
    return;
  }
  {
    std::unique_lock lock(encode_mu_);
    encode_cv_.wait(lock, [this] { return pending_encodes_ == 0; });
  }
  writer_->flush();
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
  s.dropped_writes = dropped_writes_.value();
  if (writer_) {
    // One histogram times both encode sites; a Checkpointer has one mode.
    s.pipeline_encode_seconds = encode_.sum_seconds();
    const AsyncWriter::Stats w = writer_->stats();
    s.writer_dropped = w.dropped;
    s.writer_failures = w.failures;
  } else {
    s.encode_seconds = encode_.sum_seconds();
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

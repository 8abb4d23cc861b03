// Exhaustive crash-schedule matrix: a full train -> checkpoint -> GC ->
// resume scenario is replayed once per (env operation K, durable byte
// offset B) crash point, for full and incremental chains and a GC-heavy
// retention mix. After EVERY crash the durable directory must satisfy:
//
//   * every manifest entry resolves to the exact state it was built from
//     (the GC fence never leaves a dead or stranded entry);
//   * recovery returns a state at least as new as the last install that
//     completed before the crash — never more than one interval of work
//     is lost;
//   * whatever recovery returns matches a state the trainer actually
//     produced (no silent corruption).
//
// The enumeration is exhaustive (stride 1) by default; set
// QNNCKPT_CRASH_MATRIX_STRIDE=n to sample every n-th op when iterating
// locally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <vector>

#include "ckpt/cas.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/store.hpp"
#include "ckpt/wal.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "io/prefix_env.hpp"
#include "qnn/loss.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {
namespace {

std::uint64_t stride_from_env() {
  if (const char* s = std::getenv("QNNCKPT_CRASH_MATRIX_STRIDE")) {
    const auto v = std::strtoull(s, nullptr, 10);
    if (v > 0) {
      return v;
    }
  }
  return 1;
}

/// Deterministic ground truth: the state the trainer produced at `step`.
/// Regenerated in the verifier, so any silently-corrupt recovery shows up
/// as a mismatch against this. With `frozen_params > 0` the parameter
/// vector is that long and mostly step-independent (only the last 8
/// values move), so consecutive checkpoints share most content-addressed
/// chunks — the dedup-heavy regime.
qnn::TrainingState make_state(std::uint64_t step, std::size_t sim_qubits,
                              std::size_t frozen_params = 0) {
  qnn::TrainingState s;
  s.step = step;
  util::Rng rng(31 + step);
  if (frozen_params > 0) {
    s.params.resize(frozen_params);
    util::Rng frozen(7);
    for (double& p : s.params) {
      p = frozen.uniform(-3.0, 3.0);
    }
    for (std::size_t i = frozen_params - 8; i < frozen_params; ++i) {
      s.params[i] = rng.uniform(-3.0, 3.0);
    }
  } else {
    s.params.resize(16);
    for (double& p : s.params) {
      p = rng.uniform(-3.0, 3.0);
    }
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(96);
  if (frozen_params > 0) {
    util::Rng opt_rng(8);  // step-independent: dedups fully
    for (auto& b : s.optimizer_state) {
      b = static_cast<std::uint8_t>(opt_rng());
    }
  } else {
    for (auto& b : s.optimizer_state) {
      b = static_cast<std::uint8_t>(rng());
    }
  }
  s.rng_state = rng.serialize();
  s.loss_history.assign(step, 0.125);
  s.epoch = step / 4;
  s.cursor = step % 4;
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  if (sim_qubits > 0) {
    s.simulator_state = qnn::random_state(sim_qubits, 9).serialize();
  }
  return s;
}

struct ScenarioConfig {
  const char* name;
  CheckpointPolicy policy = {};
  std::size_t sim_qubits = 0;
  std::uint64_t phase1_steps = 8;
  std::uint64_t phase2_steps = 12;
  /// > 0: dedup-heavy states (see make_state) so checkpoints share
  /// content-addressed chunks and GC exercises the refcounted store.
  std::size_t frozen_params = 0;
  /// Run through a hot/cold TieredEnv (both tiers mounted on the one
  /// crash-scheduled env, so demotion copies, source deletes and
  /// read-through promotions are all crash points too).
  bool tiered = false;
};

/// The scenario's storage stack over one physical env: flat, or two
/// PrefixEnv mounts ("hot/", "cold/") composed by a TieredEnv with
/// read-through promotion — the same composition for the crashing run
/// and for post-crash verification.
struct EnvView {
  io::Env* flat = nullptr;
  std::optional<io::PrefixEnv> hot;
  std::optional<io::PrefixEnv> cold;
  std::optional<tier::TieredEnv> tiered;

  EnvView(io::Env& base, bool use_tiers) {
    if (use_tiers) {
      hot.emplace(base, "hot");
      cold.emplace(base, "cold");
      tiered.emplace(*hot, *cold, /*promote_on_read=*/true,
                     tier::migratable_path);
    } else {
      flat = &base;
    }
  }
  io::Env& env() { return tiered ? static_cast<io::Env&>(*tiered) : *flat; }
};

/// train -> checkpoint (GC runs inside each install) -> resume -> train.
/// Appends the step of every install that COMPLETED to `installed`; in a
/// crash replay the scenario aborts at the crash op, so the vector holds
/// exactly the installs that were durable strictly before the crash.
void run_scenario(io::CrashScheduleEnv& env, const ScenarioConfig& cfg,
                  std::vector<std::uint64_t>& installed) {
  installed.clear();
  EnvView view(env, cfg.tiered);
  {
    Checkpointer ck(view.env(), "cp", cfg.policy);
    for (std::uint64_t step = 1; step <= cfg.phase1_steps; ++step) {
      if (ck.maybe_checkpoint(
              make_state(step, cfg.sim_qubits, cfg.frozen_params))) {
        installed.push_back(step);
      }
    }
  }
  // Resume after the (possibly crashed) first run: recover, then keep
  // training and checkpointing. The fresh Checkpointer also runs the
  // startup orphan sweep (and, tiered, the duplicate reconcile) — its
  // deletes are crash points too, as are the read-through promotions
  // the recovery itself performs.
  const auto outcome = recover_latest(view.env(), "cp");
  const std::uint64_t resume_step = outcome ? outcome->step : 0;
  {
    Checkpointer ck(view.env(), "cp", cfg.policy);
    for (std::uint64_t step = resume_step + 1; step <= cfg.phase2_steps;
         ++step) {
      if (ck.maybe_checkpoint(
              make_state(step, cfg.sim_qubits, cfg.frozen_params))) {
        installed.push_back(step);
      }
    }
  }
}

/// Tiered epilogue: a startup reconcile must collapse every duplicate
/// a crash mid-migration stranded — after it no object may exist in
/// both tiers (duplicated-and-leaked) and everything still resolves.
void verify_tiers_after_reconcile(EnvView& view, const Manifest& manifest,
                                  const ScenarioConfig& cfg,
                                  const std::string& at) {
  io::Env& env = view.env();
  CheckpointStore store(env, "cp", RetentionPolicy{}, cfg.policy.tier);
  ASSERT_NE(store.tiering(), nullptr);
  store.tiering()->reconcile();
  for (const std::string& dir : {std::string("cp"), std::string("cp/chunks")}) {
    const auto hot_names = view.hot->list_dir(dir);
    const std::set<std::string> cold_names = [&] {
      auto names = view.cold->list_dir(dir);
      return std::set<std::string>(names.begin(), names.end());
    }();
    for (const std::string& name : hot_names) {
      EXPECT_FALSE(cold_names.contains(name))
          << at << ": " << dir << "/" << name
          << " duplicated across tiers after reconcile";
    }
  }
  for (const ManifestEntry& e : manifest.entries()) {
    try {
      (void)load_checkpoint(env, "cp", e.id);
    } catch (const std::exception& ex) {
      ADD_FAILURE() << at << ": entry id " << e.id
                    << " lost by reconcile: " << ex.what();
    }
  }
}

/// The chunk store after a restart: a fresh Checkpointer rebuilds the
/// refcounts from the retained containers and runs the compacting
/// startup sweep. Then every chunk a retained container references
/// resolves, and no packfile is left wholly unreferenced.
void verify_chunk_store_after_restart(io::Env& env, const ScenarioConfig& cfg,
                                      const std::string& at) {
  {
    Checkpointer reopened(env, "cp", cfg.policy);
  }
  std::set<ChunkKey> referenced;
  for (const std::string& name : env.list_dir("cp")) {
    if (parse_checkpoint_file_name(name)) {
      try {
        for (const ChunkKey& key : list_chunk_refs(env, "cp/" + name)) {
          referenced.insert(key);
        }
      } catch (const std::exception& ex) {
        ADD_FAILURE() << at << ": " << name << " unreadable: " << ex.what();
      }
    }
  }
  ChunkStore store(env, "cp");
  for (const ChunkKey& key : referenced) {
    try {
      (void)store.get(key);
    } catch (const std::exception& ex) {
      ADD_FAILURE() << at << ": chunk " << chunk_key_name(key)
                    << " does not resolve after the restart: " << ex.what();
    }
  }
  for (const std::string& pack : store.pack_names()) {
    const auto keys = store.pack_keys(pack);
    const bool live = std::ranges::any_of(
        keys, [&](const ChunkKey& key) { return referenced.contains(key); });
    EXPECT_TRUE(live) << at << ": " << pack << " left wholly unreferenced";
  }
}

/// The post-crash contract, checked against the durable base env.
void verify_durable(io::Env& base, const io::CrashPlan& plan,
                    const ScenarioConfig& cfg,
                    const std::vector<std::uint64_t>& installed) {
  const std::string at = std::string(cfg.name) + " op " +
                         std::to_string(plan.crash_at_op) + " durable " +
                         std::to_string(plan.durable_bytes);
  EnvView view(base, cfg.tiered);
  io::Env& env = view.env();

  // Every advertised checkpoint resolves, exactly (tiered: from
  // whichever tier holds it — the migration discipline's core claim).
  const Manifest manifest = Manifest::load(env, "cp");
  for (const ManifestEntry& e : manifest.entries()) {
    qnn::TrainingState st;
    try {
      st = load_checkpoint(env, "cp", e.id);
    } catch (const std::exception& ex) {
      ADD_FAILURE() << at << ": manifest entry id " << e.id
                    << " does not resolve: " << ex.what();
      continue;
    }
    EXPECT_EQ(st, make_state(e.step, cfg.sim_qubits, cfg.frozen_params))
        << at << ": entry id " << e.id << " resolved to the wrong state";
  }

  // No more than the in-flight interval is lost, and nothing recovered
  // is silently corrupt.
  const std::uint64_t stable = installed.empty() ? 0 : installed.back();
  const auto outcome = recover_latest(env, "cp");
  if (stable > 0) {
    ASSERT_TRUE(outcome.has_value())
        << at << ": installs completed but nothing recovers";
    EXPECT_GE(outcome->step, stable)
        << at << ": recovery lost a completed install";
  }
  if (outcome) {
    EXPECT_EQ(outcome->state,
              make_state(outcome->step, cfg.sim_qubits, cfg.frozen_params))
        << at << ": recovered state never existed (silent corruption)";
  }

  // WAL epilogue: the journal must extend recovery, never regress it,
  // and must not leak across crashes.
  if (cfg.policy.wal.enable) {
    // When recovery resolved the manifest tip and the tip's journal
    // scans, recovery must have reached its last fully-framed record —
    // a torn tail may shorten the journal, never the replayed prefix.
    if (outcome && manifest.latest() != nullptr &&
        outcome->checkpoint_id == manifest.latest()->id) {
      if (const auto scan = scan_wal(env, "cp", manifest.latest()->id)) {
        if (scan->records > 0) {
          EXPECT_GE(outcome->step, scan->last_step)
              << at << ": recovery stopped short of the journal's last "
              << "fully-framed record";
        }
      }
    }
    // After the startup sweep, every surviving journal's epoch is an
    // advertised entry (no leaks) — a check the sweep only stands
    // behind when the manifest is trustworthy.
    if (manifest.parse_warnings() == 0) {
      CheckpointStore store(env, "cp", cfg.policy.retention);
      store.sweep_orphans(manifest);
      for (const std::string& name : env.list_dir("cp")) {
        if (const auto epoch = parse_wal_file_name(name)) {
          EXPECT_NE(manifest.find(*epoch), nullptr)
              << at << ": journal " << name << " leaked past the sweep";
        }
      }
    }
  }

  if (cfg.tiered) {
    verify_tiers_after_reconcile(view, manifest, cfg, at);
  }
  // Last, since the restart reaps what the crash left.
  if (cfg.frozen_params > 0) {
    verify_chunk_store_after_restart(env, cfg, at);
  }
}

io::CrashEnumeration run_matrix(const ScenarioConfig& cfg,
                                std::uint64_t stride) {
  std::vector<std::uint64_t> installed;
  return io::enumerate_crash_schedules(
      [] { return std::make_unique<io::MemEnv>(); },
      [&](io::CrashScheduleEnv& env) { run_scenario(env, cfg, installed); },
      [&](io::Env& base, const io::CrashPlan& plan) {
        verify_durable(base, plan, cfg, installed);
      },
      stride,
      // Byte offsets within the crashing op: nothing durable, a torn
      // 13-byte prefix, the whole op (crash just after the effect).
      {0, 13, io::kOpDurable});
}

ScenarioConfig full_config() {
  ScenarioConfig cfg{.name = "full"};
  cfg.policy.strategy = Strategy::kParamsOnly;
  cfg.policy.every_steps = 1;
  cfg.policy.retention.keep_last = 3;
  return cfg;
}

ScenarioConfig incremental_config() {
  ScenarioConfig cfg{.name = "incremental"};
  cfg.policy.strategy = Strategy::kIncremental;
  cfg.policy.every_steps = 1;
  cfg.policy.full_every = 3;
  cfg.policy.retention.keep_last = 2;
  cfg.sim_qubits = 2;
  return cfg;
}

ScenarioConfig gc_heavy_config() {
  // Spacing + byte budget makes nearly every install delete something, so
  // most crash points land inside the GC itself.
  ScenarioConfig cfg{.name = "gc-heavy"};
  cfg.policy.strategy = Strategy::kIncremental;
  cfg.policy.every_steps = 1;
  cfg.policy.full_every = 2;
  cfg.policy.retention.keep_last = 2;
  cfg.policy.retention.step_spacing = 4;
  cfg.policy.retention.byte_budget = 2048;  // ~2-3 small files: real evictions
  cfg.policy.retention.gc_batch = 2;  // more fences = more crash points
  return cfg;
}

TEST(CrashMatrix, EveryCrashPointRecoversFullChains) {
  const auto r = run_matrix(full_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [full]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

TEST(CrashMatrix, EveryCrashPointRecoversIncrementalChains) {
  const auto r = run_matrix(incremental_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [incremental]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

TEST(CrashMatrix, EveryCrashPointRecoversUnderGcPressure) {
  const auto r = run_matrix(gc_heavy_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [gc-heavy]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

ScenarioConfig dedup_config() {
  // Content-addressed regime: big mostly-frozen params at a tiny chunk
  // size, so consecutive checkpoints share well over half their chunks,
  // packfiles are written every install, and the keep_last GC releases
  // chunk references (and deletes dead packfiles) constantly. The
  // invariant under every crash point is the usual one — every
  // advertised entry resolves exactly — which a lost shared chunk or a
  // double-freed packfile would break immediately.
  ScenarioConfig cfg{.name = "dedup"};
  cfg.policy.strategy = Strategy::kFullState;
  cfg.policy.every_steps = 1;
  cfg.policy.retention.keep_last = 2;
  cfg.policy.chunk_bytes = 64;
  cfg.policy.codec = codec::CodecId::kRaw;
  cfg.frozen_params = 96;
  return cfg;
}

TEST(CrashMatrix, EveryCrashPointRecoversWithSharedChunks) {
  const auto r = run_matrix(dedup_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [dedup]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

ScenarioConfig tiered_config() {
  // Hot/cold placement under churn: a small hot byte budget forces a
  // demotion (cold copy, then hot delete) out of nearly
  // every install, retention GC deletes cold-resident victims, the
  // resume leg's recovery promotes read-through, and the startup
  // reconcile collapses whatever a crash stranded. Every one of those
  // physical ops — on either tier — is a crash point.
  ScenarioConfig cfg{.name = "tiered"};
  cfg.tiered = true;
  cfg.policy.strategy = Strategy::kFullState;
  cfg.policy.every_steps = 1;
  cfg.policy.retention.keep_last = 3;
  cfg.policy.chunk_bytes = 64;
  cfg.policy.codec = codec::CodecId::kRaw;
  cfg.frozen_params = 96;
  // Sized so the pinned newest chain (containers + self-indexing
  // packfiles, which carry a ~34 B/record key table) still fits while
  // everything older must demote.
  cfg.policy.tier.hot_byte_budget = 3072;
  cfg.policy.tier.pin_hot_last = 1;
  cfg.phase1_steps = 5;
  cfg.phase2_steps = 8;
  return cfg;
}

TEST(CrashMatrix, EveryCrashPointRecoversAcrossTiers) {
  const auto r = run_matrix(tiered_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [tiered]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

TEST(CrashMatrix, TieredScenarioActuallyMigrates) {
  // Sanity-check the scenario exercises what it claims: an uncrashed
  // run demotes objects (the cold tier lists them, the hot tier no
  // longer does) and the resume leg promotes read-through.
  const ScenarioConfig cfg = tiered_config();
  io::MemEnv env;
  std::vector<std::uint64_t> installed;
  io::CrashScheduleEnv no_crash(env, io::CrashPlan{});
  run_scenario(no_crash, cfg, installed);
  EXPECT_FALSE(env.list_dir("cold/cp").empty()) << "nothing demoted";
  EnvView view(env, /*use_tiers=*/true);
  CheckpointStore store(view.env(), "cp", cfg.policy.retention,
                        cfg.policy.tier);
  const auto cold = store.tiering()->cold_files();
  EXPECT_FALSE(cold.empty()) << "no migratable object is cold";
  for (const std::string& name : cold) {
    EXPECT_FALSE(env.exists("hot/cp/" + name)) << name << " in both tiers";
  }
  EXPECT_LE(store.tiering()->hot_resident_bytes(),
            cfg.policy.tier.hot_byte_budget)
      << "hot tier over budget after the run";
}

TEST(CrashMatrix, DedupScenarioActuallySharesChunks) {
  // Sanity-check the scenario exercises what it claims: two consecutive
  // checkpoints share well over half their chunks, and packfiles exist.
  const ScenarioConfig cfg = dedup_config();
  io::MemEnv env;
  Checkpointer ck(env, "cp", cfg.policy);
  ck.checkpoint_now(make_state(1, cfg.sim_qubits, cfg.frozen_params));
  const auto first = ck.stats();
  ck.checkpoint_now(make_state(2, cfg.sim_qubits, cfg.frozen_params));
  const auto second = ck.stats();
  const std::uint64_t refs = second.chunk_refs - first.chunk_refs;
  const std::uint64_t shared = second.chunks_deduped - first.chunks_deduped;
  ASSERT_GT(refs, 0u);
  EXPECT_GT(shared * 2, refs)
      << "the second checkpoint shared fewer than half its chunks";
  EXPECT_FALSE(env.list_dir("cp/chunks").empty());
}

ScenarioConfig wal_config() {
  // Delta-journal regime: sparse installs with a journal record on every
  // off-boundary step, a group-commit cadence above 1, and a log budget
  // small enough that compaction installs fire mid-epoch. Crash points
  // land inside journal appends (torn frames), between install and
  // rotation, inside the rotation's remove, and inside the startup
  // sweep's stale-journal reap. kParamsOnly keeps every entry
  // parent-free, so the sweep's conservatism never masks a leak.
  ScenarioConfig cfg{.name = "wal"};
  cfg.policy.strategy = Strategy::kParamsOnly;
  cfg.policy.every_steps = 4;
  cfg.policy.retention.keep_last = 2;
  cfg.policy.wal.enable = true;
  cfg.policy.wal.group_commit_steps = 2;
  // A record stores ~493 B: the step's fresh random params and optimizer
  // bytes delta to noise and stay raw, so compression barely shrinks it.
  // 700 B holds the 26-byte header plus one record but not two, so the
  // third off-boundary step of every epoch compacts.
  cfg.policy.wal.max_log_bytes = 700;
  return cfg;
}

TEST(CrashMatrix, EveryCrashPointRecoversWithDeltaJournal) {
  const auto r = run_matrix(wal_config(), stride_from_env());
  EXPECT_GT(r.total_ops, 0u);
  std::printf("crash matrix [wal]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

TEST(CrashMatrix, WalScenarioActuallyLogsReplaysAndCompacts) {
  // Sanity-check the scenario exercises what it claims. The scenario
  // policy both logs journal records and trips the compaction budget:
  const ScenarioConfig cfg = wal_config();
  {
    io::MemEnv env;
    Checkpointer ck(env, "cp", cfg.policy);
    for (std::uint64_t step = 1; step <= 12; ++step) {
      ck.maybe_checkpoint(make_state(step, cfg.sim_qubits, cfg.frozen_params));
    }
    EXPECT_GT(ck.stats().wal_records, 0u);
    EXPECT_GT(ck.stats().wal_compactions, 0u)
        << "the budget never tripped: max_log_bytes is too generous for "
           "the scenario's record size";
  }
  // ... an uncrashed run leaves exactly one journal, owned by the tip:
  {
    io::MemEnv env;
    std::vector<std::uint64_t> installed;
    io::CrashScheduleEnv no_crash(env, io::CrashPlan{});
    run_scenario(no_crash, cfg, installed);
    const Manifest manifest = Manifest::load(env, "cp");
    ASSERT_NE(manifest.latest(), nullptr);
    std::vector<std::string> journals;
    for (const std::string& name : env.list_dir("cp")) {
      if (parse_wal_file_name(name)) {
        journals.push_back(name);
      }
    }
    EXPECT_EQ(journals,
              std::vector<std::string>{wal_file_name(manifest.latest()->id)});
  }
  // ... and replay recovers the off-boundary steps an interval-only
  // recovery would lose (an unbounded log so the tail stays journaled):
  {
    io::MemEnv env;
    CheckpointPolicy policy = cfg.policy;
    policy.wal.max_log_bytes = 0;
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 6; ++step) {
      ck.maybe_checkpoint(make_state(step, cfg.sim_qubits, cfg.frozen_params));
    }
    const auto outcome = recover_latest(env, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(Manifest::load(env, "cp").latest()->step, 4u);
    EXPECT_EQ(outcome->step, 6u)
        << "replay should recover steps past the last install";
    EXPECT_EQ(outcome->state,
              make_state(6, cfg.sim_qubits, cfg.frozen_params));
  }
}

// ---------------------------------------------------------------------------
// Torn streamed appends: the naive (plain-stream) writer
// ---------------------------------------------------------------------------

/// Encodes `make_state(step)` as a self-contained container (no chunk
/// sink: every section inline).
util::Bytes encode_state_file(std::uint64_t id, std::uint64_t step) {
  CheckpointFile f;
  f.checkpoint_id = id;
  f.step = step;
  f.sections = state_to_sections(make_state(step, 0), /*include_simulator=*/
                                 false, codec::CodecId::kRaw);
  return encode_checkpoint(f);
}

/// Two atomic installs, then a NAIVE writer streams checkpoint 3 through
/// a plain handle in small appends — every append is a crash point, and
/// the tear offset lands at arbitrary byte positions inside the stream.
void run_streamed_scenario(io::CrashScheduleEnv& env) {
  env.write_file_atomic("cp/" + checkpoint_file_name(1),
                        encode_state_file(1, 1));
  env.write_file_atomic("cp/" + checkpoint_file_name(2),
                        encode_state_file(2, 2));
  const util::Bytes blob = encode_state_file(3, 3);
  auto out = env.new_writable("cp/" + checkpoint_file_name(3),
                              io::WriteMode::kPlain);
  constexpr std::size_t kAppend = 48;
  for (std::size_t off = 0; off < blob.size(); off += kAppend) {
    const std::size_t len = std::min(kAppend, blob.size() - off);
    out->append(util::ByteSpan(blob).subspan(off, len));
  }
  out->close();
}

TEST(CrashMatrix, TornStreamedWriterNeverCorruptsRecovery) {
  // The contract: a checkpoint file torn at ANY append/byte boundary is
  // either fully intact (recovered) or rejected by verification — the
  // recovery falls back to the newest atomic install, and whatever it
  // returns matches a state the writer actually produced.
  const auto r = io::enumerate_crash_schedules(
      [] { return std::make_unique<io::MemEnv>(); },
      [](io::CrashScheduleEnv& env) { run_streamed_scenario(env); },
      [](io::Env& base, const io::CrashPlan& plan) {
        const std::string at = "streamed op " +
                               std::to_string(plan.crash_at_op) + " durable " +
                               std::to_string(plan.durable_bytes);
        const auto outcome = recover_latest(base, "cp");
        if (plan.crash_at_op == 0 || plan.crash_at_op > 2) {
          // Both atomic installs completed before the crash (ops 1-2):
          // at least checkpoint 2 must recover, torn stream or not.
          ASSERT_TRUE(outcome.has_value()) << at;
          EXPECT_GE(outcome->step, 2u) << at;
        }
        if (outcome) {
          EXPECT_EQ(outcome->state, make_state(outcome->step, 0))
              << at << ": recovered state never existed (corruption)";
        }
      },
      stride_from_env(),
      // Byte offsets within the crashing append: boundary tear, two
      // mid-append tears, the whole append durable.
      {0, 13, 29, io::kOpDurable});
  std::printf("crash matrix [streamed]: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
  EXPECT_GT(r.total_ops, 4u) << "the stream should span several appends";
}

TEST(CrashMatrix, EnumerationCoversAtLeast800PointsUnstrided) {
  const std::uint64_t stride = stride_from_env();
  if (stride != 1) {
    GTEST_SKIP() << "strided run (QNNCKPT_CRASH_MATRIX_STRIDE=" << stride
                 << "); the 800-point floor applies to exhaustive runs";
  }
  const auto a = run_matrix(full_config(), 1);
  const auto b = run_matrix(incremental_config(), 1);
  const auto c = run_matrix(gc_heavy_config(), 1);
  const auto d = run_matrix(dedup_config(), 1);
  const auto e = run_matrix(tiered_config(), 1);
  const auto f = io::enumerate_crash_schedules(
      [] { return std::make_unique<io::MemEnv>(); },
      [](io::CrashScheduleEnv& env) { run_streamed_scenario(env); },
      [](io::Env&, const io::CrashPlan&) {}, 1,
      {0, 13, 29, io::kOpDurable});
  const auto g = run_matrix(wal_config(), 1);
  const std::uint64_t total = a.points_run + b.points_run + c.points_run +
                              d.points_run + e.points_run + f.points_run +
                              g.points_run;
  std::printf("crash matrix total: %llu distinct crash points\n",
              static_cast<unsigned long long>(total));
  EXPECT_GE(total, 800u);
}

}  // namespace
}  // namespace qnn::ckpt

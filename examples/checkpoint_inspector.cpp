// checkpoint_inspector — forensic CLI for qnnckpt checkpoint directories.
//
//   ./examples/checkpoint_inspector DIR            # summary of the dir
//   ./examples/checkpoint_inspector DIR ID         # deep-dive one file
//   ./examples/checkpoint_inspector DIR --verify   # full scrub report
//   ./examples/checkpoint_inspector DIR --plan N   # retention plan (keep N)
//   ./examples/checkpoint_inspector DIR --layout   # ranged section map
//                                                  # (header preads only)
//   ./examples/checkpoint_inspector DIR --wal      # delta-journal view
//                                                  # (frames, replay reach)
//   ./examples/checkpoint_inspector DIR --metrics  # run recovery through
//                                                  # an ObservedEnv, dump
//                                                  # the metrics registry
//   ./examples/checkpoint_inspector DIR --trace T.json
//                                                  # replay recovery into
//                                                  # a Chrome trace file
//                                                  # + flight recorder
//
// Any form additionally takes `--cold COLD_DIR`: the capacity-tier
// twin of DIR (the directory demoted objects were copied into),
// composed with DIR's hot tree through a TieredEnv so cold-resident
// checkpoints inspect and verify exactly like hot ones, with their
// residency annotated.
//
// Prints the manifest (including lifetime counters like dropped
// writes), per-checkpoint section layout (kind, codec, raw vs encoded
// size, delta flag), verification status (CRC-level salvage), tier
// residency, the retention state (what a GC run would keep/delete,
// plus orphan files a crash stranded), and for a resolvable checkpoint
// the decoded training metadata.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/store.hpp"
#include "ckpt/verify.hpp"
#include "ckpt/wal.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "tier/tiered_env.hpp"
#include "util/strings.hpp"

using namespace qnn::ckpt;

namespace {

/// Rebases exactly the `from` directory prefix onto `to`: the cold
/// tier's view of the inspected directory, so the writer's logical
/// paths ("DIR/ckpt-...") resolve against the cold twin ("COLD_DIR/
/// ckpt-..."). Read-only use here, but the full contract is forwarded.
class RebaseEnv final : public qnn::io::ForwardingEnv {
 public:
  RebaseEnv(qnn::io::Env& base, std::string from, std::string to)
      : ForwardingEnv(base), from_(std::move(from)), to_(std::move(to)) {}

  std::unique_ptr<qnn::io::WritableFile> new_writable(
      const std::string& path, qnn::io::WriteMode mode) override {
    return base_.new_writable(rebased(path), mode);
  }
  std::unique_ptr<qnn::io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    return base_.open_ranged(rebased(path));
  }
  bool exists(const std::string& path) override {
    return base_.exists(rebased(path));
  }
  void remove_file(const std::string& path) override {
    base_.remove_file(rebased(path));
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return base_.list_dir(rebased(dir));
  }
  std::optional<std::uint64_t> file_size(const std::string& path) override {
    return base_.file_size(rebased(path));
  }

 private:
  [[nodiscard]] std::string rebased(const std::string& path) const {
    if (path == from_) {
      return to_;
    }
    if (path.size() > from_.size() &&
        path.compare(0, from_.size(), from_) == 0 &&
        path[from_.size()] == '/') {
      return to_ + path.substr(from_.size());
    }
    return path;  // outside the inspected dir: untouched
  }

  const std::string from_;
  const std::string to_;
};

/// "[hot]" / "[cold]" / "[hot+cold]" when inspecting through a tiered
/// env; empty on a flat one.
std::string tier_label(qnn::tier::TieredEnv* tiered, const std::string& path) {
  if (tiered == nullptr) {
    return "";
  }
  const bool hot = tiered->hot().exists(path);
  const bool cold = tiered->cold().exists(path);
  if (!hot && !cold) {
    return "";
  }
  return std::string("  [") +
         (hot && cold ? "hot+cold" : (cold ? "cold" : "hot")) + "]";
}

/// Ranged layout view (--layout): the container's section map from a
/// header-only pread walk — no payload bytes move, so this works on
/// multi-GB containers (or a capacity tier) at metadata cost. No CRC64
/// verification either: use --verify / the default deep view for that.
void print_layout(qnn::io::Env& env, const std::string& dir,
                  const std::string& name) {
  try {
    const CheckpointIndex index = read_checkpoint_index(env, dir + "/" + name);
    std::printf("%s  (%s, v%u, header walk only)\n", name.c_str(),
                qnn::util::human_bytes(index.file_bytes).c_str(),
                index.version);
    std::printf("  id=%llu parent=%llu step=%llu\n",
                static_cast<unsigned long long>(index.checkpoint_id),
                static_cast<unsigned long long>(index.parent_id),
                static_cast<unsigned long long>(index.step));
    std::printf("  %-14s %-10s %12s %12s %10s %s\n", "section", "codec",
                "raw_bytes", "disk_bytes", "offset", "storage");
    for (const SectionIndexEntry& s : index.sections) {
      const char* storage = (s.flags & kSectionFlagExtern) != 0
                                ? "extern"
                                : ((s.flags & kSectionFlagChunked) != 0
                                       ? "chunked"
                                       : "inline");
      std::printf("  %-14s %-10s %12llu %12llu %10llu %s%s\n",
                  section_kind_name(s.kind).c_str(),
                  qnn::codec::codec_name(s.codec).c_str(),
                  static_cast<unsigned long long>(s.raw_len),
                  static_cast<unsigned long long>(s.enc_len),
                  static_cast<unsigned long long>(s.payload_offset), storage,
                  (s.flags & kSectionFlagDelta) != 0 ? " +delta" : "");
    }
  } catch (const std::exception& e) {
    std::printf("%s: %s\n", name.c_str(), e.what());
  }
}

void inspect_file(qnn::io::Env& env, const std::string& dir,
                  const std::string& name, ChunkStore& cas,
                  qnn::tier::TieredEnv* tiered) {
  const auto data = env.read_file(dir + "/" + name);
  if (!data) {
    std::printf("%s: unreadable\n", name.c_str());
    return;
  }
  const auto salvage =
      salvage_checkpoint(*data, DecodeOptions{.source = &cas});
  std::printf("%s  (%s)%s\n", name.c_str(),
              qnn::util::human_bytes(data->size()).c_str(),
              tier_label(tiered, dir + "/" + name).c_str());
  if (!salvage.file) {
    std::printf("  UNPARSEABLE: %s\n",
                salvage.notes.empty() ? "?" : salvage.notes[0].c_str());
    return;
  }
  const CheckpointFile& f = *salvage.file;
  std::printf("  id=%llu parent=%llu step=%llu  verify=%s\n",
              static_cast<unsigned long long>(f.checkpoint_id),
              static_cast<unsigned long long>(f.parent_id),
              static_cast<unsigned long long>(f.step),
              salvage.fully_intact ? "OK" : "DAMAGED");
  for (const auto& note : salvage.notes) {
    std::printf("  ! %s\n", note.c_str());
  }
  std::printf("  %-14s %-10s %12s %6s\n", "section", "codec", "raw_bytes",
              "delta");
  for (const Section& s : f.sections) {
    std::printf("  %-14s %-10s %12zu %6s\n",
                section_kind_name(s.kind).c_str(),
                qnn::codec::codec_name(s.codec).c_str(), s.payload.size(),
                s.is_delta() ? "yes" : "no");
  }
  // Content-addressed sections: how much of this file lives in the
  // shared chunk store rather than in the file itself.
  try {
    const auto refs = list_chunk_refs(*data);
    if (!refs.empty()) {
      std::uint64_t raw = 0;
      std::size_t resident = 0;
      for (const ChunkKey& key : refs) {
        raw += key.len;
        resident += cas.contains(key) ? 1 : 0;
      }
      std::printf("  extern chunks: %zu refs, %s raw, %zu resident\n",
                  refs.size(), qnn::util::human_bytes(raw).c_str(),
                  resident);
    }
  } catch (const std::exception&) {
    // refs unreadable: the salvage notes above already cover the damage
  }
}

/// The chunk store's population: packfiles, live vs total records.
void print_chunk_store(qnn::io::Env& env, const std::string& dir,
                       ChunkStore& cas, qnn::tier::TieredEnv* tiered) {
  const auto packs = cas.pack_names();
  if (packs.empty()) {
    return;
  }
  const auto stats = cas.stats();
  std::printf("\nchunk store (%s/chunks): %llu packfile(s), %llu chunk(s), "
              "%s stored\n",
              dir.c_str(), static_cast<unsigned long long>(stats.packfiles),
              static_cast<unsigned long long>(stats.chunks),
              qnn::util::human_bytes(stats.stored_bytes).c_str());
  if (stats.damaged_packs > 0) {
    std::printf("  ! %llu damaged packfile(s) skipped\n",
                static_cast<unsigned long long>(stats.damaged_packs));
  }
  for (const std::string& name : packs) {
    std::printf("  %s  (%s)%s\n", name.c_str(),
                qnn::util::human_bytes(
                    env.file_size(dir + "/chunks/" + name).value_or(0))
                    .c_str(),
                tier_label(tiered, dir + "/chunks/" + name).c_str());
  }
}

/// Tier residency overview: migratable bytes per tier + the files the
/// cold tier lists.
void print_tier_state(const std::string& dir, CheckpointStore& store) {
  qnn::tier::MigrationEngine* engine = store.tiering();
  if (engine == nullptr) {
    return;
  }
  std::printf("\ntier state (hot = %s, cold mounted):\n", dir.c_str());
  std::printf("  hot resident:  %s\n",
              qnn::util::human_bytes(engine->hot_resident_bytes()).c_str());
  std::printf("  cold resident: %s\n",
              qnn::util::human_bytes(engine->cold_resident_bytes()).c_str());
  const auto cold = engine->cold_files();
  for (const std::string& name : cold) {
    std::printf("  cold: %s\n", name.c_str());
  }
  if (cold.empty()) {
    std::printf("  cold: nothing demoted\n");
  }
}

/// Orphan checkpoint files — what a crash between a GC fence and its
/// deletions leaves behind. Exactly the set the store's startup sweep
/// will reap (same planner, so this can never disagree with the sweep).
std::vector<std::string> orphan_files(qnn::io::Env& env,
                                      const std::string& dir,
                                      const Manifest& manifest) {
  return CheckpointStore(env, dir, RetentionPolicy{}).plan_orphans(manifest);
}

void print_retention_state(qnn::io::Env& env, const std::string& dir,
                           const Manifest& manifest,
                           const RetentionPolicy& policy) {
  CheckpointStore store(env, dir, policy);
  const auto retained = store.plan_retained(manifest);
  std::printf("\nretention (keep-last %zu, spacing %llu, budget %llu):\n",
              policy.keep_last,
              static_cast<unsigned long long>(policy.effective_step_spacing()),
              static_cast<unsigned long long>(policy.byte_budget));
  for (const ManifestEntry& e : manifest.entries()) {
    const bool keep =
        std::binary_search(retained.begin(), retained.end(), e.id);
    std::printf("  id=%-4llu step=%-8llu %-8s %s\n",
                static_cast<unsigned long long>(e.id),
                static_cast<unsigned long long>(e.step),
                keep ? "KEEP" : "victim", e.file.c_str());
  }
  for (const std::string& name : orphan_files(env, dir, manifest)) {
    std::printf("  orphan (unreferenced, swept at next startup): %s\n",
                name.c_str());
  }
}

/// Delta-journal view (--wal): every wal-<epoch>.qwal on disk — frame
/// population, the step replay would reach, torn tail size, and whether
/// the log is the pinned active one or GC fodder.
int print_wal_state(qnn::io::Env& env, const std::string& dir,
                    const Manifest& manifest) {
  bool found = false;
  for (const std::string& name : env.list_dir(dir)) {
    const auto epoch = parse_wal_file_name(name);
    if (!epoch) {
      continue;
    }
    found = true;
    const bool advertised = manifest.find(*epoch) != nullptr;
    std::printf("%s  (%s)  %s\n", name.c_str(),
                qnn::util::human_bytes(
                    env.file_size(dir + "/" + name).value_or(0))
                    .c_str(),
                advertised ? "[active: epoch advertised, pinned]"
                           : "[stale: reaped at next GC/sweep]");
    const auto scan = scan_wal(env, dir, *epoch);
    if (!scan) {
      std::printf("  unreadable header: replay ignores this journal\n");
      continue;
    }
    std::printf("  epoch=%llu base_step=%llu\n",
                static_cast<unsigned long long>(scan->epoch),
                static_cast<unsigned long long>(scan->base_step));
    std::printf("  %llu fully-framed record(s); replay reaches step %llu\n",
                static_cast<unsigned long long>(scan->records),
                static_cast<unsigned long long>(scan->last_step));
    if (scan->torn_bytes > 0) {
      std::printf("  torn tail: %llu byte(s) past the last valid frame "
                  "(truncated at replay)\n",
                  static_cast<unsigned long long>(scan->torn_bytes));
    }
  }
  if (!found) {
    std::printf("no delta journal in %s\n", dir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional args with `--cold ROOT` (and the --verify/--plan flags)
  // extracted wherever they appear.
  std::vector<std::string> args;
  std::optional<std::string> cold_root;
  bool verify = false;
  bool plan = false;
  bool layout = false;
  bool wal = false;
  bool metrics = false;
  std::optional<std::string> trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cold" && i + 1 < argc) {
      cold_root = argv[++i];
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--plan") {
      plan = true;
    } else if (arg == "--layout") {
      layout = true;
    } else if (arg == "--wal") {
      wal = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: %s CHECKPOINT_DIR [CHECKPOINT_ID | --verify | "
                 "--plan KEEP_LAST | --layout | --wal | --metrics | "
                 "--trace OUT.json] [--cold COLD_DIR]\n",
                 argv[0]);
    return 2;
  }
  const std::string dir = args[0];
  qnn::io::PosixEnv posix;
  // With a cold twin, inspect through the same hot/cold composition
  // the writer used; reads stay promotion-free (forensics must not
  // move data).
  std::optional<RebaseEnv> cold_mount;
  std::optional<qnn::tier::TieredEnv> tiered;
  qnn::io::Env* env_ptr = &posix;
  if (cold_root) {
    cold_mount.emplace(posix, dir, *cold_root);
    tiered.emplace(posix, *cold_mount, /*promote_on_read=*/false);
    env_ptr = &*tiered;
  }
  qnn::io::Env& env = *env_ptr;

  if (verify) {
    const auto report = verify_directory(env, dir);
    std::fputs(report.summary().c_str(), stdout);
    return report.healthy() ? 0 : 1;
  }

  if (metrics || trace_path) {
    // Observability replay: run the full recovery path through an
    // instrumented Env (and, with --trace, a tracer), then dump what it
    // recorded — per-op I/O metrics, the ordered flight-recorder events,
    // and a Chrome trace file. Recovery is read-only, so this is safe on
    // a live directory.
    qnn::obs::MetricsRegistry registry;
    qnn::obs::ObservedEnv observed(env, registry);
    qnn::obs::Tracer tracer;
    RecoveryOptions options;
    options.tracer = trace_path ? &tracer : nullptr;
    const auto outcome = recover_latest(observed, dir, options);
    if (outcome) {
      std::printf("recovered id=%llu step=%llu\n",
                  static_cast<unsigned long long>(outcome->checkpoint_id),
                  static_cast<unsigned long long>(outcome->step));
      std::printf("\nflight recorder (%zu event(s), in order):\n",
                  outcome->events.size());
      for (const FlightEvent& e : outcome->events) {
        std::printf("  %s", e.name.c_str());
        for (const auto& [k, v] : e.kv) {
          std::printf("  %s=%s", k.c_str(), v.c_str());
        }
        std::printf("\n");
      }
    } else {
      std::printf("no recoverable checkpoint in %s\n", dir.c_str());
    }
    if (metrics) {
      std::printf("\nmetrics registry:\n%s", registry.text().c_str());
      std::printf("RESULT %s\n", registry.json("inspector").c_str());
    }
    if (trace_path) {
      tracer.write(*trace_path);
      std::printf("\ntrace: %zu event(s) written to %s\n",
                  tracer.event_count(), trace_path->c_str());
    }
    return outcome ? 0 : 1;
  }

  if (layout) {
    // Header-walk every container: the ranged view for directories too
    // large (or too cold) to read in full.
    for (const std::string& name : env.list_dir(dir)) {
      if (parse_checkpoint_file_name(name)) {
        print_layout(env, dir, name);
      }
    }
    return 0;
  }

  if (wal) {
    return print_wal_state(env, dir, Manifest::load(env, dir));
  }

  if (plan) {
    RetentionPolicy policy;
    if (args.size() >= 2) {
      policy.keep_last = static_cast<std::size_t>(
          std::strtoull(args[1].c_str(), nullptr, 10));
    }
    const Manifest manifest = Manifest::load(env, dir);
    print_retention_state(env, dir, manifest, policy);
    return 0;
  }

  if (args.size() >= 2) {
    // Deep dive: resolve one checkpoint (including its delta chain) and
    // show the decoded training metadata.
    const std::uint64_t id = std::strtoull(args[1].c_str(), nullptr, 10);
    ChunkStore cas(env, dir);
    inspect_file(env, dir, checkpoint_file_name(id), cas,
                 tiered ? &*tiered : nullptr);
    try {
      const auto state = load_checkpoint(env, dir, id);
      std::printf("\nresolved training state:\n");
      std::printf("  workload   %s\n  optimizer  %s\n  step       %llu\n"
                  "  epoch      %llu (cursor %llu, permutation %zu)\n"
                  "  params     %zu doubles\n  loss hist  %zu entries%s\n"
                  "  simulator  %s\n",
                  state.workload_tag.c_str(), state.optimizer_name.c_str(),
                  static_cast<unsigned long long>(state.step),
                  static_cast<unsigned long long>(state.epoch),
                  static_cast<unsigned long long>(state.cursor),
                  state.permutation.size(), state.params.size(),
                  state.loss_history.size(),
                  state.loss_history.empty() ? "" : ", latest below",
                  state.simulator_state.empty()
                      ? "none"
                      : qnn::util::human_bytes(state.simulator_state.size())
                            .c_str());
      if (!state.loss_history.empty()) {
        std::printf("  last loss  %.8f\n", state.loss_history.back());
      }
    } catch (const std::exception& e) {
      std::printf("\nfailed to resolve checkpoint %llu: %s\n",
                  static_cast<unsigned long long>(id), e.what());
      return 1;
    }
    return 0;
  }

  // Directory summary.
  const Manifest manifest = Manifest::load(env, dir);
  std::printf("manifest: %zu entries\n", manifest.entries().size());
  if (manifest.parse_warnings() > 0) {
    std::printf("  ! %zu unparseable manifest line(s) skipped\n",
                manifest.parse_warnings());
  }
  // Lifetime counters the manifest carries across restarts. A non-zero
  // dropped_writes means checkpoints silently vanished in the async
  // pipeline (encode failure or shutdown refusals) — exactly the kind
  // of loss that leaves no file behind to inspect.
  for (const auto& [key, value] : manifest.stats()) {
    std::printf("  lifetime %s: %llu%s\n", key.c_str(),
                static_cast<unsigned long long>(value),
                key == "dropped_writes" && value > 0
                    ? "  (!) checkpoints lost in the async pipeline"
                    : "");
  }
  for (const ManifestEntry& e : manifest.entries()) {
    std::printf("  id=%-4llu parent=%-4llu step=%-8llu %-24s %s\n",
                static_cast<unsigned long long>(e.id),
                static_cast<unsigned long long>(e.parent_id),
                static_cast<unsigned long long>(e.step), e.file.c_str(),
                qnn::util::human_bytes(e.bytes).c_str());
  }
  for (const std::string& name : orphan_files(env, dir, manifest)) {
    std::printf("  orphan (unreferenced, swept at next startup): %s\n",
                name.c_str());
  }
  std::printf("\nfiles on disk:\n");
  ChunkStore cas(env, dir);  // one packfile scan for the whole listing
  for (const std::string& name : env.list_dir(dir)) {
    if (parse_checkpoint_file_name(name)) {
      inspect_file(env, dir, name, cas, tiered ? &*tiered : nullptr);
    }
  }
  print_chunk_store(env, dir, cas, tiered ? &*tiered : nullptr);
  if (tiered) {
    CheckpointStore store(env, dir, RetentionPolicy{});
    print_tier_state(dir, store);
  }
  const auto newest = recover_latest(env, dir);
  if (newest) {
    std::printf("\nnewest recoverable checkpoint: id=%llu (step %llu)\n",
                static_cast<unsigned long long>(newest->checkpoint_id),
                static_cast<unsigned long long>(newest->step));
  } else {
    std::printf("\nno recoverable checkpoint in this directory\n");
  }
  return 0;
}

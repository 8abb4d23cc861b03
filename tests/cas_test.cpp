// Tests for the content-addressed chunk store (format v3): cross-
// checkpoint dedup, refcounted GC over chunk keys, packfile sweeps and
// compaction, refcounts rebuilt at open, the pack v1 reader, and
// recovery behaviour when packfiles are damaged.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "ckpt/cas.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/store.hpp"
#include "ckpt/verify.hpp"
#include "io/mem_env.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace qnn::ckpt {
namespace {

/// A state whose params section is large (so it externalises at small
/// chunk sizes) and mostly frozen across steps: only the last
/// `moving_doubles` values depend on the step.
qnn::TrainingState big_state(std::uint64_t step, std::size_t n_params = 2048,
                             std::size_t moving_doubles = 8) {
  qnn::TrainingState s;
  s.step = step;
  s.params.resize(n_params);
  util::Rng frozen(7);
  for (double& p : s.params) {
    p = frozen.uniform(-1.0, 1.0);
  }
  util::Rng moving(1000 + step);
  for (std::size_t i = n_params - moving_doubles; i < n_params; ++i) {
    s.params[i] = moving.uniform(-1.0, 1.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.assign(64, static_cast<std::uint8_t>(step & 0xFF));
  s.rng_state = util::Rng(step).serialize();
  s.epoch = step / 4;
  s.cursor = step % 4;
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

CheckpointPolicy cas_policy() {
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;  // keep everything unless a test says so
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = 1024;  // params (2048 doubles + u64) externalises
  return policy;
}

std::uint64_t dir_stored_bytes(io::MemEnv& env, const std::string& dir) {
  std::uint64_t total = 0;
  for (const std::string& name : env.list_dir(dir)) {
    total += env.file_size(dir + "/" + name).value_or(0);
  }
  for (const std::string& name : env.list_dir(dir + "/chunks")) {
    total += env.file_size(dir + "/chunks/" + name).value_or(0);
  }
  return total;
}

std::uint64_t run_checkpoints(io::MemEnv& env, CheckpointPolicy policy,
                              std::uint64_t n) {
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= n; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  ck.flush();
  return ck.stats().checkpoints;
}

// ---------- cross-checkpoint dedup ----------

/// cas_policy with chunk_bytes above every section of big_state: each
/// checkpoint is stored inline, self-contained, and skips the chunk
/// store (no dedup).
CheckpointPolicy inline_policy() {
  CheckpointPolicy policy = cas_policy();
  policy.chunk_bytes = std::size_t{1} << 20;
  return policy;
}

TEST(Cas, FrozenStateDedupsAcrossCheckpoints) {
  io::MemEnv cas_env;
  run_checkpoints(cas_env, cas_policy(), 10);

  io::MemEnv inline_env;
  run_checkpoints(inline_env, inline_policy(), 10);

  const std::uint64_t cas_stored = dir_stored_bytes(cas_env, "cp");
  const std::uint64_t inline_stored = dir_stored_bytes(inline_env, "cp");
  // 10 near-identical checkpoints must share storage: ≥4.5x reduction
  // (the pack's self-indexing key table — what makes single-chunk
  // resolution a ranged read — costs ~34 bytes per record of the ratio).
  EXPECT_GE(inline_stored * 2, 9 * cas_stored)
      << "inline=" << inline_stored << " cas=" << cas_stored;

  // And every checkpoint still resolves to its exact state.
  for (std::uint64_t step = 1; step <= 10; ++step) {
    EXPECT_EQ(load_checkpoint(cas_env, "cp", step), big_state(step));
  }
  EXPECT_EQ(
      read_checkpoint_index(cas_env, "cp/" + checkpoint_file_name(10)).version,
      kFormatVersion);
}

TEST(Cas, DedupStatsExposeHitRatio) {
  io::MemEnv env;
  Checkpointer ck(env, "cp", cas_policy());
  for (std::uint64_t step = 1; step <= 5; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  const auto stats = ck.stats();
  EXPECT_GT(stats.chunk_refs, 0u);
  EXPECT_GT(stats.chunks_deduped, 0u);
  EXPECT_GT(stats.dedup_bytes, 0u);
  // The frozen prefix dominates: most refs after the first checkpoint
  // are dedup hits.
  EXPECT_GT(stats.chunks_deduped * 2, stats.chunk_refs);
  const auto cas = ck.cas_stats();
  EXPECT_GT(cas.packfiles, 0u);
  EXPECT_GT(cas.chunks, 0u);
  EXPECT_EQ(cas.dedup_hits, stats.chunks_deduped);
}

TEST(Cas, RewrittenChunkSizedRegionMissesOneChunk) {
  // One params array of 16 regions, each the policy's chunk size; every
  // checkpoint rewrites one region in place, as a trainer updating one
  // layer at a time does. Chunk cuts sit on the array's grid, so a
  // region is exactly one chunk: 16 refs, 1 miss per checkpoint.
  constexpr std::size_t kRegions = 16;
  constexpr std::size_t kRegionParams = 1024 / sizeof(double);
  qnn::TrainingState s = big_state(0, kRegions * kRegionParams);
  io::MemEnv env;
  Checkpointer ck(env, "cp", cas_policy());
  ck.checkpoint_now(s);
  util::Rng rng(21);
  for (std::uint64_t step = 1; step <= kRegions; ++step) {
    // 5 is coprime to 16: every region, the first and the last included.
    const std::size_t region = (step * 5) % kRegions;
    for (std::size_t i = 0; i < kRegionParams; ++i) {
      s.params[region * kRegionParams + i] = rng.uniform(-1.0, 1.0);
    }
    s.step = step;
    const auto before = ck.stats();
    ck.checkpoint_now(s);
    const auto after = ck.stats();
    const std::uint64_t refs = after.chunk_refs - before.chunk_refs;
    EXPECT_EQ(refs, kRegions) << "step " << step;
    EXPECT_EQ(refs - (after.chunks_deduped - before.chunks_deduped), 1u)
        << "step " << step << " region " << region;
  }
  ck.flush();
  // Ids count from 1, and the first checkpoint was step 0.
  EXPECT_EQ(load_checkpoint(env, "cp", kRegions + 1), s);
}

TEST(Cas, AsyncPipelineDedupsAndRecovers) {
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  policy.async = true;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 8; ++step) {
      ck.checkpoint_now(big_state(step));
    }
    ck.flush();
    EXPECT_GT(ck.stats().chunks_deduped, 0u);
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_EQ(outcome->state, big_state(8));
}

TEST(Cas, ChunkBytesAboveEverySectionWritesSelfContainedFiles) {
  io::MemEnv env;
  run_checkpoints(env, inline_policy(), 3);
  EXPECT_TRUE(env.list_dir("cp/chunks").empty());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const std::string file = "cp/" + checkpoint_file_name(id);
    EXPECT_EQ(read_checkpoint_index(env, file).version, kFormatVersion);
    EXPECT_TRUE(list_chunk_refs(env, file).empty());
    const auto data = env.read_file(file);
    ASSERT_TRUE(data.has_value());
    // Decodes with no chunk source at all.
    EXPECT_EQ(sections_to_state(decode_checkpoint(*data).sections),
              big_state(id));
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, big_state(3));
}

// ---------- refcounted GC ----------

TEST(Cas, GcReleasesChunksButKeepsShared) {
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  policy.retention.keep_last = 2;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 10; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  // Only the last two files remain, and they still resolve: the shared
  // frozen chunks survived every GC pass.
  EXPECT_EQ(load_checkpoint(env, "cp", 9), big_state(9));
  EXPECT_EQ(load_checkpoint(env, "cp", 10), big_state(10));
  EXPECT_THROW(load_checkpoint(env, "cp", 3), std::exception);

  // Packfiles of evicted checkpoints whose chunks were all unique to
  // them (the moving tail) die with them; the store never grows one
  // packfile per evicted checkpoint forever.
  const auto packs = env.list_dir("cp/chunks");
  std::size_t pack_count = 0;
  for (const auto& name : packs) {
    pack_count += parse_pack_file_name(name).has_value() ? 1 : 0;
  }
  EXPECT_LT(pack_count, 10u);
}

TEST(Cas, ChangedContentEventuallyReclaimsDeadPackfiles) {
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  policy.retention.keep_last = 1;
  {
    Checkpointer ck(env, "cp", policy);
    // Completely different payloads per step: once evicted, a
    // checkpoint's chunks are dead.
    for (std::uint64_t step = 1; step <= 6; ++step) {
      ck.checkpoint_now(big_state(step, 512, 512));
    }
  }
  // A fresh startup (orphan sweep + compaction) leaves only live bytes.
  {
    Checkpointer ck(env, "cp", policy);  // ctor runs the startup sweep
  }
  std::size_t pack_count = 0;
  std::uint64_t pack_bytes = 0;
  for (const auto& name : env.list_dir("cp/chunks")) {
    if (parse_pack_file_name(name)) {
      ++pack_count;
      pack_bytes += env.file_size("cp/chunks/" + name).value_or(0);
    }
  }
  // Live state is one checkpoint (~4.2 KiB params): everything else is
  // gone, not accumulated.
  EXPECT_LE(pack_count, 2u);
  EXPECT_LT(pack_bytes, 3 * 512 * 8 * 2);
  EXPECT_EQ(load_checkpoint(env, "cp", 6), big_state(6, 512, 512));
}

TEST(Cas, StartupSweepCompactsMixedPackfiles) {
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  {
    Checkpointer ck(env, "cp", policy);
    ck.checkpoint_now(big_state(1));  // pack-1: frozen chunks + step-1 tail
    ck.checkpoint_now(big_state(2));  // pack-2: step-2 tail only
  }
  // Delete checkpoint 2's file outside the store (as a damaged-manifest
  // repair might): its tail chunks in pack-2 become dead, and pack-1's
  // chunks stay live through checkpoint 1.
  const std::uint64_t before =
      env.file_size("cp/chunks/" + pack_file_name(1)).value_or(0);
  {
    Manifest manifest = Manifest::load(env, "cp");
    manifest.remove(2);
    manifest.save(env, "cp");
    env.remove_file("cp/" + checkpoint_file_name(2));
  }
  {
    CheckpointStore store(env, "cp", RetentionPolicy{});
    const Manifest manifest = Manifest::load(env, "cp");
    store.sweep_orphans(manifest);
  }
  // pack-2 held only step-2 chunks: fully dead, deleted. pack-1 keeps
  // every chunk (all referenced by checkpoint 1) at unchanged size.
  EXPECT_FALSE(env.exists("cp/chunks/" + pack_file_name(2)));
  EXPECT_EQ(env.file_size("cp/chunks/" + pack_file_name(1)).value_or(0),
            before);
  EXPECT_EQ(load_checkpoint(env, "cp", 1), big_state(1));
}

TEST(Cas, OrphanReleaseUsesPreDeletionRefBaseline) {
  // Regression: sweep_orphans must load the refcount baseline BEFORE
  // deleting any orphan. If the rebuild ran after the orphan's file was
  // already gone, releasing the orphan's references would decrement
  // counts that never included it — freeing chunks it shares with live
  // checkpoints.
  io::MemEnv env;
  run_checkpoints(env, cas_policy(), 2);  // 1 and 2 share the frozen chunks
  // Strand checkpoint 1 as an orphan (advertised no longer, file still
  // on disk). The shared chunks now have exactly ONE surviving reference
  // (ckpt 2), so a release against a post-deletion rebuild would zero
  // them out.
  {
    Manifest manifest = Manifest::load(env, "cp");
    manifest.remove(1);
    manifest.save(env, "cp");
  }

  CheckpointStore store(env, "cp", RetentionPolicy{});
  const Manifest manifest = Manifest::load(env, "cp");
  EXPECT_EQ(store.sweep_orphans(manifest), 1u);

  // The orphan is gone; the survivor still resolves through the shared
  // chunks (a double-free would have swept them).
  EXPECT_FALSE(env.exists("cp/" + checkpoint_file_name(1)));
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2));
}

TEST(Cas, FirstInstallDoesNotDoubleCountOwnRefs) {
  // Regression: the refcount baseline is loaded at Checkpointer
  // construction (quiescent), so an install's retain() is a pure delta.
  // A rebuild racing the install could count the just-written file AND
  // apply retain() on top — leaking its chunks forever after GC.
  io::MemEnv env;
  {
    Checkpointer ck(env, "cp", cas_policy());
    ck.checkpoint_now(big_state(1));
  }
  const Bytes data = *env.read_file("cp/" + checkpoint_file_name(1));
  ChunkStore store(env, "cp");
  for (const ChunkKey& key : list_chunk_refs(data)) {
    EXPECT_EQ(store.ref_count(key), 1u) << chunk_key_name(key);
  }
}

TEST(Cas, OrphanPackfileFromCrashedInstallIsSwept) {
  io::MemEnv env;
  {
    Checkpointer ck(env, "cp", cas_policy());
    ck.checkpoint_now(big_state(1));
  }
  // Simulate a crash between packfile install and checkpoint write: a
  // packfile exists whose chunks nothing references.
  ChunkStore store(env, "cp");
  auto batch = store.begin_batch(99);
  const Bytes junk(300, 0x5A);
  const ChunkKey key = chunk_key(junk);
  ASSERT_FALSE(batch->contains(key));
  batch->put(key, codec::CodecId::kRaw, junk);
  batch->commit();  // the packfile installs; the checkpoint never does
  batch.reset();

  ASSERT_TRUE(env.exists("cp/chunks/" + pack_file_name(99)));
  {
    Checkpointer ck(env, "cp", cas_policy());  // startup sweep
  }
  EXPECT_FALSE(env.exists("cp/chunks/" + pack_file_name(99)));
  EXPECT_EQ(load_checkpoint(env, "cp", 1), big_state(1));
}

// ---------- ranged resolution / read amplification ----------

TEST(Cas, SingleChunkResolutionReadsOnlyFooterTableAndChunk) {
  // The core ranged-read claim, asserted in BYTES: opening a store and
  // resolving one chunk preads the pack header probe + footer + key
  // table + that record's encoded bytes — never the packfile.
  io::MemEnv env;
  run_checkpoints(env, cas_policy(), 1);
  const Bytes file_data = *env.read_file("cp/" + checkpoint_file_name(1));
  const auto refs = list_chunk_refs(file_data);
  ASSERT_GT(refs.size(), 2u);
  const ChunkKey key = refs[1];  // an interior chunk
  const std::string pack = "cp/chunks/" + pack_file_name(1);
  const std::uint64_t pack_bytes = env.file_size(pack).value();

  ChunkStore store(env, "cp");
  const std::uint64_t before = env.bytes_read();
  EXPECT_EQ(store.get(key).size(), key.len);
  const std::uint64_t read = env.bytes_read() - before;
  // Pack v2 framing: 16-byte header probe, 28-byte footer, one 34-byte
  // key-table row per record, then the chunk's encoded bytes (== raw
  // length under the kRaw codec this directory uses).
  const std::uint64_t expected = 16 + 28 + refs.size() * 34 + key.len;
  EXPECT_EQ(read, expected)
      << "single-chunk resolution read amplification regressed";
  EXPECT_LT(read, pack_bytes / 4)
      << "resolution should not approach a whole-pack read";
}

TEST(Cas, ColdPackOpenAndResolveReadOnlyFooterTableAndChunk) {
  // Same claim across the tier boundary: a COLD pack is indexed by a
  // ranged peek (footer + key table through the cold tier) and the
  // requested chunk preads exactly its record — the capacity tier never
  // serves the pack's bulk for a single-chunk need.
  io::MemEnv hot_base;
  io::MemEnv cold_base;
  {
    tier::TieredEnv setup(hot_base, cold_base);
    Checkpointer ck(setup, "cp", cas_policy());
    ck.checkpoint_now(big_state(1));
  }
  const Bytes file_data =
      *hot_base.read_file("cp/" + checkpoint_file_name(1));
  const auto refs = list_chunk_refs(file_data);
  ASSERT_GT(refs.size(), 2u);
  const ChunkKey key = refs[1];
  // Demote the pack by hand: cold copy durable, hot copy gone.
  const std::string pack = "cp/chunks/" + pack_file_name(1);
  cold_base.write_file_atomic(pack, *hot_base.read_file(pack));
  hot_base.remove_file(pack);
  const std::uint64_t pack_bytes = cold_base.file_size(pack).value();

  tier::TieredEnv env(hot_base, cold_base, /*promote_on_read=*/false);
  ChunkStore store(env, "cp");
  const std::uint64_t before = cold_base.bytes_read();
  EXPECT_EQ(store.get(key).size(), key.len);
  const std::uint64_t cold_read = cold_base.bytes_read() - before;
  const std::uint64_t expected = 16 + 28 + refs.size() * 34 + key.len;
  EXPECT_EQ(cold_read, expected)
      << "cold-pack open + resolve must pread footer + table + chunk only";
  EXPECT_LT(cold_read, pack_bytes / 4);
  // And nothing was promoted: the hot tier still has no pack.
  EXPECT_FALSE(hot_base.exists(pack));
}

// ---------- refcounts rebuilt at open ----------

/// Each key's count over the key tables of the checkpoint files in `dir`.
std::map<ChunkKey, std::uint64_t> counts_on_disk(io::Env& env,
                                                 const std::string& dir) {
  std::map<ChunkKey, std::uint64_t> counts;
  for (const std::string& name : env.list_dir(dir)) {
    if (parse_checkpoint_file_name(name)) {
      for (const ChunkKey& key :
           list_chunk_refs(*env.read_file(dir + "/" + name))) {
        ++counts[key];
      }
    }
  }
  return counts;
}

/// A freshly opened store counts every key its packs hold exactly as
/// often as the retained key tables name it (0 for a dead chunk), and
/// the packs hold every named key.
void expect_reopened_counts_match_disk(io::MemEnv& env, const char* when) {
  const auto expected = counts_on_disk(env, "cp");
  ChunkStore store(env, "cp");
  std::size_t named = 0;
  for (const std::string& pack : store.pack_names()) {
    for (const ChunkKey& key : store.pack_keys(pack)) {
      const auto it = expected.find(key);
      named += it == expected.end() ? 0 : 1;
      EXPECT_EQ(store.ref_count(key), it == expected.end() ? 0u : it->second)
          << when << ": " << chunk_key_name(key);
    }
  }
  EXPECT_EQ(named, expected.size()) << when;
  EXPECT_GT(named, 0u) << when;
}

TEST(Cas, ReopenedStoreCountsMatchTheRetainedKeyTables) {
  // Nothing persists the counts, so a reopen rebuilds them from the
  // files, whichever way the directory changed since the last open.
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  policy.retention.keep_last = 3;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 5; ++step) {
      ck.checkpoint_now(big_state(step));
    }
  }
  ASSERT_FALSE(env.exists("cp/" + checkpoint_file_name(2)));
  expect_reopened_counts_match_disk(env, "after GC");

  // Strand checkpoint 4 (advertised no longer, file on disk) and reap it.
  {
    Manifest manifest = Manifest::load(env, "cp");
    manifest.remove(4);
    manifest.save(env, "cp");
    CheckpointStore store(env, "cp", RetentionPolicy{});
    EXPECT_EQ(store.sweep_orphans(Manifest::load(env, "cp")), 1u);
  }
  ASSERT_FALSE(env.exists("cp/" + checkpoint_file_name(4)));
  expect_reopened_counts_match_disk(env, "after an orphan sweep");

  env.remove_file("cp/" + checkpoint_file_name(5));
  expect_reopened_counts_match_disk(env, "after a removal behind its back");
  EXPECT_EQ(load_checkpoint(env, "cp", 3), big_state(3));
}

void write_text(io::MemEnv& env, const std::string& path,
                const std::string& text) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  env.write_file_atomic(path, util::ByteSpan{bytes, text.size()});
}

TEST(Cas, EditedRefsJournalReapsNoLiveChunk) {
  // Earlier versions journaled the counts in chunks/REFS, so an upgraded
  // directory may still hold one, edited: here every chunk both kept
  // checkpoints reference reads 0, the edit that once let the reopen's
  // compacting sweep drop live chunks. Nothing reads the file now, and
  // that sweep removes it.
  // 32 KiB of params at 4 KiB chunks, keep_last 2: after 3 checkpoints
  // the 7 frozen chunks are referenced by both kept checkpoints.
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  policy.chunk_bytes = 4096;
  policy.retention.keep_last = 2;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 3; ++step) {
      ck.checkpoint_now(big_state(step, 4096));
    }
    ck.flush();
  }
  EXPECT_FALSE(env.exists("cp/chunks/REFS"));
  std::string text = "qnnckpt-refs v1\ncovers 2,3\n";
  for (const ChunkKey& key :
       list_chunk_refs(*env.read_file("cp/" + checkpoint_file_name(2)))) {
    text += "ref " + chunk_key_name(key) + " 0\n";
  }
  write_text(env, "cp/chunks/REFS", text);
  {
    Checkpointer reopened(env, "cp", policy);
  }
  EXPECT_FALSE(env.exists("cp/chunks/REFS")) << "the startup sweep removes it";
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 3u);
  EXPECT_EQ(outcome->state, big_state(3, 4096));
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2, 4096));
}

TEST(Cas, DirectoryWithoutPackfilesReopensWithoutReadingAContainer) {
  // Inline checkpoints hold no chunk, so no count guards anything: the
  // reopen reads the MANIFEST and no container.
  io::MemEnv env;
  run_checkpoints(env, inline_policy(), 4);
  ASSERT_TRUE(env.list_dir("cp/chunks").empty());
  const std::uint64_t manifest_bytes = env.file_size("cp/MANIFEST").value();
  const std::uint64_t before = env.bytes_read();
  {
    Checkpointer reopened(env, "cp", inline_policy());
  }
  EXPECT_EQ(env.bytes_read() - before, manifest_bytes);
}

TEST(Cas, TieredReopenPromotesNothing) {
  // The rebuild at open reads every retained container whole, demoted
  // ones included: each where it lies, so a restart with read-through
  // promotion on pulls nothing hot.
  io::MemEnv hot_base;
  io::MemEnv cold_base;
  CheckpointPolicy policy = cas_policy();
  policy.tier.hot_byte_budget = 4096;
  policy.tier.pin_hot_last = 1;
  {
    tier::TieredEnv env(hot_base, cold_base, /*promote_on_read=*/true,
                        tier::migratable_path);
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 4; ++step) {
      ck.checkpoint_now(big_state(step));
    }
  }
  std::vector<std::string> cold_containers;
  for (const std::string& name : cold_base.list_dir("cp")) {
    if (parse_checkpoint_file_name(name)) {
      cold_containers.push_back(name);
    }
  }
  ASSERT_FALSE(cold_containers.empty()) << "nothing was demoted";

  tier::TieredEnv env(hot_base, cold_base, /*promote_on_read=*/true,
                      tier::migratable_path);
  const std::uint64_t cold_bytes_before = env.cold_read_bytes();
  {
    Checkpointer reopened(env, "cp", policy);
  }
  EXPECT_GT(env.cold_read_bytes(), cold_bytes_before)
      << "the rebuild read the demoted containers";
  EXPECT_EQ(env.promoted_files(), 0u);
  for (const std::string& name : cold_containers) {
    EXPECT_TRUE(cold_base.exists("cp/" + name)) << name;
    EXPECT_FALSE(hot_base.exists("cp/" + name)) << name;
  }
}

TEST(Cas, UnreadableCheckpointFileDisablesSweep) {
  io::MemEnv env;
  run_checkpoints(env, cas_policy(), 2);
  // Corrupt checkpoint 1: its references become unknowable.
  ASSERT_TRUE(env.flip_bit("cp/" + checkpoint_file_name(1), 1234));
  ChunkStore store(env, "cp");
  store.open();
  // Nothing may die — even chunks no readable file references.
  EXPECT_EQ(store.sweep(/*compact=*/true), 0u);
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2));
}

/// Env decorator whose checkpoint-file reads fail, as a device error
/// (EIO) makes PosixEnv's pread throw.
class FailingContainerReadsEnv : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    auto file = base_.open_ranged(path);
    if (!file || !path.ends_with(".qckp")) {
      return file;
    }
    struct Failing final : io::RandomAccessFile {
      std::uint64_t bytes = 0;
      [[nodiscard]] std::uint64_t size() const override { return bytes; }
      Bytes pread(std::uint64_t, std::uint64_t) override {
        throw std::runtime_error("injected read error");
      }
    };
    auto failing = std::make_unique<Failing>();
    failing->bytes = file->size();
    return failing;
  }
};

TEST(Cas, RebuildThatThrowsDisablesSweep) {
  // The rebuild's read error escapes open(); the counts it left behind
  // are partial, so no later sweep on that store may trust them.
  io::MemEnv base;
  run_checkpoints(base, cas_policy(), 2);
  const auto packs = base.list_dir("cp/chunks");
  ASSERT_FALSE(packs.empty());
  FailingContainerReadsEnv env(base);
  ChunkStore store(env, "cp");
  EXPECT_THROW(store.open(), std::runtime_error);
  EXPECT_EQ(store.sweep(/*compact=*/true), 0u);
  EXPECT_EQ(base.list_dir("cp/chunks"), packs);
  EXPECT_EQ(load_checkpoint(base, "cp", 2), big_state(2));
}

// ---------- damage behaviour ----------

TEST(Cas, DamagedPackfileFallsBackToOlderCheckpoint) {
  io::MemEnv env;
  CheckpointPolicy policy = cas_policy();
  {
    Checkpointer ck(env, "cp", policy);
    ck.checkpoint_now(big_state(1, 512, 512));  // disjoint content
    ck.checkpoint_now(big_state(2, 512, 512));
  }
  // Destroy checkpoint 2's packfile contents.
  ASSERT_TRUE(env.flip_bit("cp/chunks/" + pack_file_name(2), 2000));
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 1u);
  EXPECT_EQ(outcome->state, big_state(1, 512, 512));
  EXPECT_FALSE(outcome->notes.empty());
}

TEST(Cas, OnlyPackfileDamagedKeepsNewCheckpointsLoadable) {
  // Frozen params: the directory's one pack holds every chunk the kept
  // checkpoints name. With that pack's key table damaged, the open
  // indexes no pack, yet the kept containers still name its keys. They
  // must be counted: checkpoint 3 stores the frozen chunks again in a
  // new pack, which must survive the install that retires checkpoint 2
  // (checkpoint 3's own at keep_last 1, checkpoint 4's at keep_last 2).
  for (const std::size_t keep_last : {1u, 2u}) {
    SCOPED_TRACE("keep_last " + std::to_string(keep_last));
    io::MemEnv env;
    CheckpointPolicy policy = cas_policy();
    policy.retention.keep_last = keep_last;
    {
      Checkpointer ck(env, "cp", policy);
      ck.checkpoint_now(big_state(1, 2048, 0));
      ck.checkpoint_now(big_state(2, 2048, 0));
    }
    ASSERT_EQ(env.list_dir("cp/chunks"),
              std::vector<std::string>{pack_file_name(1)});
    const std::string pack = "cp/chunks/" + pack_file_name(1);
    // The last key-table byte: the table CRC no longer matches.
    ASSERT_TRUE(env.flip_bit(pack, (env.file_size(pack).value() - 29) * 8));
    {
      Checkpointer reopened(env, "cp", policy);
      reopened.checkpoint_now(big_state(3, 2048, 0));
      if (keep_last == 2) {
        reopened.checkpoint_now(big_state(4, 2048, 2048));  // other content
      }
    }
    ASSERT_FALSE(env.exists("cp/" + checkpoint_file_name(2)));
    EXPECT_EQ(load_checkpoint(env, "cp", 3), big_state(3, 2048, 0));
    if (keep_last == 2) {
      EXPECT_EQ(load_checkpoint(env, "cp", 4), big_state(4, 2048, 2048));
    }
  }
}

TEST(Cas, VerifyDirectoryFlagsChunkDamage) {
  io::MemEnv env;
  {
    Checkpointer ck(env, "cp", cas_policy());
    ck.checkpoint_now(big_state(1, 512, 512));
    ck.checkpoint_now(big_state(2, 512, 512));
  }
  ASSERT_TRUE(env.flip_bit("cp/chunks/" + pack_file_name(2), 2000));
  const auto report = verify_directory(env, "cp");
  EXPECT_FALSE(report.healthy());
  ASSERT_TRUE(report.newest_recoverable.has_value());
  EXPECT_EQ(*report.newest_recoverable, 1u);
}

// ---------- pack v1 reader ----------

/// Keeps every chunk an encode stores, in put order.
class CapturingSink final : public ChunkSink {
 public:
  struct Put {
    ChunkKey key;
    codec::CodecId codec;
    Bytes encoded;
  };
  bool contains(const ChunkKey& key) override {
    return std::any_of(puts.begin(), puts.end(),
                       [&key](const Put& p) { return p.key == key; });
  }
  void put(const ChunkKey& key, codec::CodecId codec,
           ByteSpan encoded) override {
    puts.push_back({key, codec, Bytes(encoded.begin(), encoded.end())});
  }
  std::vector<Put> puts;
};

constexpr std::size_t kPackV1HeaderBytes = 4 + 2 + 2 + 8 + 4;
constexpr std::size_t kPackRecordHeaderBytes = 1 + 4 + 8 + 1 + 8 + 4;

/// A version-1 packfile, laid out as its reader walks it: header (magic,
/// u16 version 1, u16 reserved, u64 epoch, u32 n_records); each record's
/// header (digest, raw CRC32C, raw length, codec, encoded length,
/// encoded CRC32C) then its encoded bytes; footer (u64 CRC64 of all that
/// precedes it, closing magic).
Bytes pack_v1(std::uint64_t epoch,
              const std::vector<CapturingSink::Put>& puts) {
  Bytes pack = {'Q', 'P', 'A', 'K'};
  util::put_le<std::uint16_t>(pack, 1);
  util::put_le<std::uint16_t>(pack, 0);
  util::put_le<std::uint64_t>(pack, epoch);
  util::put_le<std::uint32_t>(pack, static_cast<std::uint32_t>(puts.size()));
  for (const CapturingSink::Put& p : puts) {
    util::put_le<std::uint8_t>(pack, kChunkDigestCrc32c);
    util::put_le<std::uint32_t>(pack, p.key.crc);
    util::put_le<std::uint64_t>(pack, p.key.len);
    util::put_le<std::uint8_t>(pack, static_cast<std::uint8_t>(p.codec));
    util::put_le<std::uint64_t>(pack, p.encoded.size());
    util::put_le<std::uint32_t>(pack, util::crc32c(p.encoded));
    pack.insert(pack.end(), p.encoded.begin(), p.encoded.end());
  }
  util::put_le<std::uint64_t>(pack, util::crc64(pack));
  pack.insert(pack.end(), {'K', 'A', 'P', 'Q'});
  return pack;
}

TEST(Cas, PackV1StillReads) {
  // Nothing has written a version-1 packfile since pack v2, but the
  // reader stays for directories that hold one: the serial record walk
  // and the ranged readers' whole-file fallbacks (store open and
  // list_pack_keys). The chunks are those of a v3 container.
  const qnn::TrainingState state = big_state(1);
  CheckpointFile file;
  file.checkpoint_id = 1;
  file.step = state.step;
  file.sections = state_to_sections(state, /*include_simulator=*/false,
                                    codec::CodecId::kLz);
  CapturingSink sink;
  const EncodeOptions options{.chunk_bytes = 1024, .sink = &sink};
  const Bytes container = encode_checkpoint(file, options);
  ASSERT_GT(sink.puts.size(), 1u);
  std::vector<ChunkKey> keys;
  for (const CapturingSink::Put& p : sink.puts) {
    keys.push_back(p.key);
  }

  io::MemEnv env;
  const std::string pack_path = "cp/chunks/" + pack_file_name(1);
  Bytes pack = pack_v1(1, sink.puts);
  env.write_file_atomic("cp/" + checkpoint_file_name(1), container);
  env.write_file_atomic(pack_path, pack);
  EXPECT_EQ(load_checkpoint(env, "cp", 1), state);
  EXPECT_EQ(list_pack_keys(env, pack_path), keys);
  {
    ChunkStore store(env, "cp");
    const CasStats stats = store.stats();
    EXPECT_EQ(stats.packfiles, 1u);
    EXPECT_EQ(stats.damaged_packs, 0u);
  }

  // A flipped byte in the first record fails the whole-file CRC64.
  pack[kPackV1HeaderBytes + kPackRecordHeaderBytes] ^= 0x01;
  env.write_file_atomic(pack_path, pack);
  {
    ChunkStore store(env, "cp");
    const CasStats stats = store.stats();
    EXPECT_EQ(stats.packfiles, 0u);
    EXPECT_EQ(stats.damaged_packs, 1u);
  }
  EXPECT_THROW(load_checkpoint(env, "cp", 1), std::exception);
  EXPECT_THROW(list_pack_keys(env, pack_path), std::runtime_error);
}

// ---------- pack-handle LRU cache ----------

/// Env decorator counting ranged opens — the observable the LRU test
/// gates on: a cached pack handle means get() does NOT reopen the file.
class CountingEnv : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    ++ranged_opens;
    return base_.open_ranged(path);
  }
  std::uint64_t ranged_opens = 0;
};

/// Stores one unique chunk through its own batch, creating one pack.
/// Returns the chunk's key.
ChunkKey store_one_pack(ChunkStore& store, std::uint64_t epoch) {
  util::Rng rng(5000 + epoch);
  Bytes chunk(256);
  for (auto& b : chunk) {
    b = static_cast<std::uint8_t>(rng());
  }
  const ChunkKey key{util::crc32c(chunk), chunk.size()};
  auto batch = store.begin_batch(epoch);
  if (!batch->contains(key)) {
    batch->put(key, codec::CodecId::kRaw, chunk);
  }
  batch->commit();
  store.publish(*batch);
  return key;
}

TEST(Cas, PackHandleCacheHoldsFourPacksWithoutReopens) {
  // Interleaved reads across up to four packs must reuse cached
  // handles: the old single-slot cache thrashed (reopen per get) the
  // moment two packs alternated.
  io::MemEnv base;
  CountingEnv env(base);
  ChunkStore store(env, "cp");
  std::vector<ChunkKey> keys;
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    keys.push_back(store_one_pack(store, epoch));
  }
  // First round may open packs; afterwards all four handles are hot.
  for (const ChunkKey& key : keys) {
    store.get(key);
  }
  const std::uint64_t warm = env.ranged_opens;
  for (int round = 0; round < 8; ++round) {
    for (const ChunkKey& key : keys) {
      EXPECT_EQ(store.get(key).size(), key.len);
    }
  }
  EXPECT_EQ(env.ranged_opens, warm)
      << "interleaved gets across <= 4 packs must not reopen files";
  EXPECT_EQ(store.stats().pack_handle_evictions, 0u);
}

TEST(Cas, PackHandleCacheEvictsLeastRecentlyUsed) {
  io::MemEnv base;
  CountingEnv env(base);
  ChunkStore store(env, "cp");
  std::vector<ChunkKey> keys;
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    keys.push_back(store_one_pack(store, epoch));
  }
  const std::uint64_t warm = env.ranged_opens;
  // Cycling six packs through four slots evicts on every get (LRU's
  // worst case) — the point is that eviction HAPPENS and is counted,
  // not that cycling is fast.
  for (int round = 0; round < 3; ++round) {
    for (const ChunkKey& key : keys) {
      EXPECT_EQ(store.get(key).size(), key.len);
    }
  }
  EXPECT_GT(env.ranged_opens, warm);
  EXPECT_GT(store.stats().pack_handle_evictions, 0u);
}

// ---------- the single-owner check ----------

TEST(Cas, SweepBetweenProbeAndRetainThrows) {
  // A sweep between a batch's probe and its retain could reap a chunk
  // the batch's file is about to name; the store refuses to run one.
  io::MemEnv env;
  ChunkStore store(env, "cp");
  const ChunkKey key = store_one_pack(store, 1);  // unreferenced
  auto batch = store.begin_batch(2);
  ASSERT_TRUE(batch->contains(key));
  EXPECT_THROW(store.sweep(/*compact=*/false), std::logic_error);
  EXPECT_THROW(store.sweep(/*compact=*/true), std::logic_error);
  store.retain(*batch);
  EXPECT_EQ(store.sweep(/*compact=*/true), 0u);
  EXPECT_EQ(store.get(key).size(), key.len);
}

TEST(Cas, ReleaseBetweenProbeAndRetainThrows) {
  io::MemEnv env;
  ChunkStore store(env, "cp");
  const ChunkKey key = store_one_pack(store, 1);
  auto first = store.begin_batch(2);
  ASSERT_TRUE(first->contains(key));
  store.retain(*first);
  auto second = store.begin_batch(3);
  ASSERT_TRUE(second->contains(key));
  EXPECT_THROW(store.release({key}), std::logic_error);
  EXPECT_EQ(store.ref_count(key), 1u);
  store.retain(*second);
  store.retain(*second);  // a second retain counts nothing
  EXPECT_EQ(store.ref_count(key), 2u);
  store.release({key});
  EXPECT_EQ(store.ref_count(key), 1u);
}

TEST(Cas, DroppedBatchNeedsNoRetain) {
  // A batch destroyed unretained is a dropped checkpoint: no file names
  // its references, so the sweep runs and reaps what only it probed.
  io::MemEnv env;
  ChunkStore store(env, "cp");
  const ChunkKey key = store_one_pack(store, 1);
  {
    auto batch = store.begin_batch(2);
    ASSERT_TRUE(batch->contains(key));
  }
  EXPECT_GT(store.sweep(/*compact=*/false), 0u);
  EXPECT_FALSE(store.contains(key));
}

TEST(Cas, PackFileNameRoundTrips) {
  EXPECT_EQ(pack_file_name(42), "pack-0000000042.qpak");
  EXPECT_EQ(parse_pack_file_name("pack-0000000042.qpak"), 42u);
  EXPECT_FALSE(parse_pack_file_name("pack-42.qpak").has_value());
  EXPECT_FALSE(parse_pack_file_name("ckpt-0000000042.qckp").has_value());
  EXPECT_FALSE(parse_pack_file_name("pack-00000000xx.qpak").has_value());
}

}  // namespace
}  // namespace qnn::ckpt

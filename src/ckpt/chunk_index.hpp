// ShardedChunkIndex: the concurrent chunk-metadata map behind ChunkStore.
//
// One logical map  ChunkKey -> {refs, pins, location}  split over
// kShardCount shards, each guarded by its own mutex, with keys placed
// by a mixed hash of the content digest. Dedup probes from the encode
// pipeline (pin_and_probe) touch exactly one shard lock and no
// store-level state, so concurrent encoders scale past a single core —
// the point of the sharding. Refcounts, pins and residency live in ONE
// entry per key so the operations that must be atomic per key (pin
// then probe; liveness check then location erase) are atomic under a
// single shard lock.
//
// Lock order (the store-wide rule, documented on ChunkStore):
//     ChunkStore::mu_  ->  shard mutex (one, or all ascending)
// Nothing here ever takes mu_, so taking a shard lock while holding
// mu_ is always safe and the reverse never happens. AllShards acquires
// every shard in ascending index order; per-key methods would
// self-deadlock while it is held, so it exposes its own accessors.
//
// An entry is kept only while it carries information (refs, pins, or a
// pack location); every mutating method erases entries that drop to
// all-zero, so the index never outgrows the live key population.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "ckpt/format.hpp"

namespace qnn::ckpt {

class ShardedChunkIndex {
 public:
  static constexpr std::size_t kShardCount = 16;
  static constexpr std::int32_t kNoPack = -1;

  /// Where a resident chunk's record lives: interned pack id (the
  /// store's table maps it to a pack name) + record index in the pack.
  struct Location {
    std::int32_t pack = kNoPack;
    std::uint32_t record = 0;
  };

  // --- hot path: one shard lock each -----------------------------------

  /// Adds a pin AND reports residency under one shard lock — the
  /// atomicity the dedup protocol needs: a sweep serialised after this
  /// call sees the pin (chunk survives); one serialised before it has
  /// already erased the location (probe misses, chunk is re-stored).
  bool pin_and_probe(const ChunkKey& key) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    Entry& e = s.map[key];
    ++e.pins;
    return e.pack != kNoPack;
  }

  void unpin(const ChunkKey& key) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second.pins == 0) {
      return;
    }
    --it->second.pins;
    erase_if_empty(s, it);
  }

  [[nodiscard]] bool resident(const ChunkKey& key) const {
    const Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    return it != s.map.end() && it->second.pack != kNoPack;
  }

  [[nodiscard]] std::optional<Location> location(const ChunkKey& key) const {
    const Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second.pack == kNoPack) {
      return std::nullopt;
    }
    return Location{it->second.pack, it->second.record};
  }

  [[nodiscard]] std::uint64_t ref_count(const ChunkKey& key) const {
    const Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    return it == s.map.end() ? 0 : it->second.refs;
  }

  void add_ref(const ChunkKey& key) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    ++s.map[key].refs;
  }

  /// Drops one reference if any is held (references rebuilt without
  /// this key are silently ignored, like the old map semantics).
  void release_ref(const ChunkKey& key) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second.refs == 0) {
      return;
    }
    --it->second.refs;
    erase_if_empty(s, it);
  }

  /// Installs a location unless the key is already resident elsewhere
  /// (first pack wins, like the old index). True when the key became
  /// resident — the caller's distinct-chunk counter.
  bool set_location_if_absent(const ChunkKey& key, std::int32_t pack,
                              std::uint32_t record) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    Entry& e = s.map[key];
    if (e.pack != kNoPack) {
      return false;
    }
    e.pack = pack;
    e.record = record;
    return true;
  }

  /// Clears the location if (and only if) it points into `pack`. True
  /// when a location was erased.
  bool erase_location_if(const ChunkKey& key, std::int32_t pack) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    return erase_location_if_impl(s, key, pack);
  }

  // --- whole-index operations ------------------------------------------

  /// RAII lock over every shard, ascending order. While held, the
  /// per-key methods above would self-deadlock — use the accessors on
  /// this object. The sweep holds one across liveness-check + location
  /// erase (+ compacted-pack install) so no probe can pin a chunk
  /// between "judged dead" and "gone from the index".
  class AllShards {
   public:
    explicit AllShards(ShardedChunkIndex& index) : index_(index) {
      for (Shard& s : index_.shards_) {
        s.mu.lock();
      }
    }
    ~AllShards() {
      for (Shard& s : index_.shards_) {
        s.mu.unlock();
      }
    }
    AllShards(const AllShards&) = delete;
    AllShards& operator=(const AllShards&) = delete;

    [[nodiscard]] bool is_live(const ChunkKey& key) const {
      const Shard& s = index_.shard_for(key);
      const auto it = s.map.find(key);
      return it != s.map.end() &&
             (it->second.refs != 0 || it->second.pins != 0);
    }

    bool erase_location_if(const ChunkKey& key, std::int32_t pack) {
      Shard& s = index_.shard_for(key);
      return index_.erase_location_if_impl(s, key, pack);
    }

    /// Re-points a key already resident in `pack` at a new record index
    /// (compaction rewrote the pack).
    void repoint_record(const ChunkKey& key, std::int32_t pack,
                        std::uint32_t record) {
      Shard& s = index_.shard_for(key);
      const auto it = s.map.find(key);
      if (it != s.map.end() && it->second.pack == pack) {
        it->second.record = record;
      }
    }

   private:
    ShardedChunkIndex& index_;
  };

  /// Replaces ALL reference counts with `counts` (the open-time
  /// rebuild), preserving pins and residency. Counts may name keys that
  /// are not resident (references into still-deferred cold packs).
  void reset_refs(const std::map<ChunkKey, std::uint64_t>& counts) {
    AllShards all(*this);
    for (Shard& s : shards_) {
      for (auto it = s.map.begin(); it != s.map.end();) {
        it->second.refs = 0;
        if (entry_empty(it->second)) {
          it = s.map.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& [key, count] : counts) {
      if (count != 0) {
        shard_for(key).map[key].refs = count;
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t refs = 0;
    std::uint64_t pins = 0;
    std::int32_t pack = kNoPack;
    std::uint32_t record = 0;
  };

  struct KeyHash {
    std::size_t operator()(const ChunkKey& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.crc) << 32) ^
                        (k.len * 0x9E3779B97F4A7C15ull);
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 32;
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ChunkKey, Entry, KeyHash> map;
  };

  static bool entry_empty(const Entry& e) {
    return e.refs == 0 && e.pins == 0 && e.pack == kNoPack;
  }

  void erase_if_empty(Shard& s,
                      std::unordered_map<ChunkKey, Entry, KeyHash>::iterator
                          it) {
    if (entry_empty(it->second)) {
      s.map.erase(it);
    }
  }

  bool erase_location_if_impl(Shard& s, const ChunkKey& key,
                              std::int32_t pack) {
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second.pack != pack) {
      return false;
    }
    it->second.pack = kNoPack;
    it->second.record = 0;
    erase_if_empty(s, it);
    return true;
  }

  Shard& shard_for(const ChunkKey& key) {
    return shards_[KeyHash{}(key) & (kShardCount - 1)];
  }
  const Shard& shard_for(const ChunkKey& key) const {
    return shards_[KeyHash{}(key) & (kShardCount - 1)];
  }

  Shard shards_[kShardCount];
};

}  // namespace qnn::ckpt

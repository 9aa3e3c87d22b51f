// Set-associative cache model with tree pseudo-LRU replacement.
//
// Models the SCC core caches the paper describes (Section II): 16 KB L1 and
// 256 KB L2, both 4-way set associative with pseudo-LRU replacement and
// write-back policy, 32-byte lines (P54C line size). The model is
// trace-driven: `access()` is called per memory reference and updates
// hit/miss/eviction statistics; it tracks tags and dirty bits only (no data),
// which is all the timing model needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace scc::cache {

struct CacheConfig {
  bytes_t size_bytes = 256 * 1024;
  bytes_t line_bytes = 32;
  int ways = 4;

  int sets() const {
    return static_cast<int>(size_bytes / (line_bytes * static_cast<bytes_t>(ways)));
  }

  /// Throws unless sizes are positive powers of two and consistent.
  void validate() const;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;

  std::uint64_t hits() const { return read_hits + write_hits; }
  std::uint64_t misses() const { return read_misses + write_misses; }
  std::uint64_t accesses() const { return hits() + misses(); }
  double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses()) / static_cast<double>(accesses());
  }

  CacheStats& operator+=(const CacheStats& other);
};

/// Outcome of a single cache access, consumed by the next level / the timing
/// model.
struct AccessResult {
  bool hit = false;
  bool evicted_dirty = false;        ///< a dirty victim line must be written back
  std::uint64_t victim_address = 0;  ///< base address of the victim line (valid
                                     ///< only when evicted_dirty)
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `address`; on miss, fill the line (allocate-on-write policy,
  /// matching the write-back L2 the paper describes) evicting the
  /// pseudo-LRU way. Defined inline below: this is the innermost call of the
  /// trace replay (3-4 invocations per nonzero) and must inline into
  /// detail::Tracker::access.
  AccessResult access(std::uint64_t address, bool is_write);

  /// Invalidate everything (the SCC has no coherence; software flushes).
  /// Dirty lines are counted as writebacks, as a software flush would cause.
  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// True if the line containing `address` is currently resident (test hook).
  bool contains(std::uint64_t address) const;

 private:
  std::size_t victim_way(std::size_t set) const;

  static constexpr std::uint64_t kEmpty = ~0ULL;  ///< tag of an invalid way

  /// A set's latest access: its line and the slot that line occupies.
  struct LastAccess {
    std::uint64_t line = kEmpty;  ///< no line: a line number is < 2^63
    std::size_t slot = 0;
  };

  CacheConfig config_;
  // Hoisted per-access invariants: recomputing these (countr_zero over the
  // set count / associativity) on every reference costs measurably in the
  // trace-replay hot loop.
  std::size_t ways_;
  int line_shift_;
  int tag_shift_;  ///< countr_zero(sets): line -> tag
  int way_shift_;  ///< countr_zero(ways): set -> first slot, PLRU tree depth
  std::uint64_t set_mask_;
  // tag per (set, way); kEmpty means invalid. Dirty bits packed separately.
  // The valid ways of a set always form a prefix: a fill takes the first
  // empty way and only flush() empties, all at once.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> dirty_;
  // Tree pseudo-LRU state: (ways-1) heap-indexed node bits per set. Each
  // node bit points toward the less recently used side.
  std::vector<std::uint32_t> plru_;
  // Touching way w clears the node bits on its root-to-leaf path
  // (plru_keep_[w]) and sets those where the path went left, so the node
  // points right, away from w (plru_set_[w]).
  std::vector<std::uint32_t> plru_keep_;
  std::vector<std::uint32_t> plru_set_;
  std::vector<LastAccess> last_;  ///< per set
  CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Hot path, kept in the header so the whole Tracker::access chain
// (TLB -> L1 -> L2) inlines into the trace loops.

inline std::size_t Cache::victim_way(std::size_t set) const {
  // Walk the pseudo-LRU tree from the root, following each node's bit.
  const std::uint32_t bits = plru_[set];
  std::size_t node = 0;
  for (int level = 0; level < way_shift_; ++level) node = 2 * node + 1 + ((bits >> node) & 1U);
  return node - (ways_ - 1);
}

inline AccessResult Cache::access(std::uint64_t address, bool is_write) {
  const std::uint64_t line = address >> line_shift_;
  const auto set = static_cast<std::size_t>(line & set_mask_);

  // Repeat filter: the set's latest access left its line in the MRU way,
  // and touching the MRU way of a tree-PLRU set again leaves every tree bit
  // as it is. So a repeat changes only the hit count and the dirty bit --
  // exactly what the full lookup below would do. The unit-stride streams of
  // the SpMV kernels take this path on most references.
  LastAccess& last = last_[set];
  if (last.line == line) {
    if (is_write) {
      dirty_[last.slot] = 1;
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
    return AccessResult{.hit = true, .evicted_dirty = false};
  }

  const std::uint64_t tag = line >> tag_shift_;
  const std::size_t base = set << way_shift_;
  const std::uint64_t* const tags = tags_.data() + base;

  // One scan: stop at the line or at the first empty way. Valid ways form a
  // prefix, so no resident tag lies beyond an empty way.
  std::size_t way = 0;
  while (way < ways_ && tags[way] != tag && tags[way] != kEmpty) ++way;

  AccessResult result;
  if (way < ways_ && tags[way] == tag) {
    result.hit = true;
    if (is_write) {
      dirty_[base + way] = 1;
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
  } else {
    if (way == ways_) {
      way = victim_way(set);
      ++stats_.evictions;
      if (dirty_[base + way] != 0) {
        result.evicted_dirty = true;
        ++stats_.dirty_writebacks;
        const std::uint64_t victim_line = (tags[way] << tag_shift_) | set;
        result.victim_address = victim_line << line_shift_;
      }
    }
    tags_[base + way] = tag;
    dirty_[base + way] = is_write ? 1 : 0;
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
  }
  plru_[set] = (plru_[set] & plru_keep_[way]) | plru_set_[way];
  last = LastAccess{line, base + way};
  return result;
}

}  // namespace scc::cache

#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace scc::cache {
namespace {

CacheConfig tiny() {
  // 4 sets x 4 ways x 32B lines = 512 B: easy to reason about evictions.
  return CacheConfig{.size_bytes = 512, .line_bytes = 32, .ways = 4};
}

/// The cache model as it stood before its lookup was optimised, kept
/// verbatim as the executable specification: two scans (hit, then first
/// empty way) and a tree walk for every PLRU touch and victim choice. The
/// optimised `Cache` must reproduce every AccessResult and statistic of it.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {
    config_.validate();
    sets_ = config_.sets();
    line_shift_ = std::countr_zero(config_.line_bytes);
    tag_shift_ = std::countr_zero(static_cast<std::uint64_t>(sets_));
    plru_levels_ = std::countr_zero(static_cast<unsigned>(config_.ways));
    set_mask_ = static_cast<std::uint64_t>(sets_) - 1;
    const std::size_t slots =
        static_cast<std::size_t>(sets_) * static_cast<std::size_t>(config_.ways);
    tags_.assign(slots, kEmpty);
    dirty_.assign(slots, 0);
    plru_.assign(static_cast<std::size_t>(sets_), 0);
  }

  AccessResult access(std::uint64_t address, bool is_write) {
    const std::uint64_t line = address >> line_shift_;
    const int set = static_cast<int>(line & set_mask_);
    const std::uint64_t tag = line >> tag_shift_;
    const std::size_t base =
        static_cast<std::size_t>(set) * static_cast<std::size_t>(config_.ways);
    for (int w = 0; w < config_.ways; ++w) {
      if (tags_[base + static_cast<std::size_t>(w)] == tag) {
        touch(set, w);
        if (is_write) {
          dirty_[base + static_cast<std::size_t>(w)] = 1;
          ++stats_.write_hits;
        } else {
          ++stats_.read_hits;
        }
        return AccessResult{.hit = true, .evicted_dirty = false};
      }
    }
    int way = -1;
    for (int w = 0; w < config_.ways; ++w) {
      if (tags_[base + static_cast<std::size_t>(w)] == kEmpty) {
        way = w;
        break;
      }
    }
    bool evicted_dirty = false;
    std::uint64_t victim_address = 0;
    if (way < 0) {
      way = victim_way(set);
      ++stats_.evictions;
      if (dirty_[base + static_cast<std::size_t>(way)] != 0) {
        evicted_dirty = true;
        ++stats_.dirty_writebacks;
        const std::uint64_t victim_tag = tags_[base + static_cast<std::size_t>(way)];
        const std::uint64_t victim_line =
            (victim_tag << tag_shift_) | static_cast<std::uint64_t>(set);
        victim_address = victim_line << line_shift_;
      }
    }
    tags_[base + static_cast<std::size_t>(way)] = tag;
    dirty_[base + static_cast<std::size_t>(way)] = is_write ? 1 : 0;
    touch(set, way);
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
    return AccessResult{
        .hit = false, .evicted_dirty = evicted_dirty, .victim_address = victim_address};
  }

  void flush() {
    for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
      if (tags_[slot] != kEmpty && dirty_[slot] != 0) ++stats_.dirty_writebacks;
      tags_[slot] = kEmpty;
      dirty_[slot] = 0;
    }
    std::fill(plru_.begin(), plru_.end(), 0U);
  }

  const CacheStats& stats() const { return stats_; }

 private:
  int victim_way(int set) const {
    const std::uint32_t bits = plru_[static_cast<std::size_t>(set)];
    const int ways = config_.ways;
    int node = 0;
    while (node < ways - 1) {
      const int bit = static_cast<int>((bits >> node) & 1U);
      node = 2 * node + 1 + bit;
    }
    return node - (ways - 1);
  }

  void touch(int set, int way) {
    std::uint32_t& bits = plru_[static_cast<std::size_t>(set)];
    int node = 0;
    for (int level = plru_levels_ - 1; level >= 0; --level) {
      const int branch = (way >> level) & 1;
      if (branch == 0) {
        bits |= (1U << node);
      } else {
        bits &= ~(1U << node);
      }
      node = 2 * node + 1 + branch;
    }
  }

  static constexpr std::uint64_t kEmpty = ~0ULL;
  CacheConfig config_;
  int sets_ = 0;
  int line_shift_ = 0;
  int tag_shift_ = 0;
  int plru_levels_ = 0;
  std::uint64_t set_mask_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> plru_;
  CacheStats stats_;
};

/// Seeded mixed reference stream: a few unit-stride cursors (the CSR
/// col/val/y pattern), scattered reads over a window four times the cache
/// (the x pattern), repeats of the previous address, ~30% writes and a rare
/// flush. Returns the address, or ~0 for "flush now".
class MixedStream {
 public:
  MixedStream(const CacheConfig& config, std::uint64_t seed)
      : rng_(seed), window_(4 * config.size_bytes), step_(config.line_bytes / 4) {
    for (std::size_t s = 0; s < cursors_.size(); ++s) {
      cursors_[s] = (static_cast<std::uint64_t>(s) + 1) << 32;
    }
  }

  static constexpr std::uint64_t kFlush = ~0ULL;

  std::uint64_t next(bool& is_write) {
    is_write = rng_.bernoulli(0.3);
    const std::uint64_t pick = rng_.uniform(1000);
    if (pick == 0) return kFlush;
    if (pick < 500) {
      std::uint64_t& cursor = cursors_[pick % cursors_.size()];
      cursor += step_ == 0 ? 1 : step_;
      return last_ = cursor;
    }
    if (pick < 600) return last_;
    return last_ = rng_.uniform(window_);
  }

 private:
  Rng rng_;
  std::uint64_t window_;
  std::uint64_t step_;
  std::array<std::uint64_t, 3> cursors_{};
  std::uint64_t last_ = 0;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want, const std::string& where) {
  EXPECT_EQ(got.read_hits, want.read_hits) << where;
  EXPECT_EQ(got.read_misses, want.read_misses) << where;
  EXPECT_EQ(got.write_hits, want.write_hits) << where;
  EXPECT_EQ(got.write_misses, want.write_misses) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
  EXPECT_EQ(got.dirty_writebacks, want.dirty_writebacks) << where;
}

void check_against_reference(const CacheConfig& config, std::uint64_t seed) {
  Cache cache(config);
  ReferenceCache reference(config);
  MixedStream stream(config, seed);
  const std::string where = "ways=" + std::to_string(config.ways) +
                            " line=" + std::to_string(config.line_bytes) +
                            " seed=" + std::to_string(seed);
  for (int i = 0; i < 200000; ++i) {
    bool is_write = false;
    const std::uint64_t address = stream.next(is_write);
    if (address == MixedStream::kFlush) {
      cache.flush();
      reference.flush();
      continue;
    }
    const AccessResult got = cache.access(address, is_write);
    const AccessResult want = reference.access(address, is_write);
    ASSERT_EQ(got.hit, want.hit) << where << " access " << i;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << where << " access " << i;
    if (want.evicted_dirty) {
      ASSERT_EQ(got.victim_address, want.victim_address) << where << " access " << i;
    }
  }
  expect_same_stats(cache.stats(), reference.stats(), where);
}

class CacheReferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheReferenceSweep, MatchesReferenceModelAccessForAccess) {
  const int ways = GetParam();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    check_against_reference(CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = ways},
                            seed);
    check_against_reference(CacheConfig{.size_bytes = 2048, .line_bytes = 32, .ways = ways},
                            seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheReferenceSweep, ::testing::Values(1, 2, 4, 8, 16));

TEST(CacheReference, TlbGeometryMatchesReferenceModel) {
  // The P54C data TLB as the Tlb class configures it: 64 entries, 4 ways,
  // 4 KB pages.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    check_against_reference(CacheConfig{.size_bytes = 64 * 4096, .line_bytes = 4096, .ways = 4},
                            seed);
  }
}

TEST(CacheConfig, SccDefaultsValidate) {
  CacheConfig l1{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 32, .ways = 4};
  EXPECT_NO_THROW(l1.validate());
  EXPECT_NO_THROW(l2.validate());
  EXPECT_EQ(l1.sets(), 128);
  EXPECT_EQ(l2.sets(), 2048);
}

TEST(CacheConfig, RejectsNonPowerOfTwo) {
  EXPECT_THROW((CacheConfig{.size_bytes = 500, .line_bytes = 32, .ways = 4}).validate(),
               std::invalid_argument);
  EXPECT_THROW((CacheConfig{.size_bytes = 512, .line_bytes = 24, .ways = 4}).validate(),
               std::invalid_argument);
  EXPECT_THROW((CacheConfig{.size_bytes = 512, .line_bytes = 32, .ways = 3}).validate(),
               std::invalid_argument);
}

TEST(CacheConfig, RejectsDegenerateGeometry) {
  // One-byte lines would let a real tag collide with the invalid-way marker;
  // more than 32 ways overflow the PLRU tree word.
  EXPECT_THROW((CacheConfig{.size_bytes = 512, .line_bytes = 1, .ways = 4}).validate(),
               std::invalid_argument);
  EXPECT_THROW((CacheConfig{.size_bytes = 64 * 32 * 4, .line_bytes = 32, .ways = 64}).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW((CacheConfig{.size_bytes = 32 * 32, .line_bytes = 32, .ways = 32}).validate());
}

TEST(Cache, ColdMissThenHit) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_EQ(c.stats().read_misses, 1u);
  EXPECT_EQ(c.stats().read_hits, 1u);
}

TEST(Cache, SameLineDifferentOffsetHits) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101f, false).hit);   // last byte of the same 32B line
  EXPECT_FALSE(c.access(0x1020, false).hit);  // next line
}

TEST(Cache, AssociativityHoldsFourWays) {
  Cache c(tiny());
  // Four addresses mapping to set 0 (stride = sets*line = 128).
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(c.access(i * 128, false).hit);
  }
  // All four still resident.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.access(i * 128, false).hit) << i;
  }
}

TEST(Cache, FifthWayEvicts) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 5; ++i) c.access(i * 128, false);
  EXPECT_EQ(c.stats().evictions, 1u);
  // The newest line is resident; at least one old line was evicted.
  EXPECT_TRUE(c.contains(4 * 128));
}

TEST(Cache, PseudoLruVictimIsNotMostRecent) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * 128, false);
  // Touch line 3 so it is MRU, then force an eviction.
  c.access(3 * 128, false);
  c.access(4 * 128, false);
  EXPECT_TRUE(c.contains(3 * 128));  // MRU must survive tree-PLRU
}

TEST(Cache, PseudoLruApproximatesLruOnSequentialFill) {
  Cache c(tiny());
  // Fill ways in order 0..3; with tree-PLRU the victim is then way 0's line.
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * 128, false);
  c.access(4 * 128, false);
  EXPECT_FALSE(c.contains(0 * 128));
}

TEST(Cache, WriteMissAllocates) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x40, true).hit);
  EXPECT_TRUE(c.access(0x40, false).hit);
  EXPECT_EQ(c.stats().write_misses, 1u);
}

TEST(Cache, DirtyEvictionReportsVictim) {
  Cache c(tiny());
  c.access(0, true);  // dirty line in set 0
  for (std::uint64_t i = 1; i < 4; ++i) c.access(i * 128, false);
  // Evict through set 0; the dirty line is the PLRU victim.
  const AccessResult r = c.access(4 * 128, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.victim_address, 0u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 5; ++i) c.access(i * 128, false);
  EXPECT_EQ(c.stats().dirty_writebacks, 0u);
}

TEST(Cache, VictimAddressReconstruction) {
  Cache c(tiny());
  const std::uint64_t addr = 3 * 128 + 64;  // set 2, some tag
  c.access(addr, true);
  // Fill set 2 (addresses with same set index): stride 128 from base 64.
  for (std::uint64_t i = 1; i < 4; ++i) c.access(64 + (3 + i) * 128, false);
  const AccessResult r = c.access(64 + 8 * 128, false);
  ASSERT_TRUE(r.evicted_dirty);
  // Victim line base = original address rounded down to the line.
  EXPECT_EQ(r.victim_address, (addr / 32) * 32);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(tiny());
  c.access(0x100, false);
  c.access(0x200, true);
  c.flush();
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.contains(0x200));
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);  // the dirty line
}

TEST(Cache, MissRateComputation) {
  Cache c(tiny());
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.25);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(tiny());
  c.access(0x1000, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_TRUE(c.contains(0x1000));
}

TEST(Cache, StreamingMissRateMatchesLineSize) {
  // Sequential byte stream: one miss per 32-byte line.
  Cache c(CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4});
  const int bytes = 8192;
  for (int i = 0; i < bytes; i += 8) c.access(static_cast<std::uint64_t>(i), false);
  EXPECT_EQ(c.stats().misses(), static_cast<std::uint64_t>(bytes / 32));
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(tiny());  // 512 B
  // Two passes over 4 KB: pass 2 hits nothing (capacity misses).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 4096; a += 32) c.access(a, false);
  }
  EXPECT_EQ(c.stats().hits(), 0u);
}

TEST(Cache, WorkingSetSmallerThanCacheHitsOnSecondPass) {
  Cache c(CacheConfig{.size_bytes = 4096, .line_bytes = 32, .ways = 4});
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 2048; a += 32) c.access(a, false);
  }
  EXPECT_EQ(c.stats().hits(), 64u);
  EXPECT_EQ(c.stats().misses(), 64u);
}

TEST(CacheStats, Accumulation) {
  CacheStats a{.read_hits = 1, .read_misses = 2, .write_hits = 3, .write_misses = 4,
               .evictions = 5, .dirty_writebacks = 6};
  CacheStats b = a;
  b += a;
  EXPECT_EQ(b.read_hits, 2u);
  EXPECT_EQ(b.misses(), 12u);
  EXPECT_EQ(b.dirty_writebacks, 12u);
}

/// Associativity sweep: a 2^k-line working set fits exactly for every
/// power-of-two associativity.
class CacheWaysSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheWaysSweep, FullOccupancyNoEvictions) {
  const int ways = GetParam();
  Cache c(CacheConfig{.size_bytes = 2048, .line_bytes = 32, .ways = ways});
  const int lines = 2048 / 32;
  for (int i = 0; i < lines; ++i) c.access(static_cast<std::uint64_t>(i) * 32, false);
  EXPECT_EQ(c.stats().evictions, 0u);
  for (int i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(i) * 32)) << "line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWaysSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace scc::cache

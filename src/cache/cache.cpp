#include "cache/cache.hpp"

#include <algorithm>
#include <bit>

namespace scc::cache {

void CacheConfig::validate() const {
  // Two bytes at least keep every line number below 2^63, so no tag (or
  // line) of a real address equals the kEmpty marker.
  SCC_REQUIRE(line_bytes > 1 && std::has_single_bit(line_bytes),
              "cache line size must be a power of two of at least 2 bytes, got " << line_bytes);
  SCC_REQUIRE(ways > 0 && std::has_single_bit(static_cast<unsigned>(ways)),
              "associativity must be a power of two, got " << ways);
  SCC_REQUIRE(ways <= 32, "associativity above 32 does not fit the PLRU tree bits, got " << ways);
  SCC_REQUIRE(size_bytes > 0 && size_bytes % (line_bytes * static_cast<bytes_t>(ways)) == 0,
              "cache size " << size_bytes << " not divisible by ways*line");
  SCC_REQUIRE(std::has_single_bit(static_cast<bytes_t>(sets())),
              "number of sets must be a power of two, got " << sets());
}

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  read_hits += other.read_hits;
  read_misses += other.read_misses;
  write_hits += other.write_hits;
  write_misses += other.write_misses;
  evictions += other.evictions;
  dirty_writebacks += other.dirty_writebacks;
  return *this;
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  config_.validate();
  const auto sets = static_cast<std::size_t>(config_.sets());
  ways_ = static_cast<std::size_t>(config_.ways);
  line_shift_ = std::countr_zero(config_.line_bytes);
  tag_shift_ = std::countr_zero(sets);
  way_shift_ = std::countr_zero(ways_);
  set_mask_ = static_cast<std::uint64_t>(sets) - 1;
  tags_.assign(sets * ways_, kEmpty);
  dirty_.assign(sets * ways_, 0);
  plru_.assign(sets, 0);
  last_.assign(sets, LastAccess{});
  plru_keep_.assign(ways_, ~0U);
  plru_set_.assign(ways_, 0);
  for (std::size_t way = 0; way < ways_; ++way) {
    std::size_t node = 0;
    for (int level = way_shift_ - 1; level >= 0; --level) {
      const std::size_t branch = (way >> level) & 1U;
      plru_keep_[way] &= ~(1U << node);
      if (branch == 0) plru_set_[way] |= 1U << node;
      node = 2 * node + 1 + branch;
    }
  }
}

void Cache::flush() {
  for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
    if (tags_[slot] != kEmpty && dirty_[slot] != 0) {
      ++stats_.dirty_writebacks;
    }
    tags_[slot] = kEmpty;
    dirty_[slot] = 0;
  }
  std::fill(plru_.begin(), plru_.end(), 0U);
  std::fill(last_.begin(), last_.end(), LastAccess{});
}

bool Cache::contains(std::uint64_t address) const {
  const std::uint64_t line = address >> line_shift_;
  const std::uint64_t tag = line >> tag_shift_;
  const std::size_t base = static_cast<std::size_t>(line & set_mask_) << way_shift_;
  for (std::size_t way = 0; way < ways_; ++way) {
    if (tags_[base + way] == tag) return true;
  }
  return false;
}

}  // namespace scc::cache

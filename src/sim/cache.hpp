/**
 * @file
 * Set-associative cache model with LRU replacement and per-block
 * prefetch bits, used for all three levels of the hierarchy.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stat_registry.hpp"
#include "util/types.hpp"

namespace voyager::sim {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t latency = 3;  ///< access latency in cycles

    std::uint64_t num_sets() const
    {
        return size_bytes / (kLineSize * assoc);
    }
};

/** Aggregate counters for one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t useful_prefetches = 0;      ///< demand hit on pf block
    std::uint64_t evicted_unused_prefetches = 0;

    double
    miss_rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Export one level's counters into `reg` under `<prefix>.`. */
void export_cache_stats(StatRegistry &reg, const std::string &prefix,
                        const CacheStats &s);

/**
 * A set-associative cache over line addresses with true LRU
 * replacement (the CRC2/ChampSim default). Tracks per-block prefetch
 * bits so the hierarchy can compute prefetch accuracy (useful vs.
 * evicted-unused).
 *
 * State is kept per way in flat arrays (tag, LRU stamp, prefetch bit),
 * row-major by set, so a probe walks one dense run of tags. An
 * invalid way holds the tag kNoEviction and LRU stamp 0; line
 * ~0 is reserved for that, and callers never pass it (demand lines are
 * addresses shifted right by kLineBits, and MemoryHierarchy drops
 * prefetch candidates that wrapped to it). The set count must be a
 * power of two: sets are indexed by `line & (sets - 1)`.
 */
class Cache
{
  public:
    /** @throws std::invalid_argument naming the bad field. */
    explicit Cache(const CacheConfig &cfg);

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Demand access to a line. On a hit to a prefetched block the
     * prefetch bit is consumed and counted useful.
     * @return true on hit.
     */
    bool access(Addr line);

    /**
     * Install a line (demand fill or prefetch fill). Evicts the
     * least recently used way, empty ways first.
     * @param prefetched marks the block as brought in by a prefetch.
     * @return the evicted line address, or kNoEviction.
     */
    Addr fill(Addr line, bool prefetched);

    /**
     * access(line), then on a miss fill(line, false), in one probe of
     * the set: the demand path of a level whose set nothing else
     * touches between its miss and its fill.
     * @return true on hit.
     */
    bool access_or_fill(Addr line);

    /** Probe without updating LRU or stats. */
    bool contains(Addr line) const;

    /** Sentinel returned by fill() when no block was evicted; also
     *  the tag of an invalid way. */
    static constexpr Addr kNoEviction = ~0ull;

  private:
    /** First way of `line`'s set. */
    std::size_t set_base(Addr line) const
    {
        return static_cast<std::size_t>(line & set_mask_) * assoc_;
    }

    /** Way index of `line` in the set at `base`, or assoc_. */
    std::uint32_t find_way(std::size_t base, Addr line) const;
    std::uint32_t pick_victim(std::size_t base) const;
    /** Hit bookkeeping of access() for the way at index i. */
    void touch(std::size_t i);
    /** Install `line` (absent from the set at `base`) over a victim. */
    Addr install(std::size_t base, Addr line, bool prefetched);

    CacheConfig cfg_;
    std::uint32_t assoc_;
    Addr set_mask_;
    // One entry per way, sets * assoc, row-major by set.
    std::vector<Addr> tags_;               ///< kNoEviction = invalid
    std::vector<std::uint64_t> lru_;       ///< larger = newer; 0 = invalid
    std::vector<std::uint8_t> prefetched_;
    std::uint64_t lru_clock_ = 0;
    CacheStats stats_;
};

}  // namespace voyager::sim

/**
 * @file
 * Three-level cache hierarchy with a DRAM backend and an LLC-side
 * prefetcher hook, following the paper's Table 3 configuration. The
 * hierarchy models prefetch timeliness: fills that are still in flight
 * when the demand arrives give only partial latency benefit.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <queue>

#include "sim/cache.hpp"
#include "sim/dram.hpp"
#include "sim/prefetcher.hpp"
#include "trace/access.hpp"
#include "util/flat_hash.hpp"

namespace voyager::sim {

/** Full-hierarchy configuration (defaults = paper Table 3). */
struct HierarchyConfig
{
    CacheConfig l1{"L1D", 64 * 1024, 4, 3};
    CacheConfig l2{"L2", 512 * 1024, 8, 11};
    CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 20};
    DramConfig dram{};
    /** Cap on outstanding prefetch fills (MSHR-like). */
    std::uint32_t max_inflight_prefetches = 64;
    /** Upper bound on candidates accepted per trigger access. */
    std::uint32_t max_degree = 16;
};

/** Prefetching counters maintained by the hierarchy. */
struct PrefetchCounters
{
    std::uint64_t issued = 0;
    std::uint64_t late_useful = 0;   ///< demand arrived while in flight
    std::uint64_t dropped_inflight_full = 0;
};

/**
 * The L1D -> L2 -> LLC -> DRAM datapath.
 *
 * The prefetcher (if any) observes every demand LLC access and its
 * candidates are filled into the LLC. An optional observer receives the
 * same LLC access stream; the neural trainer uses this to extract the
 * stream the paper's models are trained on.
 */
class MemoryHierarchy
{
  public:
    using LlcObserver = std::function<void(const LlcAccess &)>;

    MemoryHierarchy(const HierarchyConfig &cfg, Prefetcher *prefetcher);

    /** Process one demand access; @return load-to-use latency. */
    std::uint32_t access(const trace::MemoryAccess &a, Cycle now);

    void set_llc_observer(LlcObserver obs) { observer_ = std::move(obs); }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }
    const Dram &dram() const { return dram_; }
    const PrefetchCounters &prefetch_counters() const { return pf_; }
    std::uint64_t llc_demand_accesses() const { return llc_index_; }

    /** Useful prefetches = in-cache useful + late in-flight hits. */
    std::uint64_t useful_prefetches() const;
    /** LLC demand misses not covered by any prefetch. */
    std::uint64_t uncovered_misses() const;
    /** accuracy = useful / issued. */
    double prefetch_accuracy() const;
    /** coverage = useful / (useful + uncovered misses). */
    double prefetch_coverage() const;

  private:
    void drain_inflight(Cycle now);
    void issue_prefetches(const LlcAccess &trigger, Cycle now);

    HierarchyConfig cfg_;
    Cache l1_;
    Cache l2_;
    Cache llc_;
    Dram dram_;
    Prefetcher *prefetcher_;
    LlcObserver observer_;
    PrefetchCounters pf_;
    std::uint64_t llc_index_ = 0;

    /** In-flight prefetch fills: line -> ready cycle. Never iterated. */
    FlatHashMap<Addr, Cycle> inflight_;
    /** Completion order queue for lazy draining. */
    std::priority_queue<std::pair<Cycle, Addr>,
                        std::vector<std::pair<Cycle, Addr>>,
                        std::greater<>> inflight_queue_;
};

}  // namespace voyager::sim

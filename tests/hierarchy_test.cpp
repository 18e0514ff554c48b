/**
 * @file
 * Tests for the three-level hierarchy: fill paths, the LLC observer,
 * prefetch usefulness/lateness accounting, and accuracy/coverage math.
 */
#include <gtest/gtest.h>

#include <vector>

#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"

namespace voyager::sim {
namespace {

trace::MemoryAccess
load(std::uint64_t id, Addr line)
{
    return {id, 0x400000, line << kLineBits, true};
}

/** Prefetcher issuing a fixed candidate once. */
class OneShot final : public Prefetcher
{
  public:
    explicit OneShot(Addr cand) : cand_(cand) {}
    std::string name() const override { return "oneshot"; }
    std::vector<Addr>
    on_access(const LlcAccess &) override
    {
        if (fired_)
            return {};
        fired_ = true;
        return {cand_};
    }

  private:
    Addr cand_;
    bool fired_ = false;
};

TEST(Hierarchy, MissFillsAllLevels)
{
    HierarchyConfig cfg;
    MemoryHierarchy mem(cfg, nullptr);
    const auto lat1 = mem.access(load(0, 1000), 0);
    // Full path: L1 + L2 + LLC + DRAM.
    EXPECT_GT(lat1, cfg.l1.latency + cfg.l2.latency + cfg.llc.latency);
    // Second access hits L1.
    const auto lat2 = mem.access(load(1, 1000), 200);
    EXPECT_EQ(lat2, cfg.l1.latency);
    EXPECT_EQ(mem.l1().stats().hits, 1u);
    EXPECT_EQ(mem.llc().stats().misses, 1u);
}

TEST(Hierarchy, L2HitDoesNotReachLlc)
{
    HierarchyConfig cfg;
    cfg.l1 = {"L1", kLineSize * 4, 1, 3};  // 4-set direct-mapped L1
    MemoryHierarchy mem(cfg, nullptr);
    mem.access(load(0, 8), 0);
    mem.access(load(1, 12), 100);  // evicts line 8 from tiny L1 (set 0)
    const auto llc_before = mem.llc().stats().accesses;
    mem.access(load(2, 8), 200);   // L1 miss, L2 hit
    EXPECT_EQ(mem.llc().stats().accesses, llc_before);
}

TEST(Hierarchy, ObserverSeesDemandLlcAccesses)
{
    HierarchyConfig cfg;
    std::vector<LlcAccess> seen;
    MemoryHierarchy mem(cfg, nullptr);
    mem.set_llc_observer([&seen](const LlcAccess &a) {
        seen.push_back(a);
    });
    mem.access(load(0, 1), 0);
    mem.access(load(1, 1), 100);  // L1 hit: not an LLC access
    mem.access(load(2, 2), 200);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].line, 1u);
    EXPECT_EQ(seen[0].index, 0u);
    EXPECT_EQ(seen[1].line, 2u);
    EXPECT_EQ(seen[1].index, 1u);
    EXPECT_FALSE(seen[0].hit);
}

TEST(Hierarchy, TimelyPrefetchCountsUseful)
{
    HierarchyConfig cfg;
    OneShot pf(500);
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);         // triggers prefetch of 500
    mem.access(load(1, 500), 100000);  // long after the fill landed
    EXPECT_EQ(mem.prefetch_counters().issued, 1u);
    EXPECT_EQ(mem.useful_prefetches(), 1u);
    EXPECT_EQ(mem.prefetch_counters().late_useful, 0u);
    EXPECT_DOUBLE_EQ(mem.prefetch_accuracy(), 1.0);
}

TEST(Hierarchy, LatePrefetchCountsLateUseful)
{
    HierarchyConfig cfg;
    OneShot pf(500);
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);
    mem.access(load(1, 500), 1);  // demand arrives while in flight
    EXPECT_EQ(mem.prefetch_counters().late_useful, 1u);
    EXPECT_EQ(mem.useful_prefetches(), 1u);
}

TEST(Hierarchy, LatePrefetchChargesPartialLatency)
{
    HierarchyConfig cfg;
    OneShot pf(500);
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);
    const auto late_lat = mem.access(load(1, 500), 30);

    OneShot pf2(999999);  // unrelated candidate
    MemoryHierarchy mem2(cfg, &pf2);
    mem2.access(load(0, 1), 0);
    const auto full_lat = mem2.access(load(1, 500), 30);
    EXPECT_LT(late_lat, full_lat);
}

TEST(Hierarchy, UselessPrefetchLowersAccuracy)
{
    HierarchyConfig cfg;
    OneShot pf(12345);
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);
    mem.access(load(1, 2), 100000);
    EXPECT_EQ(mem.prefetch_counters().issued, 1u);
    EXPECT_EQ(mem.useful_prefetches(), 0u);
    EXPECT_DOUBLE_EQ(mem.prefetch_accuracy(), 0.0);
}

TEST(Hierarchy, RedundantPrefetchNotIssued)
{
    HierarchyConfig cfg;
    OneShot pf(1);  // the line being demanded right now
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);
    EXPECT_EQ(mem.prefetch_counters().issued, 0u);
}

TEST(Hierarchy, DescendingStrideWrapsPastLineZero)
{
    HierarchyConfig cfg;
    prefetch::IpStride pf(/*degree=*/2);
    MemoryHierarchy mem(cfg, &pf);
    // Fill line ~0's LLC set (the last) so it has no empty way. The
    // strides between these lines all differ, so IpStride (per PC)
    // never gains confidence and issues nothing.
    const Addr sets = cfg.llc.num_sets();
    std::vector<Addr> filler;
    for (Addr k = 0, step = 0; filler.size() < cfg.llc.assoc; k += ++step)
        filler.push_back(k * sets + (sets - 1));
    Cycle now = 0;
    for (Addr line : filler) {
        mem.access({now, 0x500000, line << kLineBits, true}, now);
        now += 1000;
    }
    ASSERT_EQ(mem.prefetch_counters().issued, 0u);

    // Lines 4, 3, 2, 1 train stride -1 to the confidence threshold; at
    // line 1 the degree-2 candidates are line 0 and line 0 - 1, which
    // wraps to ~0, the invalid tag.
    for (Addr line : {4, 3, 2, 1}) {
        mem.access(load(now, line), now);
        now += 1000;
    }
    EXPECT_EQ(mem.prefetch_counters().issued, 1u);  // line 0 only
    // The prefetch of line 0 lands and serves the demand; line ~0's
    // set still holds every filler line.
    mem.access(load(now, 0), now + 100000);
    EXPECT_EQ(mem.useful_prefetches(), 1u);
    EXPECT_EQ(mem.llc().stats().prefetch_fills, 1u);
    for (Addr line : filler)
        EXPECT_TRUE(mem.llc().contains(line)) << line;
}

TEST(Hierarchy, CoverageMatchesDefinition)
{
    HierarchyConfig cfg;
    OneShot pf(500);
    MemoryHierarchy mem(cfg, &pf);
    mem.access(load(0, 1), 0);          // miss (uncovered)
    mem.access(load(1, 500), 100000);   // covered by prefetch
    mem.access(load(2, 900), 200000);   // miss (uncovered)
    // useful=1, uncovered misses = 2 (lines 1 and 900).
    EXPECT_DOUBLE_EQ(mem.prefetch_coverage(), 1.0 / 3.0);
}

TEST(Hierarchy, MaxDegreeCapsCandidates)
{
    HierarchyConfig cfg;
    cfg.max_degree = 2;

    class Flood final : public Prefetcher
    {
      public:
        std::string name() const override { return "flood"; }
        std::vector<Addr>
        on_access(const LlcAccess &a) override
        {
            std::vector<Addr> out;
            for (Addr k = 1; k <= 10; ++k)
                out.push_back(a.line + 1000 * k);
            return out;
        }
    } flood;

    MemoryHierarchy mem(cfg, &flood);
    mem.access(load(0, 1), 0);
    EXPECT_EQ(mem.prefetch_counters().issued, 2u);
}

TEST(Hierarchy, InflightCapDropsExcess)
{
    HierarchyConfig cfg;
    cfg.max_inflight_prefetches = 4;
    cfg.max_degree = 16;

    class Flood final : public Prefetcher
    {
      public:
        std::string name() const override { return "flood"; }
        std::vector<Addr>
        on_access(const LlcAccess &a) override
        {
            std::vector<Addr> out;
            for (Addr k = 1; k <= 16; ++k)
                out.push_back(a.line + 1000 * k);
            return out;
        }
    } flood;

    MemoryHierarchy mem(cfg, &flood);
    mem.access(load(0, 1), 0);
    EXPECT_EQ(mem.prefetch_counters().issued, 4u);
    EXPECT_GT(mem.prefetch_counters().dropped_inflight_full, 0u);
}

TEST(ReplayPrefetcher, IndexedPredictions)
{
    std::vector<std::vector<Addr>> preds = {{10}, {}, {20, 21}};
    ReplayPrefetcher rp("replay", preds, 1234);
    LlcAccess a;
    a.index = 0;
    EXPECT_EQ(rp.on_access(a), std::vector<Addr>{10});
    a.index = 1;
    EXPECT_TRUE(rp.on_access(a).empty());
    a.index = 2;
    EXPECT_EQ(rp.on_access(a).size(), 2u);
    a.index = 99;  // out of range
    EXPECT_TRUE(rp.on_access(a).empty());
    EXPECT_EQ(rp.storage_bytes(), 1234u);
}

}  // namespace
}  // namespace voyager::sim

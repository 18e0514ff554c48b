/**
 * @file
 * Pinned SimResults of the paper-scale hierarchy. The goldens run only
 * the tiny hierarchy, so these rows are what hold the 16-way,
 * 2048-set LLC (default_sim_config) and the scaled small hierarchy to
 * their counters, under every prefetcher perfbench's sim_rules runs.
 * The values were recorded from the simulator before its caches moved
 * to per-way arrays and its prefetcher tables to flat hash maps, and
 * must not change without a deliberate change to the simulated
 * machine.
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "prefetch/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager::sim {
namespace {

/** Counters in the order of PinnedRun::values. */
constexpr std::array<const char *, 20> kFields = {
    "instructions", "cycles", "llc_accesses", "llc_misses",
    "prefetches_issued", "prefetches_useful", "prefetches_late",
    "prefetches_dropped", "l1.hits", "l1.misses", "l2.hits", "l2.misses",
    "llc.hits", "llc.misses", "llc.prefetch_fills", "llc.useful_prefetches",
    "llc.evicted_unused_prefetches", "dram.requests", "dram.row_hits",
    "dram.total_latency",
};

struct PinnedRun
{
    const char *trace;
    const char *prefetcher;
    std::array<std::uint64_t, kFields.size()> values;
};

std::array<std::uint64_t, kFields.size()>
counters(const SimResult &r)
{
    return {r.instructions,
            r.cycles,
            r.llc_accesses,
            r.llc_misses,
            r.prefetches_issued,
            r.prefetches_useful,
            r.prefetches_late,
            r.prefetches_dropped,
            r.l1.hits,
            r.l1.misses,
            r.l2.hits,
            r.l2.misses,
            r.llc.hits,
            r.llc.misses,
            r.llc.prefetch_fills,
            r.llc.useful_prefetches,
            r.llc.evicted_unused_prefetches,
            r.dram.requests,
            r.dram.row_hits,
            r.dram.total_latency};
}

/** bfs and mcf at Scale::Small, seed 1, generated once. */
const trace::Trace &
small_trace(const std::string &name)
{
    static std::map<std::string, trace::Trace> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache
                 .emplace(name, trace::gen::make_workload(
                                    name, trace::gen::Scale::Small, 1))
                 .first;
    return it->second;
}

void
expect_pinned(const SimConfig &cfg, const PinnedRun &pin)
{
    SCOPED_TRACE(std::string(pin.trace) + "/" + pin.prefetcher);
    const trace::Trace &t = small_trace(pin.trace);
    auto pf = prefetch::make_prefetcher(pin.prefetcher, 1);
    const SimResult r = simulate(t, cfg, *pf);
    const auto got = counters(r);
    for (std::size_t f = 0; f < kFields.size(); ++f)
        EXPECT_EQ(got[f], pin.values[f]) << kFields[f];
    // What the rows leave implicit: every level's accesses split into
    // hits and misses, and only the LLC takes prefetches.
    EXPECT_EQ(r.l1.accesses, t.size());
    for (const CacheStats *s : {&r.l1, &r.l2, &r.llc})
        EXPECT_EQ(s->hits + s->misses, s->accesses);
    EXPECT_EQ(r.l1.prefetch_fills + r.l2.prefetch_fills, 0u);
    EXPECT_EQ(r.dram.row_hits + r.dram.row_misses, r.dram.requests);
}

// Field order: kFields.
const PinnedRun kDefaultConfigRuns[] = {
    {"bfs", "none",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"bfs", "stms",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"bfs", "isb",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"bfs", "domino",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"bfs", "bo",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"bfs", "isb+bo",
     {287660, 85032, 1407, 1407, 0, 0, 0, 0, 153941, 6059,
      4652, 1407, 0, 1407, 0, 0, 0, 1407, 1103, 63429}},
    {"mcf", "none",
     {240256, 104469, 43124, 22960, 0, 0, 0, 0, 47808, 112192,
      69068, 43124, 20164, 22960, 0, 0, 0, 22960, 21809, 1042674}},
    {"mcf", "stms",
     {240256, 104469, 43124, 22960, 0, 0, 0, 0, 47808, 112192,
      69068, 43124, 20164, 22960, 0, 0, 0, 22960, 21809, 1042674}},
    {"mcf", "isb",
     {240256, 104469, 43124, 22960, 0, 0, 0, 0, 47808, 112192,
      69068, 43124, 20164, 22960, 0, 0, 0, 22960, 21809, 1042674}},
    {"mcf", "domino",
     {240256, 104469, 43124, 22960, 0, 0, 0, 0, 47808, 112192,
      69068, 43124, 20164, 22960, 0, 0, 0, 22960, 21809, 1042674}},
    {"mcf", "bo",
     {240256, 103726, 43124, 6237, 16789, 16723, 15961, 0, 47808, 112192,
      69068, 43124, 20926, 22198, 828, 762, 0, 23026, 21888, 1190903}},
    {"mcf", "isb+bo",
     {240256, 104469, 43124, 22960, 0, 0, 0, 0, 47808, 112192,
      69068, 43124, 20164, 22960, 0, 0, 0, 22960, 21809, 1042674}},
};

const PinnedRun kSmallConfigRuns[] = {
    {"bfs", "none",
     {287660, 277400, 19859, 6476, 0, 0, 0, 0, 97984, 62016,
      42157, 19859, 13383, 6476, 0, 0, 0, 6476, 5226, 744953}},
    {"bfs", "stms",
     {287660, 282888, 19859, 6211, 1521, 1010, 127, 0, 97984, 62016,
      42157, 19859, 13521, 6338, 1394, 883, 408, 7732, 6185, 928376}},
    {"bfs", "isb",
     {287660, 274826, 19859, 5188, 3112, 2421, 395, 0, 97984, 62016,
      42157, 19859, 14276, 5583, 2717, 2026, 587, 8300, 6711, 996282}},
    {"bfs", "domino",
     {287660, 283370, 19859, 5927, 1901, 1362, 338, 0, 97984, 62016,
      42157, 19859, 13594, 6265, 1563, 1024, 444, 7828, 6265, 947884}},
    {"bfs", "bo",
     {287660, 278792, 19859, 4597, 4092, 3191, 948, 0, 97984, 62016,
      42157, 19859, 14314, 5545, 3142, 2243, 788, 8689, 7058, 1062840}},
    {"bfs", "isb+bo",
     {287660, 274826, 19859, 5188, 3112, 2421, 395, 0, 97984, 62016,
      42157, 19859, 14276, 5583, 2717, 2026, 587, 8300, 6711, 996282}},
    {"mcf", "none",
     {240256, 622690, 145998, 112245, 0, 0, 0, 0, 3514, 156486,
      10488, 145998, 33753, 112245, 0, 0, 0, 112245, 98373, 28794210}},
    {"mcf", "stms",
     {240256, 793188, 145998, 93834, 73729, 28863, 21707, 0, 3514, 156486,
      10488, 145998, 30457, 115541, 51990, 7156, 44556, 167563, 131520, 57813306}},
    {"mcf", "isb",
     {240256, 745579, 145998, 87720, 60434, 32281, 21932, 0, 3514, 156486,
      10488, 145998, 36346, 109652, 38482, 10349, 27913, 148154, 128423, 47001427}},
    {"mcf", "domino",
     {240256, 786459, 145998, 72661, 91235, 49118, 45372, 0, 3514, 156486,
      10488, 145998, 27965, 118033, 45851, 3746, 41903, 163896, 115542, 56581664}},
    {"mcf", "bo",
     {240256, 727420, 145998, 82949, 68199, 36979, 17579, 0, 3514, 156486,
      10488, 145998, 45470, 100528, 50612, 19400, 31106, 151148, 134568, 48945907}},
    {"mcf", "isb+bo",
     {240256, 745579, 145998, 87720, 60434, 32281, 21932, 0, 3514, 156486,
      10488, 145998, 36346, 109652, 38482, 10349, 27913, 148154, 128423, 47001427}},
};

TEST(SimulatorPins, PaperHierarchyMatchesRecordedCounters)
{
    for (const PinnedRun &pin : kDefaultConfigRuns)
        expect_pinned(default_sim_config(), pin);
}

TEST(SimulatorPins, SmallHierarchyMatchesRecordedCounters)
{
    // The paper hierarchy holds most of a Small trace, so only BO
    // issues there; the scaled hierarchy drives every prefetcher.
    for (const PinnedRun &pin : kSmallConfigRuns)
        expect_pinned(small_sim_config(), pin);
}

}  // namespace
}  // namespace voyager::sim

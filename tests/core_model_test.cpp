/**
 * @file
 * Tests for the OoO core model: width-limited IPC, memory stalls,
 * ROB-occupancy effects, and prefetching's effect on IPC.
 */
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "prefetch/stride.hpp"
#include "util/random.hpp"
#include "sim/core_model.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/recorder.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager::sim {
namespace {

trace::Trace
compute_only(std::uint64_t instrs)
{
    trace::Trace t("compute");
    t.set_instructions(instrs);
    return t;
}

TEST(OoOCore, PureComputeReachesWidth)
{
    const auto cfg = default_sim_config();
    MemoryHierarchy mem(cfg.hierarchy, nullptr);
    OoOCore core(cfg.core);
    const auto r = core.run(compute_only(100000), mem);
    EXPECT_NEAR(r.ipc, 4.0, 0.05);
}

TEST(OoOCore, ZeroRobOrWidthThrows)
{
    CoreConfig rob;
    rob.rob_size = 0;
    try {
        OoOCore core(rob);
        ADD_FAILURE() << "rob_size 0 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("rob_size"), std::string::npos);
    }
    CoreConfig width;
    width.width = 0;
    try {
        OoOCore core(width);
        ADD_FAILURE() << "width 0 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("width"), std::string::npos);
    }
}

TEST(OoOCore, EmptyTraceIsZero)
{
    const auto cfg = default_sim_config();
    MemoryHierarchy mem(cfg.hierarchy, nullptr);
    OoOCore core(cfg.core);
    const auto r = core.run(trace::Trace("empty"), mem);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(OoOCore, ColdMissesReduceIpc)
{
    // A pointer-chase over distinct lines: every load is a DRAM miss
    // and (with no dependence info) the ROB bounds the overlap.
    trace::Trace t("chase");
    trace::TraceRecorder rec(t);
    for (int i = 0; i < 5000; ++i) {
        rec.load(0x400000, 0x100000 + static_cast<Addr>(i) * 4096);
        rec.compute(3);
    }
    const auto cfg = default_sim_config();
    MemoryHierarchy mem(cfg.hierarchy, nullptr);
    OoOCore core(cfg.core);
    const auto r = core.run(t, mem);
    EXPECT_LT(r.ipc, 3.0);
    EXPECT_GT(r.ipc, 0.05);
}

TEST(OoOCore, CacheHitsFasterThanMisses)
{
    // Same working set accessed twice: second pass hits in cache.
    auto make = [](int reps) {
        trace::Trace t("ws");
        trace::TraceRecorder rec(t);
        for (int rep = 0; rep < reps; ++rep)
            for (int i = 0; i < 200; ++i) {
                rec.load(0x400000, 0x100000 + static_cast<Addr>(i) * 64);
                rec.compute(3);
            }
        return t;
    };
    const auto cfg = default_sim_config();
    MemoryHierarchy mem1(cfg.hierarchy, nullptr);
    OoOCore core(cfg.core);
    const auto cold = core.run(make(1), mem1);
    MemoryHierarchy mem2(cfg.hierarchy, nullptr);
    const auto warm = core.run(make(10), mem2);
    EXPECT_GT(warm.ipc, cold.ipc);
}

TEST(OoOCore, SmallerRobLowersIpcUnderMisses)
{
    trace::Trace t("chase");
    trace::TraceRecorder rec(t);
    for (int i = 0; i < 4000; ++i) {
        rec.load(0x400000, 0x100000 + static_cast<Addr>(i) * 4096);
        rec.compute(2);
    }
    auto cfg = default_sim_config();
    MemoryHierarchy mem_big(cfg.hierarchy, nullptr);
    const auto big = OoOCore(cfg.core).run(t, mem_big);
    cfg.core.rob_size = 16;
    MemoryHierarchy mem_small(cfg.hierarchy, nullptr);
    const auto small = OoOCore(cfg.core).run(t, mem_small);
    EXPECT_GT(big.ipc, small.ipc * 1.5);
}

TEST(OoOCore, SharedInstrIdIssuesEveryAccess)
{
    // 1000 accesses to distinct pages; the 11th and 12th belong to the
    // same instruction (id 10). Every access must still reach the
    // hierarchy.
    trace::Trace t("shared_id");
    for (std::uint64_t i = 0; i < 1000; ++i) {
        trace::MemoryAccess a;
        a.instr_id = i <= 10 ? i : i - 1;
        a.pc = 0x400100;
        a.addr = 0x40000000 + i * 4096;
        t.append(a);
    }
    const auto cfg = default_sim_config();
    NullPrefetcher none;
    const auto r = simulate(t, cfg, none);
    EXPECT_EQ(r.llc_accesses, extract_llc_stream(t, cfg).size());
    EXPECT_EQ(r.llc_accesses, 1000u);
}

TEST(OoOCore, InstructionWaitsForItsSlowestLoad)
{
    // One instruction, several accesses to one cold line: it completes
    // with its slowest load. A miss then an L1 hit, or a miss then a
    // store, take as long as the miss alone; a store that misses first
    // leaves the load an L1 hit.
    const auto cycles = [](std::initializer_list<bool> loads) {
        trace::Trace t("one_instr");
        for (const bool is_load : loads) {
            trace::MemoryAccess a;
            a.addr = 0x50000000;
            a.is_load = is_load;
            t.append(a);
        }
        const auto cfg = default_sim_config();
        MemoryHierarchy mem(cfg.hierarchy, nullptr);
        return OoOCore(cfg.core).run(t, mem).cycles;
    };
    const auto miss = cycles({true});
    EXPECT_EQ(cycles({true, true}), miss);
    EXPECT_EQ(cycles({true, false}), miss);
    EXPECT_LT(cycles({false, true}), miss);
    EXPECT_LT(cycles({false}), cycles({false, true}));
}

TEST(Simulator, PerfectReplayPrefetcherLiftsIpc)
{
    // Strided loads over a large array; a replay prefetcher that
    // predicts the next line from each access should raise IPC and
    // score high accuracy/coverage.
    trace::Trace t("stride");
    trace::TraceRecorder rec(t);
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        rec.load(0x400000, 0x10000000 + static_cast<Addr>(i) * 64);
        rec.compute(4);
    }
    const auto cfg = default_sim_config();

    NullPrefetcher none;
    const auto base = simulate(t, cfg, none);

    const auto stream = extract_llc_stream(t, cfg);
    ASSERT_GT(stream.size(), 1000u);
    std::vector<std::vector<Addr>> preds(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        for (std::size_t k = 1; k <= 4 && i + k < stream.size(); ++k)
            preds[i].push_back(stream[i + k].line);
    ReplayPrefetcher oracle("oracle", std::move(preds));
    const auto withpf = simulate(t, cfg, oracle);

    EXPECT_GT(withpf.ipc, base.ipc * 1.05);
    EXPECT_GT(withpf.accuracy, 0.9);
    EXPECT_GT(withpf.coverage, 0.5);
    EXPECT_GT(withpf.speedup_over(base), 0.05);
}

TEST(Simulator, ResultFieldsConsistent)
{
    trace::Trace t("mini");
    trace::TraceRecorder rec(t);
    for (int i = 0; i < 3000; ++i) {
        rec.load(0x400100, 0x20000000 + static_cast<Addr>(i % 700) * 64);
        rec.compute(2);
    }
    const auto cfg = default_sim_config();
    NullPrefetcher none;
    const auto r = simulate(t, cfg, none);
    EXPECT_EQ(r.prefetcher_name, "none");
    EXPECT_EQ(r.trace_name, "mini");
    EXPECT_EQ(r.prefetches_issued, 0u);
    EXPECT_EQ(r.accuracy, 0.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.llc_accesses, 0u);
    EXPECT_GE(r.llc_accesses, r.llc_misses);
}

TEST(Simulator, LlcStreamInvariantUnderPrefetching)
{
    trace::Trace t("inv");
    trace::TraceRecorder rec(t);
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
        rec.load(0x400100,
                 0x30000000 + static_cast<Addr>(rng.next_below(3000)) * 64);
        rec.compute(2);
    }
    const auto cfg = default_sim_config();
    const auto stream1 = extract_llc_stream(t, cfg);

    // Re-run with an aggressive next-line prefetcher and observe the
    // demand LLC stream again: it must be identical (L2 misses still
    // reach the LLC whether they hit there or not).
    std::vector<LlcAccess> stream2;
    prefetch::NextLine next_line(4);
    MemoryHierarchy mem(cfg.hierarchy, &next_line);
    mem.set_llc_observer(
        [&stream2](const LlcAccess &a) { stream2.push_back(a); });
    OoOCore core(cfg.core);
    core.run(t, mem);
    ASSERT_EQ(stream1.size(), stream2.size());
    for (std::size_t i = 0; i < stream1.size(); ++i)
        ASSERT_EQ(stream1[i].line, stream2[i].line);
}

/** The extraction as it ran through the core timing model: the oracle
 *  the in-order cache walk must reproduce record for record. */
std::vector<LlcAccess>
core_llc_stream(const trace::Trace &t, const SimConfig &cfg)
{
    std::vector<LlcAccess> stream;
    MemoryHierarchy mem(cfg.hierarchy, nullptr);
    mem.set_llc_observer(
        [&stream](const LlcAccess &a) { stream.push_back(a); });
    OoOCore core(cfg.core);
    core.run(t, mem);
    return stream;
}

void
expect_stream_matches_core(const trace::Trace &t, const SimConfig &cfg)
{
    const auto want = core_llc_stream(t, cfg);
    const auto got = extract_llc_stream(t, cfg);
    ASSERT_GT(want.size(), 0u) << t.name();
    ASSERT_EQ(got.size(), want.size()) << t.name();
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(testing::Message() << t.name() << " record " << i);
        ASSERT_EQ(got[i].index, want[i].index);
        ASSERT_EQ(got[i].instr_id, want[i].instr_id);
        ASSERT_EQ(got[i].pc, want[i].pc);
        ASSERT_EQ(got[i].line, want[i].line);
        ASSERT_EQ(got[i].is_load, want[i].is_load);
        ASSERT_EQ(got[i].hit, want[i].hit);
    }
}

TEST(LlcStreamExtraction, MatchesCoreOracleOnEveryTinyWorkload)
{
    for (const auto &name : trace::gen::all_benchmarks()) {
        expect_stream_matches_core(
            trace::gen::make_workload(name, trace::gen::Scale::Tiny, 1),
            tiny_sim_config());
    }
}

TEST(LlcStreamExtraction, MatchesCoreOracleOnSmallStreams)
{
    for (const char *name : {"xalancbmk", "bfs", "mcf"}) {
        expect_stream_matches_core(
            trace::gen::make_workload(name, trace::gen::Scale::Small, 1),
            small_sim_config());
    }
}

}  // namespace
}  // namespace voyager::sim

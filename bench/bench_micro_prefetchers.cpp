/**
 * @file
 * Micro-benchmarks of the rule-based prefetchers and the simulator
 * datapath (google-benchmark): per-access training+prediction cost of
 * STMS/ISB/Domino/BO, raw cache/DRAM/hierarchy access throughput, and
 * whole simulations at perfbench's sim_rules shape, paper-scale trace
 * generation, and the labeler on perfbench's training stream.
 */
#include <benchmark/benchmark.h>

#include <fstream>
#include <string>

#include "core/labeler.hpp"
#include "prefetch/registry.hpp"
#include "sim/cache.hpp"
#include "sim/dram.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace {

using namespace voyager;

std::vector<sim::LlcAccess>
synthetic_stream(std::size_t n)
{
    Rng rng(1);
    // A 512-line repeating tour with 4 PCs: exercises the hit paths of
    // every prefetcher's tables.
    std::vector<Addr> tour(512);
    for (auto &line : tour)
        line = 0x40000 + rng.next_below(65536);
    std::vector<sim::LlcAccess> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].index = i;
        out[i].pc = 0x400000 + (i % 4) * 4;
        out[i].line = tour[i % tour.size()];
        out[i].is_load = true;
    }
    return out;
}

void
BM_PrefetcherOnAccess(benchmark::State &state, const char *name)
{
    const auto stream = synthetic_stream(4096);
    auto pf = prefetch::make_prefetcher(name, 4);
    std::size_t i = 0;
    for (auto _ : state) {
        auto v = pf->on_access(stream[i]);
        benchmark::DoNotOptimize(v.data());
        i = (i + 1) % stream.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, stms, "stms");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, isb, "isb");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, domino, "domino");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, bo, "bo");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, ip_stride, "ip_stride");

std::vector<sim::LlcAccess>
large_stream(std::size_t n)
{
    Rng rng(5);
    // A 128K-line tour with 64 PCs: the temporal prefetchers' metadata
    // tables spill out of the last-level cache, so the map lookup
    // itself dominates per-access cost — the case the flat hash
    // tables (util/flat_hash, DESIGN.md §5.15) target. Compare these
    // numbers against the cache-resident variant above to see the
    // table effect in isolation.
    std::vector<Addr> tour(128 * 1024);
    for (auto &line : tour)
        line = 0x1000000 + rng.next_below(1u << 24);
    std::vector<sim::LlcAccess> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].index = i;
        out[i].pc = 0x400000 + (i % 64) * 4;
        out[i].line = tour[i % tour.size()];
        out[i].is_load = true;
    }
    return out;
}

void
BM_PrefetcherOnAccessLarge(benchmark::State &state, const char *name)
{
    const auto stream = large_stream(256 * 1024);
    auto pf = prefetch::make_prefetcher(name, 4);
    // Warm the metadata tables so the timed loop measures steady-state
    // lookups, not cold growth.
    for (const auto &a : stream)
        pf->on_access(a);
    std::size_t i = 0;
    for (auto _ : state) {
        auto v = pf->on_access(stream[i]);
        benchmark::DoNotOptimize(v.data());
        i = (i + 1) % stream.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PrefetcherOnAccessLarge, stms, "stms");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccessLarge, isb, "isb");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccessLarge, domino, "domino");
BENCHMARK_CAPTURE(BM_PrefetcherOnAccessLarge, bo, "bo");

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache({"LLC", 2 * 1024 * 1024, 16, 20});
    Rng rng(2);
    std::vector<Addr> lines(4096);
    for (auto &l : lines)
        l = rng.next_below(100000);
    std::size_t i = 0;
    for (auto _ : state) {
        if (!cache.access(lines[i]))
            cache.fill(lines[i], false);
        i = (i + 1) % lines.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_DramAccess(benchmark::State &state)
{
    sim::Dram dram(sim::DramConfig{});
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(rng.next_below(1 << 24),
                                             now));
        now += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void
BM_HierarchyAccess(benchmark::State &state)
{
    sim::HierarchyConfig cfg;
    sim::MemoryHierarchy mem(cfg, nullptr);
    Rng rng(4);
    std::vector<trace::MemoryAccess> accs(8192);
    for (std::size_t i = 0; i < accs.size(); ++i) {
        accs[i] = {i, 0x400000,
                   (0x100000 + rng.next_below(1 << 22)) << kLineBits,
                   true};
    }
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.access(accs[i], now));
        now += 4;
        i = (i + 1) % accs.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

/** The first 300000 accesses of the paper-scale mcf trace (seed 1):
 *  the larger of perfbench's two sim_rules traces. */
const trace::Trace &
sim_rules_mcf()
{
    static const trace::Trace t = [] {
        trace::Trace full = trace::gen::make_workload(
            "mcf", trace::gen::Scale::Paper, 1);
        full.truncate(300000);
        return full;
    }();
    return t;
}

/** One whole simulation per iteration: paper (Table 3) hierarchy,
 *  empty caches, prefetch degree 1, as sim_rules runs it. */
void
BM_Simulate(benchmark::State &state, const char *name)
{
    const trace::Trace &t = sim_rules_mcf();
    const sim::SimConfig cfg = sim::default_sim_config();
    for (auto _ : state) {
        auto pf = prefetch::make_prefetcher(name, 1);
        const sim::SimResult r = sim::simulate(t, cfg, *pf);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}
BENCHMARK_CAPTURE(BM_Simulate, none, "none")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simulate, stms, "stms")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simulate, isb, "isb")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simulate, domino, "domino")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simulate, bo, "bo")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simulate, isb_bo, "isb+bo")
    ->Unit(benchmark::kMillisecond);

/** One whole paper-scale trace generation per iteration: the set-up
 *  every paper-scale figure and perfbench's sim_rules pay per
 *  benchmark. Reports thread CPU time and generated accesses/s. */
void
BM_MakeWorkload(benchmark::State &state, const char *name)
{
    std::int64_t accesses = 0;
    for (auto _ : state) {
        const trace::Trace t =
            trace::gen::make_workload(name, trace::gen::Scale::Paper, 1);
        benchmark::DoNotOptimize(t.accesses().data());
        accesses += static_cast<std::int64_t>(t.size());
    }
    state.counters["accesses/s"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_MakeWorkload, bfs, "bfs")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeWorkload, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeWorkload, pr, "pr")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeWorkload, astar, "astar")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeWorkload, xalancbmk, "xalancbmk")
    ->Unit(benchmark::kMillisecond);

/** The repository benchmark's training stream: the first 20000 LLC
 *  accesses of a Small-scale trace (seed 1) on the small hierarchy. */
std::vector<sim::LlcAccess>
small_llc_stream(const char *benchmark)
{
    const trace::Trace t =
        trace::gen::make_workload(benchmark, trace::gen::Scale::Small, 1);
    auto stream = sim::extract_llc_stream(t, sim::small_sim_config());
    if (stream.size() > 20000)
        stream.resize(20000);
    return stream;
}

/** All five label schemes over the whole stream, as every Voyager
 *  training computes them once before its first step. */
void
BM_ComputeLabels(benchmark::State &state, const char *benchmark)
{
    const auto stream = small_llc_stream(benchmark);
    for (auto _ : state) {
        const auto labels = core::compute_labels(stream);
        benchmark::DoNotOptimize(labels.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}
BENCHMARK_CAPTURE(BM_ComputeLabels, xalancbmk, "xalancbmk")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ComputeLabels, bfs, "bfs")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ComputeLabels, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/**
 * Strip `--stats_json=`/`--stats_csv=` from argv (google-benchmark
 * rejects flags it does not know) and return the extracted path.
 */
std::string
extract_flag(int &argc, char **argv, const std::string &flag)
{
    const std::string prefix = "--" + flag + "=";
    std::string value;
    int w = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            value = arg.substr(prefix.size());
        else
            argv[w++] = argv[i];
    }
    argc = w;
    return value;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::string stats_json = extract_flag(argc, argv, "stats_json");
    const std::string stats_csv = extract_flag(argc, argv, "stats_csv");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Schema-valid document for tooling parity with the figure
    // binaries; google-benchmark owns the per-kernel numbers.
    if (!stats_json.empty() || !stats_csv.empty()) {
        voyager::StatRegistry reg;
        reg.set_meta("bench", "micro_prefetchers");
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            reg.write_json(os);
        }
        if (!stats_csv.empty()) {
            std::ofstream os(stats_csv);
            reg.write_csv(os);
        }
    }
    return 0;
}

#include "sim/simulator.hpp"

#include "util/stats.hpp"

namespace voyager::sim {

double
SimResult::speedup_over(const SimResult &baseline) const
{
    if (baseline.ipc == 0.0)
        return 0.0;
    return ipc / baseline.ipc - 1.0;
}

SimConfig
default_sim_config()
{
    return SimConfig{};
}

SimConfig
small_sim_config()
{
    SimConfig cfg;
    cfg.hierarchy.l1 = {"L1D", 4 * 1024, 4, 3};
    cfg.hierarchy.l2 = {"L2", 16 * 1024, 8, 11};
    cfg.hierarchy.llc = {"LLC", 64 * 1024, 16, 20};
    // Keep the relative miss penalty of the paper's configuration:
    // the caches shrank ~32x, so without slower DRAM the 128-entry
    // ROB would hide nearly every miss and prefetching could not
    // move IPC at all.
    cfg.hierarchy.dram.t_rp = 60;
    cfg.hierarchy.dram.t_rcd = 60;
    cfg.hierarchy.dram.t_cas = 60;
    cfg.hierarchy.dram.burst_cycles = 8;
    return cfg;
}

SimConfig
tiny_sim_config()
{
    SimConfig cfg;
    cfg.hierarchy.l1 = {"L1D", 2 * 1024, 4, 3};
    cfg.hierarchy.l2 = {"L2", 4 * 1024, 8, 11};
    cfg.hierarchy.llc = {"LLC", 16 * 1024, 16, 20};
    cfg.hierarchy.dram.t_rp = 60;
    cfg.hierarchy.dram.t_rcd = 60;
    cfg.hierarchy.dram.t_cas = 60;
    cfg.hierarchy.dram.burst_cycles = 8;
    return cfg;
}

SimResult
simulate(const trace::Trace &trace, const SimConfig &cfg,
         Prefetcher &prefetcher)
{
    MemoryHierarchy mem(cfg.hierarchy, &prefetcher);
    OoOCore core(cfg.core);
    const CoreResult cr = core.run(trace, mem);

    SimResult r;
    r.trace_name = trace.name();
    r.prefetcher_name = prefetcher.name();
    r.instructions = cr.instructions;
    r.cycles = cr.cycles;
    r.ipc = cr.ipc;
    r.llc_accesses = mem.llc_demand_accesses();
    r.llc_misses = mem.uncovered_misses();
    r.prefetches_issued = mem.prefetch_counters().issued;
    r.prefetches_useful = mem.useful_prefetches();
    r.prefetches_late = mem.prefetch_counters().late_useful;
    r.prefetches_dropped = mem.prefetch_counters().dropped_inflight_full;
    r.accuracy = mem.prefetch_accuracy();
    r.coverage = mem.prefetch_coverage();
    r.l1 = mem.l1().stats();
    r.l2 = mem.l2().stats();
    r.llc = mem.llc().stats();
    r.dram = mem.dram().stats();
    return r;
}

void
SimResult::export_stats(StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.gauge(prefix + ".ipc") = ipc;
    reg.gauge(prefix + ".accuracy") = accuracy;
    reg.gauge(prefix + ".coverage") = coverage;
    reg.counter(prefix + ".instructions") = instructions;
    reg.counter(prefix + ".cycles") = cycles;
    reg.counter(prefix + ".llc.demand_accesses") = llc_accesses;
    reg.counter(prefix + ".llc.uncovered_misses") = llc_misses;
    reg.counter(prefix + ".prefetch.issued") = prefetches_issued;
    reg.counter(prefix + ".prefetch.useful") = prefetches_useful;
    reg.counter(prefix + ".prefetch.late") = prefetches_late;
    reg.counter(prefix + ".prefetch.dropped") = prefetches_dropped;
    export_cache_stats(reg, prefix + ".l1", l1);
    export_cache_stats(reg, prefix + ".l2", l2);
    export_cache_stats(reg, prefix + ".llc", llc);
    export_dram_stats(reg, prefix + ".dram", dram);
}

std::vector<LlcAccess>
extract_llc_stream(const trace::Trace &trace, const SimConfig &cfg)
{
    // The cycle handed to the hierarchy only sets DRAM latencies, which
    // no record carries; any non-decreasing value will do.
    std::vector<LlcAccess> stream;
    MemoryHierarchy mem(cfg.hierarchy, nullptr);
    mem.set_llc_observer(
        [&stream](const LlcAccess &a) { stream.push_back(a); });
    for (const trace::MemoryAccess &a : trace.accesses())
        mem.access(a, a.instr_id);
    return stream;
}

}  // namespace voyager::sim

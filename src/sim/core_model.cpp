#include "sim/core_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace voyager::sim {

OoOCore::OoOCore(const CoreConfig &cfg) : cfg_(cfg)
{
    if (cfg_.rob_size == 0)
        throw std::invalid_argument("core: rob_size must be positive");
    if (cfg_.width == 0)
        throw std::invalid_argument("core: width must be positive");
}

CoreResult
OoOCore::run(const trace::Trace &trace, MemoryHierarchy &mem) const
{
    CoreResult res;
    res.instructions = trace.instructions();
    if (res.instructions == 0)
        return res;

    // retire_time[slot] = cycle instruction i retired, where slot =
    // i mod rob_size; instruction i+rob_size may not issue before it.
    std::vector<Cycle> retire_time(cfg_.rob_size, 0);
    std::uint32_t slot = 0;
    Cycle fetch_cycle = cfg_.pipeline_depth;
    std::uint32_t fetched_this_cycle = 0;
    Cycle last_retire = 0;
    std::uint32_t retired_at_last = 0;

    std::size_t next_access = 0;
    const auto &accesses = trace.accesses();

    for (std::uint64_t i = 0; i < res.instructions; ++i) {
        // Fetch-width constraint.
        if (fetched_this_cycle >= cfg_.width) {
            ++fetch_cycle;
            fetched_this_cycle = 0;
        }
        // ROB-occupancy constraint.
        const Cycle oldest = retire_time[slot];
        if (oldest > fetch_cycle) {
            fetch_cycle = oldest;
            fetched_this_cycle = 0;
        }
        ++fetched_this_cycle;

        // Execute. Every access of the instruction issues at its fetch
        // cycle; it completes with its slowest load. Stores retire
        // without waiting for the fill.
        std::uint32_t latency = 1;
        bool loaded = false;
        for (; next_access < accesses.size() &&
               accesses[next_access].instr_id == i;
             ++next_access) {
            const auto &a = accesses[next_access];
            const std::uint32_t mem_lat = mem.access(a, fetch_cycle);
            if (a.is_load) {
                latency = loaded ? std::max(latency, mem_lat) : mem_lat;
                loaded = true;
            }
        }
        const Cycle complete = fetch_cycle + latency;

        // In-order retirement at the retire width.
        Cycle retire = std::max(complete, last_retire);
        if (retire == last_retire) {
            if (++retired_at_last > cfg_.width) {
                ++retire;
                retired_at_last = 1;
            }
        } else {
            retired_at_last = 1;
        }
        last_retire = retire;
        retire_time[slot] = retire;
        if (++slot == cfg_.rob_size)
            slot = 0;
    }

    res.cycles = last_retire;
    res.ipc = res.cycles ? static_cast<double>(res.instructions) /
                               static_cast<double>(res.cycles)
                         : 0.0;
    return res;
}

}  // namespace voyager::sim

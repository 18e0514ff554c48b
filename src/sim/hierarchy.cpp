#include "sim/hierarchy.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace voyager::sim {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg,
                                 Prefetcher *prefetcher)
    : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2), llc_(cfg.llc), dram_(cfg.dram),
      prefetcher_(prefetcher)
{
}

void
MemoryHierarchy::drain_inflight(Cycle now)
{
    while (!inflight_queue_.empty() &&
           inflight_queue_.top().first <= now) {
        const Addr line = inflight_queue_.top().second;
        inflight_queue_.pop();
        auto it = inflight_.find(line);
        if (it != inflight_.end() && it->second <= now) {
            llc_.fill(line, true);
            inflight_.erase(line);
        }
    }
}

std::uint32_t
MemoryHierarchy::access(const trace::MemoryAccess &a, Cycle now)
{
    drain_inflight(now);
    const Addr line = a.line();

    // Each level installs the line on its demand miss. Nothing touches
    // a level's set between its miss and the fill, and each level keeps
    // its own LRU clock, so this equals filling on the way back up.
    std::uint32_t latency = cfg_.l1.latency;
    if (l1_.access_or_fill(line))
        return latency;

    latency += cfg_.l2.latency;
    if (l2_.access_or_fill(line))
        return latency;

    // This is an LLC demand access: the prefetcher's training input.
    LlcAccess acc;
    acc.index = llc_index_++;
    acc.instr_id = a.instr_id;
    acc.pc = a.pc;
    acc.line = line;
    acc.is_load = a.is_load;

    latency += cfg_.llc.latency;
    if (llc_.access_or_fill(line)) {
        acc.hit = true;
    } else if (auto it = inflight_.find(line); it != inflight_.end()) {
        // Late prefetch: demand catches an in-flight fill. Charge the
        // remaining flight time instead of a full DRAM round trip. The
        // line arrived as a (consumed) prefetch: filled, not marked.
        ++pf_.late_useful;
        latency += static_cast<std::uint32_t>(it->second - now);
        inflight_.erase(line);
        acc.hit = false;
    } else {
        latency += dram_.access(line, now);
        acc.hit = false;
    }

    if (observer_)
        observer_(acc);
    if (prefetcher_)
        issue_prefetches(acc, now);
    return latency;
}

void
MemoryHierarchy::issue_prefetches(const LlcAccess &trigger, Cycle now)
{
    const auto candidates = prefetcher_->on_access(trigger);
    std::uint32_t accepted = 0;
    for (Addr cand : candidates) {
        if (accepted >= cfg_.max_degree)
            break;
        if (cand == trigger.line || llc_.contains(cand) ||
            inflight_.contains(cand)) {
            continue;  // redundant prefetch: filtered, not counted
        }
        // Line ~0 is the caches' invalid-way tag, so it must never
        // reach a Cache. Demand lines (addresses >> kLineBits) cannot
        // take it; only a candidate that wrapped below line 0 (e.g. a
        // descending stride) can, and it names no real line.
        if (cand == Cache::kNoEviction)
            continue;
        if (inflight_.size() >= cfg_.max_inflight_prefetches) {
            ++pf_.dropped_inflight_full;
            break;
        }
        const std::uint32_t lat = dram_.access(cand, now);
        const Cycle ready = now + lat;
        inflight_.emplace(cand, ready);
        inflight_queue_.emplace(ready, cand);
        ++pf_.issued;
        ++accepted;
    }
}

std::uint64_t
MemoryHierarchy::useful_prefetches() const
{
    return llc_.stats().useful_prefetches + pf_.late_useful;
}

std::uint64_t
MemoryHierarchy::uncovered_misses() const
{
    // llc misses counts late-useful demands as misses; subtract them
    // since those were (partially) covered.
    return llc_.stats().misses - pf_.late_useful;
}

double
MemoryHierarchy::prefetch_accuracy() const
{
    return safe_ratio(static_cast<double>(useful_prefetches()),
                      static_cast<double>(pf_.issued));
}

double
MemoryHierarchy::prefetch_coverage() const
{
    const double useful = static_cast<double>(useful_prefetches());
    return safe_ratio(useful,
                      useful + static_cast<double>(uncovered_misses()));
}

}  // namespace voyager::sim

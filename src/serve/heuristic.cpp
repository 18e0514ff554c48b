#include "serve/heuristic.hpp"

#include "core/decode.hpp"
#include "prefetch/registry.hpp"

namespace voyager::serve {

HeuristicEngine::HeuristicEngine(std::string kind, std::uint32_t degree)
    : kind_(std::move(kind)), degree_(degree == 0 ? 1 : degree)
{
    // Build one now so an unknown kind throws here, not from observe()
    // after the server has already taken a batch off its queue.
    prefetch::make_prefetcher(kind_, degree_);
}

sim::Prefetcher &
HeuristicEngine::tenant_engine(std::uint32_t t)
{
    auto it = bank_.find(t);
    if (it == bank_.end()) {
        it = bank_.emplace(t, prefetch::make_prefetcher(kind_, degree_))
                 .first;
    }
    return *it->second;
}

std::vector<Addr>
HeuristicEngine::observe(const PrefetchRequest &req)
{
    sim::LlcAccess access;
    access.index = accesses_[req.tenant]++;
    access.pc = req.raw_pc;
    access.line = req.prev_line;
    access.is_load = true;
    const std::vector<Addr> raw =
        tenant_engine(req.tenant).on_access(access);
    // Same post-processing as the neural rungs, with lines that need
    // no decoding: distinct, at most req.degree, order preserved.
    std::vector<Addr> lines;
    core::decode_candidates(
        raw, req.degree,
        [](Addr line) { return std::optional<Addr>(line); }, lines);
    return lines;
}

}  // namespace voyager::serve

#include "serve/heuristic.hpp"

#include "core/decode.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/registry.hpp"

namespace voyager::serve {

HeuristicEngine::HeuristicEngine(std::string kind, std::uint32_t degree)
    : kind_(std::move(kind)), degree_(degree == 0 ? 1 : degree)
{
}

sim::Prefetcher &
HeuristicEngine::tenant_engine(std::uint32_t t)
{
    auto it = bank_.find(t);
    if (it == bank_.end()) {
        std::unique_ptr<sim::Prefetcher> pf =
            kind_ == "isb_bo"
                ? prefetch::make_isb_bo_hybrid(degree_)
                : prefetch::make_prefetcher(kind_, degree_);
        it = bank_.emplace(t, std::move(pf)).first;
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

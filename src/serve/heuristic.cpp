#include "serve/heuristic.hpp"

#include <stdexcept>

#include "core/decode.hpp"
#include "prefetch/stream_group.hpp"

namespace voyager::serve {

HeuristicEngine::HeuristicEngine(std::uint32_t degree) : degree_(degree)
{
    if (degree_ == 0)
        throw std::invalid_argument("HeuristicEngine: degree must be "
                                    "positive, got 0");
}

sim::Prefetcher &
HeuristicEngine::tenant_engine(std::uint32_t t)
{
    auto it = bank_.find(t);
    if (it == bank_.end()) {
        it = bank_.emplace(t, std::make_unique<prefetch::StreamGroup>(
                                  degree_))
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

/**
 * @file
 * Terminal heuristic rung of the serve degradation ladder (DESIGN.md
 * §5.19): a per-tenant StreamGroup prefetcher that answers requests
 * when every neural engine has been degraded away. The engine is
 * *shadow-warmed*: the server feeds it every live dispatched request
 * even while a neural rung is active, so stepping down does not land
 * on a cold table.
 *
 * Each tenant gets its own prefetcher instance — tenants' access
 * streams are independent, and sharing tables would let one tenant's
 * pattern pollute another's (the isolation the quota machinery exists
 * to protect).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/request.hpp"
#include "sim/prefetcher.hpp"
#include "util/flat_hash.hpp"
#include "util/types.hpp"

namespace voyager::serve {

/** Per-tenant heuristic prefetcher bank. */
class HeuristicEngine
{
  public:
    /**
     * @param degree candidate lines requested per access.
     * @throws std::invalid_argument on a zero degree.
     */
    explicit HeuristicEngine(std::uint32_t degree = 2);

    /**
     * Observe one live request's newest access and return prefetch
     * candidates, deduplicated and truncated to req.degree. Called for
     * every live dispatched row regardless of the active rung (shadow
     * warming); the result is only used when this rung answers.
     */
    std::vector<Addr> observe(const PrefetchRequest &req);

    std::uint32_t tenants() const
    {
        return static_cast<std::uint32_t>(bank_.size());
    }

  private:
    /** Get (or lazily build) tenant `t`'s prefetcher. */
    sim::Prefetcher &tenant_engine(std::uint32_t t);

    std::uint32_t degree_;
    FlatHashMap<std::uint32_t, std::unique_ptr<sim::Prefetcher>> bank_;
    /** Per-tenant access counters (LlcAccess::index stream). */
    FlatHashMap<std::uint32_t, std::uint64_t> accesses_;
};

}  // namespace voyager::serve

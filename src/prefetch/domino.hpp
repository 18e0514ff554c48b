/**
 * @file
 * Domino (Bakhshalipour et al., HPCA 2018): global-stream temporal
 * prefetching keyed by the *two* most recent addresses, with a
 * single-address fallback (paper Eq. 4). Degree-k prediction follows
 * the learned chain. Idealized: unbounded tables.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/flat_hash.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Idealized Domino. */
class Domino final : public Prefetcher
{
  public:
    explicit Domino(std::uint32_t degree = 1);

    std::string name() const override { return "domino"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;

  private:
    static std::uint64_t
    pair_key(Addr a, Addr b)
    {
        // Mix the two line addresses into one 64-bit key.
        return a * 0x9e3779b97f4a7c15ull ^ (b + 0x165667b19e3779f9ull +
                                            (a << 12) + (a >> 4));
    }

    std::uint32_t degree_;
    bool have_prev_ = false;
    bool have_prev2_ = false;
    Addr prev_ = 0;
    Addr prev2_ = 0;
    FlatHashMap<std::uint64_t, Addr> pair_next_;
    FlatHashMap<Addr, Addr> single_next_;
};

}  // namespace voyager::prefetch

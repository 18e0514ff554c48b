#include "prefetch/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "prefetch/best_offset.hpp"
#include "prefetch/isb.hpp"

namespace voyager::prefetch {

Hybrid::Hybrid(std::string name,
               std::vector<std::unique_ptr<Prefetcher>> parts,
               std::vector<std::uint32_t> degrees)
    : name_(std::move(name)), parts_(std::move(parts)),
      degrees_(std::move(degrees))
{
    if (parts_.size() != degrees_.size() || parts_.empty() ||
        std::count(degrees_.begin(), degrees_.end(), 0u) > 0)
        throw std::invalid_argument(
            "hybrid: needs parts, each with a non-zero degree");
}

std::vector<Addr>
Hybrid::on_access(const sim::LlcAccess &access)
{
    std::vector<Addr> out;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        // Train every component; take candidates up to its share.
        auto cands = parts_[i]->on_access(access);
        for (std::size_t k = 0; k < cands.size() && k < degrees_[i]; ++k)
            out.push_back(cands[k]);
    }
    return out;
}

std::uint64_t
Hybrid::storage_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p->storage_bytes();
    return total;
}

std::unique_ptr<Prefetcher>
make_isb_bo_hybrid(std::uint32_t total_degree)
{
    if (total_degree == 0)
        throw std::invalid_argument("isb+bo: degree must be at least 1");
    // Equal split, BO taking the odd one; degree 1 leaves BO no share,
    // so the hybrid is ISB alone (paper Fig. 9).
    const std::uint32_t isb_share = std::max(1u, total_degree / 2);
    const std::uint32_t bo_share = total_degree - isb_share;
    std::vector<std::unique_ptr<Prefetcher>> parts;
    parts.push_back(std::make_unique<Isb>(isb_share));
    std::vector<std::uint32_t> degrees{isb_share};
    if (bo_share > 0) {
        parts.push_back(std::make_unique<BestOffset>(bo_share));
        degrees.push_back(bo_share);
    }
    return std::make_unique<Hybrid>("isb+bo", std::move(parts),
                                    std::move(degrees));
}

}  // namespace voyager::prefetch

/**
 * @file
 * Hybrid prefetcher composition. The paper's Fig. 9 red line is an
 * ISB+BO hybrid where the two components split the available degree
 * equally and degree 1 falls back to ISB alone.
 */
#pragma once

#include <memory>
#include <vector>

#include "sim/prefetcher.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/**
 * Runs several component prefetchers and interleaves their candidates
 * up to a total degree. Every component is trained on every access and has
 * a share of at least one candidate.
 */
class Hybrid final : public Prefetcher
{
  public:
    /**
     * @param name display name, e.g. "isb+bo"
     * @param parts components in priority order
     * @param degrees per-component degree budget (same arity as parts)
     * @throws std::invalid_argument on no parts, an arity mismatch or
     *         a zero degree.
     */
    Hybrid(std::string name,
           std::vector<std::unique_ptr<Prefetcher>> parts,
           std::vector<std::uint32_t> degrees);

    std::string name() const override { return name_; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Prefetcher>> parts_;
    std::vector<std::uint32_t> degrees_;
};

/**
 * The paper's ISB+BO hybrid with equal degree split; at degree 1 it is
 * ISB alone. @throws std::invalid_argument on degree 0.
 */
std::unique_ptr<Prefetcher> make_isb_bo_hybrid(std::uint32_t total_degree);

}  // namespace voyager::prefetch

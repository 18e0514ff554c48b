/**
 * @file
 * Classic per-PC (IP) stride prefetcher and a next-line prefetcher.
 * Included as additional rule-based baselines (paper Eq. 5/6) and as
 * components for hybrids.
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/prefetcher.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Confidence a stride entry needs before it predicts. StreamGroup
 *  reads the same pair, which keeps it IpStride-equal on a pure
 *  stream. */
inline constexpr std::uint32_t kStrideConfidenceThreshold = 2;
/** Saturation value of the 2-bit stride confidence counter. */
inline constexpr std::uint32_t kStrideConfidenceMax = 3;

/** Per-PC stride detector with a 2-bit confidence counter. */
class IpStride final : public Prefetcher
{
  public:
    explicit IpStride(std::uint32_t degree = 1) : degree_(degree) {}

    std::string name() const override { return "ip_stride"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;

  private:
    struct Entry
    {
        Addr last_line = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    std::uint32_t degree_;
    std::unordered_map<Addr, Entry> table_;
};

/** Next-N-lines prefetcher. */
class NextLine final : public Prefetcher
{
  public:
    explicit NextLine(std::uint32_t degree = 1) : degree_(degree) {}

    std::string name() const override { return "next_line"; }

    std::vector<Addr>
    on_access(const sim::LlcAccess &access) override
    {
        std::vector<Addr> out;
        out.reserve(degree_);
        for (std::uint32_t k = 1; k <= degree_; ++k)
            out.push_back(access.line + k);
        return out;
    }

  private:
    std::uint32_t degree_;
};

}  // namespace voyager::prefetch

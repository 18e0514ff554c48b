#include "prefetch/stride.hpp"

namespace voyager::prefetch {

std::vector<Addr>
IpStride::on_access(const sim::LlcAccess &access)
{
    std::vector<Addr> out;
    Entry &e = table_[access.pc];
    if (e.valid) {
        const std::int64_t stride =
            static_cast<std::int64_t>(access.line) -
            static_cast<std::int64_t>(e.last_line);
        if (stride == e.stride && stride != 0) {
            if (e.confidence < kStrideConfidenceMax)
                ++e.confidence;
        } else {
            e.stride = stride;
            e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
        }
        if (e.confidence >= kStrideConfidenceThreshold && e.stride != 0) {
            for (std::uint32_t k = 1; k <= degree_; ++k) {
                out.push_back(static_cast<Addr>(
                    static_cast<std::int64_t>(access.line) +
                    e.stride * static_cast<std::int64_t>(k)));
            }
        }
    }
    e.last_line = access.line;
    e.valid = true;
    return out;
}

std::uint64_t
IpStride::storage_bytes() const
{
    // PC tag + last line + stride + confidence.
    return table_.size() * 21;
}

}  // namespace voyager::prefetch

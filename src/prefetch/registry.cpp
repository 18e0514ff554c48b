#include "prefetch/registry.hpp"

#include <stdexcept>

#include "prefetch/best_offset.hpp"
#include "prefetch/domino.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/isb.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/stms.hpp"
#include "prefetch/stream_group.hpp"
#include "prefetch/stride.hpp"

namespace voyager::prefetch {

std::unique_ptr<sim::Prefetcher>
make_prefetcher(const std::string &name, std::uint32_t degree)
{
    if (name == "none")
        return std::make_unique<sim::NullPrefetcher>();
    if (name == "stms")
        return std::make_unique<Stms>(degree);
    if (name == "isb")
        return std::make_unique<Isb>(degree);
    if (name == "domino")
        return std::make_unique<Domino>(degree);
    if (name == "bo")
        return std::make_unique<BestOffset>(degree);
    if (name == "ip_stride")
        return std::make_unique<IpStride>(degree);
    if (name == "next_line")
        return std::make_unique<NextLine>(degree);
    if (name == "sms")
        return std::make_unique<Sms>(degree);
    if (name == "stream_group")
        return std::make_unique<StreamGroup>(degree);
    if (name == "isb+bo")
        return make_isb_bo_hybrid(degree);
    throw std::invalid_argument("unknown prefetcher: " + name);
}

}  // namespace voyager::prefetch

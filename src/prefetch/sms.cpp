#include "prefetch/sms.hpp"

#include <algorithm>

namespace voyager::prefetch {

void
Sms::close_generation(Addr /*region*/, const Generation &gen)
{
    // Merge into the pattern history (OR of observed footprints keeps
    // the union — the idealized variant the paper compares against).
    pht_[gen.sig] |= gen.footprint;
}

std::vector<Addr>
Sms::on_access(const sim::LlcAccess &access)
{
    ++access_counter_;
    const Addr region = access.line >> kRegionShift;
    const auto offset = static_cast<std::uint32_t>(
        access.line & ((1ull << kRegionShift) - 1));

    // Expire stale generations (interval-based close).
    if (active_.size() >= kMaxActive) {
        for (auto it = active_.begin(); it != active_.end();) {
            if (access_counter_ - it->second.last_access >
                kGenerationTimeout) {
                close_generation(it->first, it->second);
                it = active_.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::vector<Addr> out;
    auto it = active_.find(region);
    if (it == active_.end()) {
        // Trigger access: open a generation and replay the stored
        // footprint for this signature, if any.
        Generation gen;
        gen.sig = signature(access.pc, offset);
        gen.footprint = 1ull << offset;
        gen.last_access = access_counter_;
        if (auto pat = pht_.find(gen.sig); pat != pht_.end()) {
            const Addr base = region << kRegionShift;
            for (std::uint32_t b = 0;
                 b < (1u << kRegionShift) &&
                 out.size() < degree_;
                 ++b) {
                if (b != offset && (pat->second >> b) & 1)
                    out.push_back(base + b);
            }
        }
        active_.emplace(region, gen);
    } else {
        it->second.footprint |= 1ull << offset;
        it->second.last_access = access_counter_;
    }
    return out;
}

std::uint64_t
Sms::storage_bytes() const
{
    // PHT entries: 8 B signature + 8 B footprint; active generations
    // likewise plus a timestamp.
    return pht_.size() * 16 + active_.size() * 24;
}

}  // namespace voyager::prefetch

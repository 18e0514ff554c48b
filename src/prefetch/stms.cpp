#include "prefetch/stms.hpp"

namespace voyager::prefetch {

Stms::Stms(std::uint32_t degree) : degree_(degree) {}

std::vector<Addr>
Stms::on_access(const sim::LlcAccess &access)
{
    std::vector<Addr> out;
    const Addr line = access.line;
    // One probe: insert line -> its new position, or find the previous
    // occurrence and move it.
    const auto [it, fresh] = index_.emplace(line, history_.size());
    if (!fresh) {
        // Predict the lines that followed the previous occurrence in
        // the global history buffer.
        const std::uint64_t pos = it->second;
        for (std::uint32_t k = 1; k <= degree_; ++k) {
            const std::uint64_t p = pos + k;
            if (p >= history_.size())
                break;
            out.push_back(history_[p]);
        }
        it->second = history_.size();
    }
    history_.push_back(line);
    return out;
}

std::uint64_t
Stms::storage_bytes() const
{
    // History buffer entries (8 B line address) + index table entries
    // (8 B key + 8 B position). A real STMS keeps this off-chip.
    return history_.size() * 8 + index_.size() * 16;
}

void
Stms::export_stats(StatRegistry &reg, const std::string &prefix) const
{
    Prefetcher::export_stats(reg, prefix);
    reg.counter(prefix + ".history_entries") = history_.size();
    reg.counter(prefix + ".index_entries") = index_.size();
}

}  // namespace voyager::prefetch

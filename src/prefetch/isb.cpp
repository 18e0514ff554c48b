#include "prefetch/isb.hpp"

namespace voyager::prefetch {

void
Isb::map_structural(Addr line, std::uint64_t s)
{
    phys_to_struct_.emplace(line, s);
    struct_to_phys_.emplace(s, line);
}

std::vector<Addr>
Isb::on_access(const sim::LlcAccess &access)
{
    const Addr line = access.line;

    // --- Training: extend the PC-localized stream A -> B. ---
    // One probe both reads this PC's previous line and records B.
    const auto [pc_slot, fresh] = last_by_pc_.emplace(access.pc, line);
    // B's structural address, when known without another lookup.
    std::uint64_t s = 0;
    bool mapped = false;
    if (!fresh && pc_slot->second != line) {
        const Addr prev = pc_slot->second;
        pc_slot->second = line;
        auto ps = phys_to_struct_.find(prev);
        std::uint64_t s_prev;
        if (ps == phys_to_struct_.end()) {
            // The trigger has no structural home yet: open a stream.
            s_prev = next_stream_base_;
            next_stream_base_ += kStreamChunk;
            map_structural(prev, s_prev);
        } else {
            s_prev = ps->second;
        }
        const std::uint64_t desired = s_prev + 1;
        auto cur = phys_to_struct_.find(line);
        if (cur == phys_to_struct_.end()) {
            // B is unmapped: append it to A's stream if the slot is
            // free (and not a chunk boundary), else open a new stream.
            if (desired % kStreamChunk != 0 &&
                struct_to_phys_.emplace(desired, line).second) {
                phys_to_struct_.emplace(line, desired);
                s = desired;
            } else {
                s = next_stream_base_;
                next_stream_base_ += kStreamChunk;
                map_structural(line, s);
            }
        } else {
            // B already mapped: keep its first-learned home. Remapping
            // on every divergent pair would tear streams apart on loop
            // back-edges (e.g. ...,C,A,B,C,A,... would unmap A each
            // lap).
            s = cur->second;
        }
        mapped = true;
    }

    // --- Prediction: walk the structural space from B. ---
    std::vector<Addr> out;
    if (!mapped) {
        auto cur = phys_to_struct_.find(line);
        mapped = cur != phys_to_struct_.end();
        if (mapped)
            s = cur->second;
    }
    if (mapped) {
        for (std::uint32_t k = 1; k <= degree_; ++k) {
            // Stay within this stream's chunk.
            if ((s + k) / kStreamChunk != s / kStreamChunk)
                break;
            auto sp = struct_to_phys_.find(s + k);
            if (sp == struct_to_phys_.end())
                break;
            out.push_back(sp->second);
        }
    }
    return out;
}

std::uint64_t
Isb::storage_bytes() const
{
    // Bidirectional mapping entries (8 B each side + 4 B tag overhead)
    // plus the per-PC training units.
    return phys_to_struct_.size() * 12 + struct_to_phys_.size() * 12 +
           last_by_pc_.size() * 16;
}

void
Isb::export_stats(StatRegistry &reg, const std::string &prefix) const
{
    Prefetcher::export_stats(reg, prefix);
    reg.counter(prefix + ".streams") = num_streams();
    reg.counter(prefix + ".mappings") = phys_to_struct_.size();
    reg.counter(prefix + ".training_units") = last_by_pc_.size();
}

}  // namespace voyager::prefetch

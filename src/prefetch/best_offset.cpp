#include "prefetch/best_offset.hpp"

#include <algorithm>

#include "util/types.hpp"

namespace voyager::prefetch {

const std::vector<int> &
BestOffset::offset_list()
{
    // Offsets whose prime factors are in {2, 3, 5}, up to 256 — the
    // list from the original BO paper.
    static const std::vector<int> offsets = [] {
        std::vector<int> out;
        for (int d = 1; d <= 256; ++d) {
            int n = d;
            for (int f : {2, 3, 5})
                while (n % f == 0)
                    n /= f;
            if (n == 1)
                out.push_back(d);
        }
        return out;
    }();
    return offsets;
}

BestOffset::BestOffset(const BestOffsetConfig &cfg)
    : cfg_(cfg), scores_(offset_list().size(), 0)
{
}

void
BestOffset::rr_insert(Addr line)
{
    if (!rr_set_.insert(line))
        return;  // already recent
    if (rr_ring_.size() < cfg_.rr_size) {
        rr_ring_.push_back(line);
        return;
    }
    if (rr_ring_.empty()) {  // rr_size 0: the table holds nothing
        rr_set_.erase(line);
        return;
    }
    // Full: the new line replaces the oldest.
    rr_set_.erase(rr_ring_[rr_head_]);
    rr_ring_[rr_head_] = line;
    if (++rr_head_ == rr_ring_.size())
        rr_head_ = 0;
}

void
BestOffset::finish_phase()
{
    const auto &offs = offset_list();
    int best = 0;
    int best_score = cfg_.score_threshold - 1;
    for (std::size_t i = 0; i < offs.size(); ++i) {
        if (scores_[i] > best_score) {
            best_score = scores_[i];
            best = offs[i];
        }
    }
    best_offset_ = best;  // 0 when nothing reached the threshold
    std::fill(scores_.begin(), scores_.end(), 0);
    round_ = 0;
}

std::vector<Addr>
BestOffset::on_access(const sim::LlcAccess &access)
{
    const Addr line = access.line;
    const auto &offs = offset_list();

    // --- Learning: test one candidate offset per access. ---
    const int d = offs[test_cursor_];
    if (rr_set_.contains(line - static_cast<Addr>(d))) {
        if (++scores_[test_cursor_] >= cfg_.max_score) {
            best_offset_ = d;
            std::fill(scores_.begin(), scores_.end(), 0);
            round_ = 0;
            test_cursor_ = 0;
        }
    }
    if (++test_cursor_ >= offs.size()) {
        test_cursor_ = 0;
        if (++round_ >= cfg_.max_rounds)
            finish_phase();
    }
    rr_insert(line);

    // --- Prediction: X + D, X + 2D, ... with the adopted offset. ---
    std::vector<Addr> out;
    if (best_offset_ != 0) {
        for (std::uint32_t k = 1; k <= cfg_.degree; ++k) {
            const Addr cand =
                line + static_cast<Addr>(best_offset_) * k;
            if (cfg_.same_page_only &&
                page_of_line(cand) != page_of_line(line)) {
                break;
            }
            out.push_back(cand);
        }
    }
    return out;
}

std::uint64_t
BestOffset::storage_bytes() const
{
    // RR table entries + one score per candidate offset.
    return cfg_.rr_size * 8 + scores_.size() * 2;
}

void
BestOffset::export_stats(StatRegistry &reg,
                         const std::string &prefix) const
{
    Prefetcher::export_stats(reg, prefix);
    reg.gauge(prefix + ".current_offset") = best_offset_;
    reg.counter(prefix + ".learning_round") =
        static_cast<std::uint64_t>(round_ < 0 ? 0 : round_);
    reg.counter(prefix + ".rr_occupancy") = rr_set_.size();
}

}  // namespace voyager::prefetch

#include "core/labeler.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/decode.hpp"

namespace voyager::core {

std::string
label_scheme_name(LabelScheme s)
{
    switch (s) {
      case LabelScheme::Global:
        return "global";
      case LabelScheme::Pc:
        return "pc";
      case LabelScheme::BasicBlock:
        return "basic_block";
      case LabelScheme::Spatial:
        return "spatial";
      case LabelScheme::CoOccurrence:
        return "co_occurrence";
    }
    return "?";
}

std::vector<LabelScheme>
all_label_schemes()
{
    // A loop, not an initializer list: GCC 12 misreports the inlined
    // copy of a 5-byte enum initializer list as uninitialized
    // (-Wmaybe-uninitialized) wherever VoyagerConfig is built.
    std::vector<LabelScheme> out;
    for (std::size_t s = 0; s < kNumLabelSchemes; ++s)
        out.push_back(static_cast<LabelScheme>(s));
    return out;
}

std::vector<LabelSet>
compute_labels(const std::vector<LlcAccess> &stream,
               const LabelerConfig &cfg)
{
    const std::size_t n = stream.size();
    std::vector<LabelSet> labels(n);

    // Backward passes: next load globally / by PC / by basic block.
    // Indices (not lines) are tracked so the label horizon can bound
    // how far ahead a label may point.
    {
        const std::size_t horizon = cfg.label_horizon;
        auto within = [&](std::size_t from, std::size_t at) {
            return horizon == 0 || at - from <= horizon;
        };
        std::optional<std::size_t> next_global;
        std::unordered_map<Addr, std::size_t> next_by_pc;
        std::unordered_map<Addr, std::size_t> next_by_bb;
        for (std::size_t i = n; i-- > 0;) {
            const auto &a = stream[i];
            const Addr bb = a.pc >> cfg.basic_block_shift;
            if (next_global && within(i, *next_global)) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::Global)] = stream[*next_global].line;
            }
            if (auto it = next_by_pc.find(a.pc);
                it != next_by_pc.end() && within(i, it->second)) {
                labels[i][static_cast<std::size_t>(LabelScheme::Pc)] =
                    stream[it->second].line;
            }
            if (auto it = next_by_bb.find(bb);
                it != next_by_bb.end() && within(i, it->second)) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::BasicBlock)] = stream[it->second].line;
            }
            if (a.is_load) {
                next_global = i;
                next_by_pc[a.pc] = i;
                next_by_bb[bb] = i;
            }
        }
    }

    // Forward scan: spatial label (first future load within range).
    for (std::size_t i = 0; i < n; ++i) {
        const auto line = static_cast<std::int64_t>(stream[i].line);
        const std::size_t end = std::min(n, i + 1 + cfg.spatial_horizon);
        for (std::size_t j = i + 1; j < end; ++j) {
            if (!stream[j].is_load)
                continue;
            const auto cand = static_cast<std::int64_t>(stream[j].line);
            if (std::llabs(cand - line) <= cfg.spatial_range) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::Spatial)] = stream[j].line;
                break;
            }
        }
    }

    // Co-occurrence: the line most frequently observed in the
    // 10-access windows following this line's occurrences (a stable,
    // highly predictable association — the paper's vec-follows-upd
    // example), attached at an occurrence only when it actually
    // materializes in that window, so the label is also a valid
    // prefetch target there.
    {
        std::unordered_map<Addr, std::unordered_map<Addr, std::uint32_t>>
            follower_counts;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr a = stream[i].line;
            const std::size_t end =
                std::min(n, i + 1 + cfg.cooccurrence_window);
            auto &counts = follower_counts[a];
            for (std::size_t j = i + 1; j < end; ++j) {
                if (stream[j].is_load && stream[j].line != a)
                    ++counts[stream[j].line];
            }
        }
        std::unordered_map<Addr, Addr> best;
        for (const auto &[line, counts] : follower_counts) {
            Addr arg = 0;
            std::uint32_t mx = 0;
            for (const auto &[cand, cnt] : counts) {
                if (cnt > mx || (cnt == mx && cand < arg)) {
                    mx = cnt;
                    arg = cand;
                }
            }
            if (mx > 0)
                best.emplace(line, arg);
        }
        for (std::size_t i = 0; i < n; ++i) {
            auto it = best.find(stream[i].line);
            if (it == best.end())
                continue;
            const std::size_t end =
                std::min(n, i + 1 + cfg.cooccurrence_window);
            for (std::size_t j = i + 1; j < end; ++j) {
                if (stream[j].is_load && stream[j].line == it->second) {
                    labels[i][static_cast<std::size_t>(
                        LabelScheme::CoOccurrence)] = it->second;
                    break;
                }
            }
        }
    }
    return labels;
}

std::vector<Addr>
distinct_labels(const LabelSet &set,
                const std::vector<LabelScheme> &enabled)
{
    std::vector<Addr> out;
    decode_candidates(
        enabled, enabled.size(),
        [&](LabelScheme s) { return set[static_cast<std::size_t>(s)]; },
        out);
    return out;
}

}  // namespace voyager::core

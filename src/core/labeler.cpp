#include "core/labeler.hpp"

#include <algorithm>

#include "core/decode.hpp"
#include "util/flat_hash.hpp"

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
compute_labels(const std::vector<LlcAccess> &stream)
{
    const std::size_t n = stream.size();
    std::vector<LabelSet> labels(n);

    // Backward passes: next load globally / by PC / by basic block.
    // Indices (not lines) are tracked so the label horizon can bound
    // how far ahead a label may point.
    {
        auto within = [](std::size_t from, std::size_t at) {
            return at - from <= kLabelHorizon;
        };
        std::optional<std::size_t> next_global;
        FlatHashMap<Addr, std::size_t> next_by_pc;
        FlatHashMap<Addr, std::size_t> next_by_bb;
        for (std::size_t i = n; i-- > 0;) {
            const auto &a = stream[i];
            const Addr bb = a.pc >> kBasicBlockShift;
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
        const std::size_t end = std::min(n, i + 1 + kSpatialHorizon);
        for (std::size_t j = i + 1; j < end; ++j) {
            if (!stream[j].is_load)
                continue;
            const auto cand = static_cast<std::int64_t>(stream[j].line);
            if (std::llabs(cand - line) <= kSpatialRange) {
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
    //
    // Each distinct line gets a dense id; the occurrences of one id
    // are visited together and their followers counted in one count
    // array reused (and reset) across ids. The best follower is the
    // highest count, ties to the smaller line address: a total order,
    // so the visiting order cannot change a label (DESIGN.md
    // decision 15).
    {
        constexpr std::uint32_t kNone = ~std::uint32_t{0};
        FlatHashMap<Addr, std::uint32_t> id_of;
        std::vector<Addr> line_of;
        std::vector<std::uint32_t> id(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto [it, fresh] = id_of.emplace(
                stream[i].line, static_cast<std::uint32_t>(line_of.size()));
            if (fresh)
                line_of.push_back(stream[i].line);
            id[i] = it->second;
        }
        const std::size_t ids = line_of.size();

        // Occurrence indices grouped by id, ascending within a group.
        std::vector<std::uint32_t> first(ids + 1, 0);
        for (std::size_t i = 0; i < n; ++i)
            ++first[id[i] + 1];
        for (std::size_t k = 0; k < ids; ++k)
            first[k + 1] += first[k];
        std::vector<std::uint32_t> occ(n);
        {
            std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
            for (std::size_t i = 0; i < n; ++i)
                occ[fill[id[i]]++] = static_cast<std::uint32_t>(i);
        }

        std::vector<std::uint32_t> best(ids, kNone);
        std::vector<std::uint32_t> count(ids, 0);
        std::vector<std::uint32_t> seen;
        for (std::uint32_t k = 0; k < ids; ++k) {
            for (std::uint32_t o = first[k]; o < first[k + 1]; ++o) {
                const std::size_t i = occ[o];
                const std::size_t end =
                    std::min(n, i + 1 + kCooccurrenceWindow);
                for (std::size_t j = i + 1; j < end; ++j) {
                    if (stream[j].is_load && id[j] != k &&
                        count[id[j]]++ == 0)
                        seen.push_back(id[j]);
                }
            }
            std::uint32_t mx = 0;
            for (const std::uint32_t c : seen) {
                if (count[c] > mx ||
                    (count[c] == mx && line_of[c] < line_of[best[k]])) {
                    mx = count[c];
                    best[k] = c;
                }
                count[c] = 0;
            }
            seen.clear();
        }

        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t b = best[id[i]];
            if (b == kNone)
                continue;
            const std::size_t end =
                std::min(n, i + 1 + kCooccurrenceWindow);
            for (std::size_t j = i + 1; j < end; ++j) {
                if (stream[j].is_load && id[j] == b) {
                    labels[i][static_cast<std::size_t>(
                        LabelScheme::CoOccurrence)] = line_of[b];
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

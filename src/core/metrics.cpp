#include "core/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "core/labeler.hpp"
#include "prefetch/hybrid.hpp"

namespace voyager::core {

UnifiedMetric
unified_accuracy_coverage(const std::vector<LlcAccess> &stream,
                          const std::vector<std::vector<Addr>> &predictions,
                          std::size_t first_index, std::size_t horizon)
{
    UnifiedMetric m;
    const std::size_t n = stream.size();
    for (std::size_t i = first_index; i < n; ++i) {
        if (i >= predictions.size())
            break;
        ++m.evaluated;
        const auto &preds = predictions[i];
        if (preds.empty())
            continue;
        const std::size_t end = std::min(n, i + 1 + horizon);
        bool hit = false;
        for (std::size_t j = i + 1; j < end && !hit; ++j) {
            if (!stream[j].is_load)
                continue;
            hit = std::find(preds.begin(), preds.end(), stream[j].line) !=
                  preds.end();
        }
        m.correct += hit ? 1 : 0;
    }
    return m;
}

std::vector<std::uint8_t>
covered_flags(const std::vector<LlcAccess> &stream,
              const std::vector<std::vector<Addr>> &predictions,
              std::size_t first_index, std::size_t horizon)
{
    const std::size_t n = stream.size();
    std::vector<std::uint8_t> covered(n, 0);
    // For each prediction, mark the next occurrence of the predicted
    // line within the horizon as covered.
    std::unordered_map<Addr, std::size_t> last_predicted_at;
    for (std::size_t i = first_index; i < n; ++i) {
        // Check whether this access was predicted recently.
        if (auto it = last_predicted_at.find(stream[i].line);
            it != last_predicted_at.end() &&
            i - it->second <= horizon) {
            covered[i] = 1;
        }
        if (i < predictions.size()) {
            for (const Addr p : predictions[i])
                last_predicted_at[p] = i;
        }
    }
    return covered;
}

PatternBreakdown
classify_patterns(const std::vector<LlcAccess> &stream,
                  const std::vector<std::uint8_t> &covered,
                  std::size_t first_index)
{
    // Followers that count as co-occurring (the paper's k = 10).
    constexpr std::size_t kCooccurK = 10;
    PatternBreakdown b;
    const std::size_t n = stream.size();

    // Follower frequency of each line's successor (for the
    // co-occurrence class).
    std::unordered_map<Addr, std::unordered_map<Addr, std::uint32_t>>
        followers;
    for (std::size_t i = 1; i < n; ++i)
        ++followers[stream[i - 1].line][stream[i].line];
    // Reduce each map to its top-k follower set.
    std::unordered_map<Addr, std::unordered_set<Addr>> topk;
    for (const auto &[line, counts] : followers) {
        std::vector<std::pair<std::uint32_t, Addr>> items;
        items.reserve(counts.size());
        for (const auto &[f, c] : counts)
            items.emplace_back(c, f);
        std::sort(items.begin(), items.end(),
                  [](const auto &x, const auto &y) {
                      if (x.first != y.first)
                          return x.first > y.first;
                      return x.second < y.second;
                  });
        auto &set = topk[line];
        for (std::size_t k = 0; k < std::min(kCooccurK, items.size());
             ++k)
            set.insert(items[k].second);
    }

    const std::size_t start = std::max<std::size_t>(first_index, 1);
    std::unordered_set<Addr> seen;
    for (std::size_t i = 0; i < start && i < n; ++i)
        seen.insert(stream[i].line);

    for (std::size_t i = start; i < n; ++i) {
        const Addr line = stream[i].line;
        const bool compulsory = !seen.count(line);
        seen.insert(line);
        if (!stream[i].is_load)
            continue;
        ++b.total;
        const std::int64_t delta =
            static_cast<std::int64_t>(line) -
            static_cast<std::int64_t>(stream[i - 1].line);
        const bool spatial = std::llabs(delta) <= kSpatialRange;
        if (covered[i]) {
            if (spatial)
                ++b.covered_spatial;
            else
                ++b.covered_non_spatial;
            continue;
        }
        if (compulsory) {
            ++b.uncovered_compulsory;
        } else if (spatial) {
            ++b.uncovered_spatial;
        } else {
            auto it = topk.find(stream[i - 1].line);
            const bool cooc =
                it != topk.end() && it->second.count(line) != 0;
            if (cooc)
                ++b.uncovered_cooccurrence;
            else
                ++b.uncovered_other;
        }
    }
    return b;
}

std::vector<std::vector<Addr>>
run_prefetcher_on_stream(sim::Prefetcher &pf,
                         const std::vector<LlcAccess> &stream)
{
    std::vector<std::vector<Addr>> out;
    out.reserve(stream.size());
    for (const auto &a : stream)
        out.push_back(pf.on_access(a));
    return out;
}

std::vector<std::vector<Addr>>
isb_bo_fallback_predictions(const std::vector<LlcAccess> &stream,
                            std::uint32_t degree)
{
    const auto pf = prefetch::make_isb_bo_hybrid(degree);
    return run_prefetcher_on_stream(*pf, stream);
}

}  // namespace voyager::core

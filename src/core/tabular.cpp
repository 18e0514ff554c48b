/**
 * @file
 * TabularTable implementation: layered context tables compiled from
 * teacher predictions (DESIGN.md §5.18).
 */
#include "core/tabular.hpp"

#include <algorithm>
#include <cassert>

namespace voyager::core {

namespace {

/** Frequencies saturate here; CLOCK halving then needs at most eight
 *  sweeps over a victim before it reaches zero. */
constexpr std::uint32_t kMaxFreq = 255;

}  // namespace

TabularTable::TabularTable(const TabularConfig &cfg)
    : cfg_(cfg),
      degree_(std::min<std::uint32_t>(cfg.degree ? cfg.degree : 1,
                                      kMaxDegree))
{
    l1_.history = std::max<std::size_t>(cfg_.l1_history, 1);
    // The backoff level must be strictly shorter than L1; a zero
    // length (possible when l1_history == 1) disables it.
    l2_.history = std::min(cfg_.l2_history, l1_.history - 1);

    const std::uint64_t per_entry = entry_bytes();
    std::uint64_t l2_budget = 0;
    if (l2_.history > 0) {
        const double f =
            std::clamp(cfg_.l2_budget_fraction, 0.0, 0.9);
        l2_budget = static_cast<std::uint64_t>(
            static_cast<double>(cfg_.budget_bytes) * f);
    }
    const std::uint64_t l1_budget = cfg_.budget_bytes - l2_budget;
    // Strict budget: a level too small for even one entry stays
    // empty and every probe against it misses.
    l1_.max_entries = l1_budget / per_entry;
    l2_.max_entries =
        l2_.history > 0 ? l2_budget / per_entry : 0;
    l1_.ring.reserve(l1_.max_entries);
    l2_.ring.reserve(l2_.max_entries);
    l1_.table.reserve(l1_.max_entries);
    if (l2_.max_entries > 0)
        l2_.table.reserve(l2_.max_entries);
}

std::uint64_t
TabularTable::context_key(std::size_t history, std::int32_t pc,
                          const std::int32_t *page,
                          const std::int32_t *offset,
                          std::size_t n) const
{
    // Salt the chain with the history length so L1 and L2 keys for
    // the same window never collide by construction.
    std::uint64_t k = flat_detail::mix64(
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(history + 1));
    const std::size_t start = n > history ? n - history : 0;
    for (std::size_t i = start; i < n; ++i) {
        const std::uint64_t tok =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(page[i]))
             << 32) |
            static_cast<std::uint32_t>(offset[i]);
        k = flat_detail::mix64(k ^ tok);
    }
    if (cfg_.use_pc)
        k = flat_detail::mix64(
            k ^ (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(pc)) |
                 0x94d049bb13311100ull));
    return k;
}

void
TabularTable::vote(Entry &e,
                   const std::vector<TokenPrediction> &teacher) const
{
    const std::size_t ranks = teacher.size();
    for (std::size_t r = 0; r < ranks; ++r) {
        const auto &t = teacher[r];
        const std::uint16_t w =
            static_cast<std::uint16_t>(ranks - r);
        const std::int16_t off = static_cast<std::int16_t>(t.offset);
        // Existing candidate: saturating vote bump.
        std::size_t slot = e.n;
        for (std::size_t s = 0; s < e.n; ++s) {
            if (e.cand[s].page == t.page && e.cand[s].offset == off) {
                slot = s;
                break;
            }
        }
        if (slot < e.n) {
            const std::uint32_t sum = e.cand[slot].weight + w;
            e.cand[slot].weight = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(sum, 0xffff));
            continue;
        }
        // Free slot, or Misra-Gries style replacement: a newcomer
        // whose rank weight beats the weakest incumbent takes its
        // slot; otherwise the weakest incumbent just decays.
        if (e.n < degree_) {
            e.cand[e.n] = {t.page, off, w};
            ++e.n;
            continue;
        }
        std::size_t weakest = 0;
        for (std::size_t s = 1; s < e.n; ++s)
            if (e.cand[s].weight < e.cand[weakest].weight)
                weakest = s;
        if (e.cand[weakest].weight < w)
            e.cand[weakest] = {t.page, off, w};
        else if (e.cand[weakest].weight > 0)
            --e.cand[weakest].weight;
    }
}

void
TabularTable::observe_level(Level &lvl, std::uint64_t key,
                            const std::vector<TokenPrediction> &teacher)
{
    if (lvl.max_entries == 0)
        return;
    auto it = lvl.table.find(key);
    if (it != lvl.table.end()) {
        it->second.freq = std::min(it->second.freq + 1, kMaxFreq);
        vote(it->second, teacher);
        return;
    }
    if (lvl.table.size() < lvl.max_entries) {
        auto [nit, fresh] = lvl.table.emplace(key);
        assert(fresh);
        nit->second.freq = 1;
        vote(nit->second, teacher);
        lvl.ring.push_back(key);
        ++lvl.admits;
        return;
    }
    // Table full: CLOCK sweep with frequency aging. Each visit halves
    // the pointed entry's frequency; the first entry that reaches
    // zero is evicted and the newcomer reuses its ring slot, so
    // recurring contexts survive while one-shot contexts recycle.
    for (;;) {
        if (lvl.clock >= lvl.ring.size())
            lvl.clock = 0;
        auto vit = lvl.table.find(lvl.ring[lvl.clock]);
        assert(vit != lvl.table.end());
        vit->second.freq >>= 1;
        if (vit->second.freq == 0) {
            lvl.table.erase(lvl.ring[lvl.clock]);
            auto [nit, fresh] = lvl.table.emplace(key);
            assert(fresh);
            nit->second.freq = 1;
            vote(nit->second, teacher);
            lvl.ring[lvl.clock] = key;
            ++lvl.clock;
            ++lvl.admits;
            ++lvl.evictions;
            return;
        }
        ++lvl.clock;
    }
}

void
TabularTable::observe(std::int32_t pc, const std::int32_t *page,
                      const std::int32_t *offset, std::size_t n,
                      const std::vector<TokenPrediction> &teacher)
{
    if (n == 0 || teacher.empty())
        return;
    ++observations_;
    observe_level(l1_, context_key(l1_.history, pc, page, offset, n),
                  teacher);
    if (l2_.max_entries > 0)
        observe_level(l2_,
                      context_key(l2_.history, pc, page, offset, n),
                      teacher);
}

TabularTable::ProbeLevel
TabularTable::probe(std::int32_t pc, const std::int32_t *page,
                    const std::int32_t *offset, std::size_t n,
                    std::vector<TokenPrediction> &out) const
{
    out.clear();
    if (n == 0)
        return ProbeLevel::Miss;
    const Entry *e = nullptr;
    ProbeLevel lvl = ProbeLevel::Miss;
    auto it = l1_.table.find(
        context_key(l1_.history, pc, page, offset, n));
    if (it != l1_.table.end()) {
        e = &it->second;
        lvl = ProbeLevel::L1;
    } else if (l2_.max_entries > 0) {
        auto it2 = l2_.table.find(
            context_key(l2_.history, pc, page, offset, n));
        if (it2 != l2_.table.end()) {
            e = &it2->second;
            lvl = ProbeLevel::L2;
        }
    }
    if (e == nullptr)
        return ProbeLevel::Miss;
    out.reserve(e->n);
    for (std::size_t s = 0; s < e->n; ++s)
        out.push_back({e->cand[s].page, e->cand[s].offset,
                       static_cast<float>(e->cand[s].weight)});
    std::sort(out.begin(), out.end(),
              [](const TokenPrediction &a, const TokenPrediction &b) {
                  if (a.prob != b.prob)
                      return a.prob > b.prob;
                  if (a.page != b.page)
                      return a.page < b.page;
                  return a.offset < b.offset;
              });
    return lvl;
}

std::uint64_t
TabularTable::storage_bytes() const
{
    return (l1_.table.size() + l2_.table.size()) * entry_bytes();
}

void
TabularTable::export_stats(StatRegistry &reg) const
{
    reg.counter("distill.table.budget_bytes") = cfg_.budget_bytes;
    reg.counter("distill.table.bytes") = storage_bytes();
    reg.counter("distill.table.entry_bytes") = entry_bytes();
    reg.counter("distill.table.observations") = observations_;
    reg.counter("distill.table.l1_entries") = l1_.table.size();
    reg.counter("distill.table.l1_capacity") = l1_.max_entries;
    reg.counter("distill.table.l1_admits") = l1_.admits;
    reg.counter("distill.table.l1_evictions") = l1_.evictions;
    reg.counter("distill.table.l2_entries") = l2_.table.size();
    reg.counter("distill.table.l2_capacity") = l2_.max_entries;
    reg.counter("distill.table.l2_admits") = l2_.admits;
    reg.counter("distill.table.l2_evictions") = l2_.evictions;
}

TabularTable
distill_to_table(const EncodedStream &encoded,
                 const std::vector<std::size_t> &indices,
                 const std::vector<std::vector<TokenPrediction>> &teacher,
                 std::size_t seq_len, const TabularConfig &cfg)
{
    assert(indices.size() == teacher.size());
    TabularTable table(cfg);
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        assert(i + 1 >= seq_len && i < encoded.size());
        const std::size_t start = i + 1 - seq_len;
        table.observe(encoded.pc[i], encoded.page.data() + start,
                      encoded.offset.data() + start, seq_len,
                      teacher[j]);
    }
    return table;
}

}  // namespace voyager::core

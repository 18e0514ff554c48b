#include "core/vocab.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace voyager::core {

Vocabulary
Vocabulary::build(const std::vector<LlcAccess> &stream,
                  const VocabConfig &cfg)
{
    Vocabulary v;
    v.cfg_ = cfg;

    // Profiling pass: line and PC frequencies, page-delta frequencies
    // among infrequent lines.
    FreqCounter line_freq;
    for (const auto &a : stream)
        line_freq.add(a.line);

    FreqCounter delta_freq;
    std::optional<Addr> prev;
    for (const auto &a : stream) {
        // PC ids in first-seen order.
        if (!v.pc_ids_.count(a.pc)) {
            v.pc_ids_.emplace(
                a.pc, static_cast<std::int32_t>(v.pc_ids_.size()) + 1);
        }
        const bool frequent =
            !cfg.use_deltas || line_freq.count(a.line) >= kMinAddrFreq;
        if (!frequent)
            v.infrequent_lines_.insert(a.line);
        if (frequent) {
            const Addr page = page_of_line(a.line);
            if (!v.page_ids_.count(page)) {
                v.pages_.push_back(page);
                v.page_ids_.emplace(
                    page, static_cast<std::int32_t>(v.pages_.size()));
            }
        } else if (prev) {
            const std::int64_t dp =
                static_cast<std::int64_t>(page_of_line(a.line)) -
                static_cast<std::int64_t>(page_of_line(*prev));
            delta_freq.add(static_cast<std::uint64_t>(dp));
        }
        prev = a.line;
    }

    // Admit the most frequent page deltas ('d'-marked entries).
    if (cfg.use_deltas) {
        for (const auto &[key, cnt] : delta_freq.top_k(kMaxPageDeltas)) {
            const auto dp = static_cast<std::int64_t>(key);
            v.page_deltas_.push_back(dp);
            v.page_delta_ids_.emplace(
                dp, static_cast<std::int32_t>(v.pages_.size() +
                                              v.page_deltas_.size()));
        }
    }
    return v;
}

Token
Vocabulary::encode(Addr pc, Addr line, std::optional<Addr> prev_line) const
{
    Token t;
    auto pit = pc_ids_.find(pc);
    t.pc = pit == pc_ids_.end() ? kOovPc : pit->second;

    const Addr page = page_of_line(line);
    const auto off = static_cast<std::int32_t>(offset_of_line(line));

    // Missing from the infrequent set means frequent: lines unseen
    // during profiling fall back to the absolute representation.
    const bool frequent = !infrequent_lines_.contains(line);
    if (frequent || !prev_line) {
        auto it = page_ids_.find(page);
        t.page = it == page_ids_.end() ? kOovPage : it->second;
        t.offset = off;
        return t;
    }

    // Infrequent: delta representation relative to the previous access.
    t.is_delta = true;
    const std::int64_t dp =
        static_cast<std::int64_t>(page) -
        static_cast<std::int64_t>(page_of_line(*prev_line));
    auto dit = page_delta_ids_.find(dp);
    if (dit == page_delta_ids_.end()) {
        // Delta not in vocabulary: the access is unrepresentable.
        t.page = kOovPage;
        t.offset = off;
        return t;
    }
    t.page = dit->second;
    const std::int32_t doff =
        off - static_cast<std::int32_t>(offset_of_line(*prev_line));
    t.offset = 64 + (doff + 63);
    return t;
}

std::optional<Addr>
Vocabulary::decode(std::int32_t page_token, std::int32_t offset_token,
                   Addr prev_line) const
{
    if (page_token <= kOovPage || page_token >= num_page_tokens())
        return std::nullopt;

    Addr page;
    if (is_delta_page_token(page_token)) {
        const std::int64_t dp =
            page_deltas_[static_cast<std::size_t>(page_token) -
                         pages_.size() - 1];
        page = static_cast<Addr>(
            static_cast<std::int64_t>(page_of_line(prev_line)) + dp);
    } else {
        page = pages_[static_cast<std::size_t>(page_token) - 1];
    }

    std::int32_t off;
    if (offset_token < 64) {
        off = offset_token;
    } else {
        const std::int32_t doff = offset_token - 64 - 63;
        off = static_cast<std::int32_t>(offset_of_line(prev_line)) + doff;
        if (off < 0 || off >= 64)
            return std::nullopt;  // delta leaves the page
    }
    return make_line(page, static_cast<std::uint64_t>(off));
}

EncodedStream
encode_stream(const std::vector<LlcAccess> &stream, const Vocabulary &vocab)
{
    EncodedStream es;
    es.pc.reserve(stream.size());
    es.page.reserve(stream.size());
    es.offset.reserve(stream.size());
    es.line.reserve(stream.size());
    es.is_load.reserve(stream.size());
    // Pipeline the infrequent-line filter probe: the walker knows its
    // future lines, so warm the filter a few accesses ahead of the
    // encode that reads it (util/flat_hash prefetch contract).
    constexpr std::size_t kLookahead = 12;
    std::optional<Addr> prev;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto &a = stream[i];
        if (i + kLookahead < stream.size())
            vocab.prefetch_line(stream[i + kLookahead].line);
        const Token t = vocab.encode(a.pc, a.line, prev);
        es.pc.push_back(t.pc);
        es.page.push_back(t.page);
        es.offset.push_back(t.offset);
        es.line.push_back(a.line);
        es.is_load.push_back(a.is_load ? 1 : 0);
        prev = a.line;
    }
    return es;
}

}  // namespace voyager::core

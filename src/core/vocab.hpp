/**
 * @file
 * Voyager's hierarchical vocabulary (paper §4.2-4.3): addresses are
 * decomposed into page tokens and offset tokens; addresses that occur
 * fewer than `kMinAddrFreq` times are represented as (page-delta,
 * offset-delta) tokens instead, which lets the model prefetch
 * compulsory misses. Infrequent addresses are found by a profiling
 * pass over the training prefix, as in the paper.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/flat_hash.hpp"
#include "util/types.hpp"

namespace voyager::core {

using sim::LlcAccess;

/** Addresses seen fewer times than this become delta tokens. */
inline constexpr std::uint64_t kMinAddrFreq = 2;
/** How many distinct page deltas get tokens (paper: ~10). */
inline constexpr std::size_t kMaxPageDeltas = 10;

/** Vocabulary construction knobs. */
struct VocabConfig
{
    /** Master switch for the delta vocabulary (§4.3 ablation). */
    bool use_deltas = true;
};

/** Token-ids of one access under the hierarchical vocabulary. */
struct Token
{
    std::int32_t pc = 0;
    std::int32_t page = 0;    ///< absolute page token or delta token
    std::int32_t offset = 0;  ///< [0,64) absolute or 64+ delta token
    bool is_delta = false;
};

/**
 * The hierarchical (page, offset, PC) vocabulary.
 *
 * Token spaces:
 *  - PC:     0 = OOV, then one id per distinct PC.
 *  - page:   0 = OOV, ids [1, num_real_pages] are absolute pages,
 *            then one id per admitted page delta ('d'-marked entries).
 *  - offset: [0, 64) absolute line offsets, [64, 191) are offset
 *            deltas (delta + 63 + 64), so decode is closed-form.
 */
class Vocabulary
{
  public:
    /** Offset-token space size: 64 absolute + 127 delta values. */
    static constexpr std::int32_t kOffsetTokens = 64 + 127;
    static constexpr std::int32_t kOovPage = 0;
    static constexpr std::int32_t kOovPc = 0;

    /** Profile `stream` and build the vocabulary. */
    static Vocabulary build(const std::vector<LlcAccess> &stream,
                            const VocabConfig &cfg = {});

    /**
     * Encode an access. `prev_line` is the preceding access's line
     * (used for the delta representation); pass std::nullopt at t=0.
     */
    Token encode(Addr pc, Addr line,
                 std::optional<Addr> prev_line) const;

    /**
     * Decode a (page, offset) token pair into a line address.
     * Delta tokens are resolved against `prev_line`. Returns nullopt
     * for OOV pages or offset deltas that leave the page.
     */
    std::optional<Addr> decode(std::int32_t page_token,
                               std::int32_t offset_token,
                               Addr prev_line) const;

    std::int32_t num_pc_tokens() const
    {
        return static_cast<std::int32_t>(pc_ids_.size()) + 1;
    }
    std::int32_t num_page_tokens() const
    {
        return static_cast<std::int32_t>(pages_.size() +
                                         page_deltas_.size()) + 1;
    }
    std::int32_t num_offset_tokens() const { return kOffsetTokens; }
    std::size_t num_real_pages() const { return pages_.size(); }
    std::size_t num_page_delta_tokens() const
    {
        return page_deltas_.size();
    }

    /** True if the page token is a delta ('d'-marked) entry. */
    bool
    is_delta_page_token(std::int32_t t) const
    {
        return t > static_cast<std::int32_t>(pages_.size());
    }

    /** Admitted page deltas in token order (most frequent first). */
    const std::vector<std::int64_t> &page_deltas() const
    {
        return page_deltas_;
    }

    /**
     * Warm the infrequent-line filter for an upcoming encode of
     * `line`. Callers that walk a known stream (encode_stream) issue
     * this a few accesses ahead so the filter probe — the first
     * table encode() touches, and usually a miss, since the frequent
     * majority of lines is absent by design — never stalls. Tag-only:
     * see FlatHashSet::prefetch_tag.
     */
    void
    prefetch_line(Addr line) const
    {
        infrequent_lines_.prefetch_tag(line);
    }

    const VocabConfig &config() const { return cfg_; }

  private:
    VocabConfig cfg_;
    FlatHashMap<Addr, std::int32_t> pc_ids_;
    FlatHashMap<Addr, std::int32_t> page_ids_;  ///< page -> token
    std::vector<Addr> pages_;                   ///< token-1 -> page
    FlatHashMap<std::int64_t, std::int32_t> page_delta_ids_;
    std::vector<std::int64_t> page_deltas_;
    /**
     * Lines too rare for absolute tokens (paper §4.3). Missing means
     * frequent, so only the infrequent minority is stored.
     */
    FlatHashSet<Addr> infrequent_lines_;
};

/** Per-access token ids for a whole stream, precomputed once. */
struct EncodedStream
{
    std::vector<std::int32_t> pc;
    std::vector<std::int32_t> page;
    std::vector<std::int32_t> offset;
    std::vector<Addr> line;
    std::vector<std::uint8_t> is_load;

    std::size_t size() const { return line.size(); }
};

/** Encode every access of a stream with the vocabulary. */
EncodedStream encode_stream(const std::vector<LlcAccess> &stream,
                            const Vocabulary &vocab);

}  // namespace voyager::core

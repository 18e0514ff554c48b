/**
 * @file
 * Table-driven test of core::decode_candidates, the one
 * rank→decode→dedup loop behind predict_on, the serve dispatcher, the
 * heuristic rung and the table prefetcher. The end-to-end check
 * through the server lives in serve_test
 * (PrefetchServerTest.DegreeAndDedupMatchThePredictOnLoop).
 */
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/decode.hpp"

namespace voyager {
namespace {

/** Candidate c decodes to line c, except 0, which is undecodable. */
std::optional<Addr>
decode_nonzero(int c)
{
    if (c == 0)
        return std::nullopt;
    return static_cast<Addr>(c);
}

TEST(DecodeCandidates, RankSkipDedupTruncate)
{
    const struct
    {
        const char *what;
        std::vector<int> cands;
        std::size_t degree;
        std::vector<Addr> want;
        /** Candidates decoded: the walk stops as soon as `degree`
         *  lines are out, before decoding the next candidate. */
        std::size_t decodes;
    } cases[] = {
        {"undecodable skipped", {0, 5, 0, 6}, 2, {5, 6}, 4},
        {"duplicate dropped", {5, 5, 6}, 2, {5, 6}, 3},
        {"stop at degree", {5, 6, 7, 8}, 2, {5, 6}, 2},
        {"rank order kept", {9, 3, 7}, 3, {9, 3, 7}, 3},
        {"degree 0 is empty", {5, 6}, 0, {}, 0},
        {"short list", {0, 5, 5, 0}, 3, {5}, 4},
        {"no candidates", {}, 2, {}, 0},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        std::size_t decodes = 0;
        std::vector<Addr> out;
        core::decode_candidates(
            c.cands, c.degree,
            [&](int cand) {
                ++decodes;
                return decode_nonzero(cand);
            },
            out);
        EXPECT_EQ(out, c.want);
        EXPECT_EQ(decodes, c.decodes);
    }
}

}  // namespace
}  // namespace voyager

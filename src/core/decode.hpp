/**
 * @file
 * decode_candidates: the one rank→decode→dedup loop behind predict_on,
 * the serve dispatcher, the heuristic rung and the table prefetcher.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace voyager::core {

/** Candidates fetched beyond the degree, so undecodable or duplicate
 *  ones can be skipped without coming up short. */
inline constexpr std::uint32_t kDecodeOverFetch = 2;

/**
 * Walk `cands` in rank order, appending each line `decode(cand)`
 * yields (a std::optional<Addr>) to the caller's empty `out`: skip
 * undecodable candidates and lines already out, and stop before the
 * next decode once `out` holds `degree` lines.
 */
template <typename Candidates, typename DecodeFn>
void
decode_candidates(const Candidates &cands, std::size_t degree,
                  DecodeFn &&decode, std::vector<Addr> &out)
{
    for (const auto &c : cands) {
        if (out.size() >= degree)
            break;
        const std::optional<Addr> line = decode(c);
        if (line && std::find(out.begin(), out.end(), *line) == out.end())
            out.push_back(*line);
    }
}

}  // namespace voyager::core

/**
 * @file
 * Factory for rule-based prefetchers by name.
 */
#pragma once

#include <memory>
#include <string>

#include "sim/prefetcher.hpp"

namespace voyager::prefetch {

/**
 * Create a rule-based prefetcher.
 * @param name one of: none, stms, isb, domino, bo, ip_stride,
 *             next_line, sms, stream_group, isb+bo
 * @throws std::invalid_argument for unknown names.
 */
std::unique_ptr<sim::Prefetcher>
make_prefetcher(const std::string &name, std::uint32_t degree = 1);

}  // namespace voyager::prefetch

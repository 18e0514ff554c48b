/**
 * @file
 * Small string helpers used across modules (splitting, joining,
 * human-readable byte counts).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace voyager {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Trim ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** Human-readable byte count, e.g. "1.5 MiB". */
std::string human_bytes(std::uint64_t bytes);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace voyager

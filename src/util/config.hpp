/**
 * @file
 * Minimal typed key/value configuration with command-line parsing.
 * Bench harnesses and examples accept `--key=value` flags; modules read
 * their parameters through typed getters with defaults.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace voyager {

/** Typed key/value store parsed from `--key=value` style arguments. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv-style flags. Accepts `--key=value` and bare `--flag`
     * (stored as "true"). Unrecognized positional arguments throw.
     */
    static Config from_args(int argc, const char *const *argv);

    std::string get_string(const std::string &key,
                           const std::string &def = "") const;
    /**
     * Numeric getters return `def` when the key is absent. A present
     * value must be one whole decimal number in range for the type:
     * trailing junk ("12abc"), a sign on get_uint ("-1") or overflow
     * throws std::invalid_argument naming the key and the value.
     */
    std::uint64_t get_uint(const std::string &key, std::uint64_t def) const;
    double get_double(const std::string &key, double def) const;
    /**
     * `def` when the key is absent (a bare `--key` reads "true").
     * Accepts 1/true/yes/on and 0/false/no/off; any other value
     * ("ture") throws std::invalid_argument naming the key and value.
     */
    bool get_bool(const std::string &key, bool def) const;

  private:
    std::map<std::string, std::string> values_;
};

}  // namespace voyager

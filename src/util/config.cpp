#include "util/config.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace voyager {

namespace {

/**
 * Parse the whole of `text` as a T. std::from_chars takes no leading
 * '+' or whitespace, a '-' only for signed types, and reports
 * overflow, so "12abc", "-1" as unsigned and 2^64 all throw.
 */
template <typename T>
T
parse_number(const std::string &key, const std::string &text,
             const char *type)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
        throw std::invalid_argument(
            "--" + key + "=" + text + ": not " + type +
            (ec == std::errc::result_out_of_range ? " (out of range)"
                                                  : ""));
    }
    return value;
}

}  // namespace

Config
Config::from_args(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            throw std::invalid_argument("unexpected positional argument: " +
                                        arg);
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq == std::string::npos)
            cfg.values_[arg] = "true";
        else
            cfg.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
    return cfg;
}

std::string
Config::get_string(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::uint64_t
Config::get_uint(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    return it == values_.end()
               ? def
               : parse_number<std::uint64_t>(key, it->second,
                                             "an unsigned integer");
}

double
Config::get_double(const std::string &key, double def) const
{
    auto it = values_.find(key);
    return it == values_.end()
               ? def
               : parse_number<double>(key, it->second, "a number");
}

bool
Config::get_bool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    throw std::invalid_argument("--" + key + "=" + v + ": not a boolean");
}

}  // namespace voyager

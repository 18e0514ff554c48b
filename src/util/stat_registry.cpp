#include "util/stat_registry.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/stat_schema.hpp"

namespace voyager {

const char *
stat_kind_name(StatKind k)
{
    switch (k) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Running:
        return "running";
      case StatKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::string s(buf, res.ptr);
    // Bare "1e+20"-style outputs are valid JSON, as are integers;
    // to_chars always produces a parseable, shortest representation.
    return s;
}

std::string
stat_name_segment(std::string_view label)
{
    std::string out;
    out.reserve(label.size());
    for (const char c : label) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '_' || c == '+' || c == '-') {
            out += c;
        } else if (c >= 'A' && c <= 'Z') {
            out += static_cast<char>(c - 'A' + 'a');
        } else {
            out += '_';
        }
    }
    return out;
}

StatRegistry::Entry &
StatRegistry::get_or_create(const std::string &name, StatKind kind,
                            bool volatile_stat)
{
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != kind)
            throw std::runtime_error(
                "StatRegistry: name collision on '" + name + "': is " +
                stat_kind_name(it->second.kind) + ", requested " +
                stat_kind_name(kind));
        return it->second;
    }
    check_new_stat(name, kind);
    Entry e;
    e.kind = kind;
    e.volatile_stat = volatile_stat;
    return entries_.emplace(name, std::move(e)).first->second;
}

std::uint64_t &
StatRegistry::counter(const std::string &name, bool volatile_stat)
{
    return get_or_create(name, StatKind::Counter, volatile_stat).counter;
}

double &
StatRegistry::gauge(const std::string &name, bool volatile_stat)
{
    return get_or_create(name, StatKind::Gauge, volatile_stat).gauge;
}

RunningStat &
StatRegistry::running(const std::string &name, bool volatile_stat)
{
    Entry &e = get_or_create(name, StatKind::Running, volatile_stat);
    if (!e.running)
        e.running = std::make_unique<RunningStat>();
    return *e.running;
}

Histogram &
StatRegistry::histogram(const std::string &name, double lo, double hi,
                        std::size_t buckets, bool volatile_stat)
{
    Entry &e = get_or_create(name, StatKind::Histogram, volatile_stat);
    if (!e.histogram) {
        e.histogram = std::make_unique<Histogram>(lo, hi, buckets);
    } else if (e.histogram->lo() != lo || e.histogram->hi() != hi ||
               e.histogram->buckets().size() != buckets) {
        throw std::runtime_error(
            "StatRegistry: histogram '" + name +
            "' re-registered with different geometry");
    }
    return *e.histogram;
}

void
StatRegistry::set_meta(const std::string &key, const std::string &value)
{
    meta_[key] = value;
}

bool
StatRegistry::has(const std::string &name) const
{
    return entries_.count(name) > 0;
}

StatKind
StatRegistry::kind(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::runtime_error("StatRegistry: no stat named '" + name +
                                 "'");
    return it->second.kind;
}

void
StatRegistry::clear()
{
    entries_.clear();
    meta_.clear();
}

void
StatRegistry::write_json(std::ostream &os, const EmitOptions &opts) const
{
    os << "{\n";
    os << "  \"schema\": \"" << kStatsSchemaName << "\",\n";
    os << "  \"version\": " << kStatsSchemaVersion << ",\n";
    os << "  \"meta\": {";
    bool first = true;
    for (const auto &[k, v] : meta_) {
        os << (first ? "\n" : ",\n") << "    \"" << json_escape(k)
           << "\": \"" << json_escape(v) << "\"";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"stats\": {";
    first = true;
    for (const auto &[name, e] : entries_) {
        if (e.volatile_stat && !opts.include_volatile)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
           << "\": {\"kind\": \"" << stat_kind_name(e.kind) << "\"";
        switch (e.kind) {
          case StatKind::Counter:
            os << ", \"value\": " << e.counter;
            break;
          case StatKind::Gauge:
            os << ", \"value\": " << json_number(e.gauge);
            break;
          case StatKind::Running: {
            const RunningStat &r = *e.running;
            os << ", \"count\": " << r.count()
               << ", \"mean\": " << json_number(r.mean())
               << ", \"stddev\": " << json_number(r.stddev())
               << ", \"min\": " << json_number(r.min())
               << ", \"max\": " << json_number(r.max())
               << ", \"sum\": " << json_number(r.sum());
            break;
          }
          case StatKind::Histogram: {
            const Histogram &h = *e.histogram;
            os << ", \"lo\": " << json_number(h.lo())
               << ", \"hi\": " << json_number(h.hi())
               << ", \"total\": " << h.total()
               << ", \"underflow\": " << h.underflow()
               << ", \"overflow\": " << h.overflow()
               << ", \"p50\": " << json_number(h.quantile(0.5))
               << ", \"p90\": " << json_number(h.quantile(0.9))
               << ", \"p99\": " << json_number(h.quantile(0.99))
               << ", \"buckets\": [";
            for (std::size_t i = 0; i < h.buckets().size(); ++i)
                os << (i ? ", " : "") << h.buckets()[i];
            os << "]";
            break;
          }
        }
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n";
    os << "}\n";
}

void
StatRegistry::write_csv(std::ostream &os, const EmitOptions &opts) const
{
    os << "name,kind,field,value\n";
    const auto row = [&os](const std::string &name, StatKind k,
                           const char *field, const std::string &value) {
        os << name << ',' << stat_kind_name(k) << ',' << field << ','
           << value << '\n';
    };
    for (const auto &[name, e] : entries_) {
        if (e.volatile_stat && !opts.include_volatile)
            continue;
        switch (e.kind) {
          case StatKind::Counter:
            row(name, e.kind, "value", std::to_string(e.counter));
            break;
          case StatKind::Gauge:
            row(name, e.kind, "value", json_number(e.gauge));
            break;
          case StatKind::Running: {
            const RunningStat &r = *e.running;
            row(name, e.kind, "count", std::to_string(r.count()));
            row(name, e.kind, "mean", json_number(r.mean()));
            row(name, e.kind, "stddev", json_number(r.stddev()));
            row(name, e.kind, "min", json_number(r.min()));
            row(name, e.kind, "max", json_number(r.max()));
            row(name, e.kind, "sum", json_number(r.sum()));
            break;
          }
          case StatKind::Histogram: {
            const Histogram &h = *e.histogram;
            row(name, e.kind, "total", std::to_string(h.total()));
            row(name, e.kind, "underflow",
                std::to_string(h.underflow()));
            row(name, e.kind, "overflow", std::to_string(h.overflow()));
            row(name, e.kind, "p50", json_number(h.quantile(0.5)));
            row(name, e.kind, "p90", json_number(h.quantile(0.9)));
            row(name, e.kind, "p99", json_number(h.quantile(0.99)));
            break;
          }
        }
    }
}

std::string
StatRegistry::json(const EmitOptions &opts) const
{
    std::ostringstream os;
    write_json(os, opts);
    return os.str();
}

}  // namespace voyager

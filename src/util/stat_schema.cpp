#include "util/stat_schema.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string_view>

namespace voyager {

namespace {

using enum StatKind;

/**
 * One declaration: a dotted pattern, relative to its namespace's
 * marker, and the kind every name it matches must have. A segment is
 * a literal, `{a|b|c}` (one of the alternatives) or a literal in which
 * `#` stands for one or more decimal digits.
 */
struct StatDecl
{
    std::string_view pattern;
    StatKind kind;
};

/**
 * A closed namespace: every name starting with `marker` (or, for a
 * marker with a leading '.', containing it) must match one of `decls`
 * in the rest of the name after the marker's first occurrence.
 */
struct ClosedNamespace
{
    std::string_view marker;
    std::span<const StatDecl> decls;
};

// core::export_checkpoint_stats.
constexpr StatDecl kCheckpoint[] = {
    {"{writes|bytes|resumes}", Counter},
};

// nn::export_op_stats' int8 GEMM class (§5.13).
constexpr StatDecl kQgemm[] = {
    {"{calls|ops}", Counter},
    {"seconds", Gauge},
};

// export_health_stats (§5.14).
constexpr StatDecl kHealth[] = {
    {"{checks|skipped_steps|nonfinite_loss|loss_spikes|nonfinite_state|"
     "rollbacks|lr_backoffs|degraded_runs}",
     Counter},
};

// export_fault_stats (§§5.14, 5.19).
constexpr StatDecl kFault[] = {
    {"{plan_sites|injected_grad|injected_weight|injected_loss_spike|"
     "injected_io}",
     Counter},
    {"serve.{stalls|poisoned|floods|misroutes}", Counter},
};

// serve::PrefetchServer::export_stats (§§5.16, 5.19). Rung labels are
// the TokenPredictor engine names, the terminal heuristic rung and
// the test stub.
constexpr StatDecl kServe[] = {
    {"{requests|responses|batches|flushes|padded_rows|lines|tenants|"
     "expired_rows|stall_ticks|misroutes_repaired}",
     Counter},
    {"queue.{cap|shed|shed_quota|dropped_expired}", Counter},
    {"deadline.{miss|met}", Counter},
    {"degrade.rung", Gauge},
    {"degrade.{steps_down|steps_up|predictor_faults}", Counter},
    {"degrade.{fp32|int8|distilled|heuristic|stub}."
     "{responses|deadline_miss}",
     Counter},
    {"{batch_size|queue_depth|wait_ticks}", Histogram},
    {"deadline.slack", Histogram},
    {"forward.seconds", Gauge},
    {"forward.count", Counter},
};

// bench_transformer's sweep (§5.17).
constexpr StatDecl kTransformer[] = {
    {"{xf_prefill|xf_decode|xf_mixed}."
     "{isb|stms|bo|stream_group|voyager}.{acc|cov|us_per_access}",
     Gauge},
};

// prefetch::StreamGroup::export_stats under this prefix (§5.17).
constexpr StatDecl kStreamGroup[] = {
    {"{storage_bytes|streams_created|fast_tracks|stream_evictions|"
     "pc_evictions|patterns_recorded|prefetches_issued|table_pcs|groups}",
     Counter},
};

// bench_micro_hash (§5.15).
constexpr StatDecl kMicroHash[] = {
    {"{vocab|isb}.{insert|hit|hit_serial|miss}.{flat_ns|std_ns|speedup}",
     Gauge},
    {"{vocab|isb}.{keys|flat_storage_bytes}", Counter},
};

// core::TabularTable (table.*), serve::TabularPredictor (serve.*) and
// bench_distill's frontier cells and headline stats (§5.18).
constexpr StatDecl kDistill[] = {
    {"table.{budget_bytes|bytes|entry_bytes|observations|l1_entries|"
     "l1_capacity|l1_admits|l1_evictions|l2_entries|l2_capacity|"
     "l2_admits|l2_evictions}",
     Counter},
    {"serve.{probes|l1_hits|l2_hits|misses|fallback_rows|"
     "fallback_batches|drift_events|drift_rows|tenants}",
     Counter},
    {"serve.hit_rate", Gauge},
    {"frontier.b#_h#.{budget_bytes|bytes|l1_entries|l2_entries|l1_hits|"
     "l2_hits|misses}",
     Counter},
    {"frontier.b#_h#.{hit_rate|unified|table_unified|us_per_sample|"
     "table_us_per_sample|speedup_vs_int8}",
     Gauge},
    {"eval_samples", Counter},
    {"teacher.{unified|int8_unified}", Gauge},
    {"{fp32_us_per_sample|int8_us_per_sample}", Gauge},
    {"best.{speedup_vs_int8|unified}", Gauge},
    {"best.budget_bytes", Counter},
};

// bench_fig17_overhead's int8 compression stats under any prefix
// (§5.13).
constexpr StatDecl kCompressInt8[] = {
    {"{scale_min|scale_max|max_error|rms_error|unified|unified_fp32|"
     "us_per_sample|fp32_us_per_sample}",
     Gauge},
    {"bytes", Counter},
};

constexpr ClosedNamespace kClosed[] = {
    {"checkpoint.", kCheckpoint},
    {"nn.qgemm.", kQgemm},
    {"health.", kHealth},
    {"fault.", kFault},
    {"serve.", kServe},
    {"transformer.", kTransformer},
    {"prefetch.stream_group.", kStreamGroup},
    {"micro_hash.", kMicroHash},
    {"distill.", kDistill},
    {".compress.int8.", kCompressInt8},
};

/** Split on `sep`; empty pieces are kept. */
std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    for (std::size_t pos = 0;;) {
        const std::size_t end = s.find(sep, pos);
        out.push_back(s.substr(pos, end - pos));
        if (end == std::string_view::npos)
            return out;
        pos = end + 1;
    }
}

/** The alternatives of a `{a|b}` pattern segment, or the segment. */
std::vector<std::string_view>
alternatives(std::string_view seg)
{
    if (seg.front() != '{')
        return {seg};
    return split(seg.substr(1, seg.size() - 2), '|');
}

/** Does `seg` match literal `lit`, where '#' takes one or more digits? */
bool
literal_matches(std::string_view lit, std::string_view seg)
{
    std::size_t i = 0;
    for (const char c : lit) {
        if (c != '#') {
            if (i == seg.size() || seg[i++] != c)
                return false;
            continue;
        }
        const std::size_t start = i;
        while (i < seg.size() && seg[i] >= '0' && seg[i] <= '9')
            ++i;
        if (i == start)
            return false;
    }
    return i == seg.size();
}

bool
pattern_matches(std::string_view pattern, std::string_view rest)
{
    const auto pats = split(pattern, '.');
    const auto segs = split(rest, '.');
    if (pats.size() != segs.size())
        return false;
    for (std::size_t i = 0; i < pats.size(); ++i) {
        const auto alts = alternatives(pats[i]);
        if (std::none_of(alts.begin(), alts.end(), [&](auto alt) {
                return literal_matches(alt, segs[i]);
            }))
            return false;
    }
    return true;
}

/** Append every name `pattern` expands to, after `prefix`. */
void
expand(std::string_view pattern, const std::string &prefix,
       StatKind kind, std::vector<std::pair<std::string, StatKind>> &out)
{
    const std::size_t dot = pattern.find('.');
    for (const std::string_view alt :
         alternatives(pattern.substr(0, dot))) {
        const std::string name = prefix + std::string(alt);
        if (dot == std::string_view::npos)
            out.emplace_back(name, kind);
        else
            expand(pattern.substr(dot + 1), name + ".", kind, out);
    }
}

}  // namespace

void
check_new_stat(const std::string &name, StatKind kind)
{
    if (name.empty())
        throw std::runtime_error("StatRegistry: empty stat name");
    for (const std::string_view seg : split(name, '.'))
        if (seg.empty() ||
            seg.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_+-") !=
                std::string_view::npos)
            throw std::runtime_error("StatRegistry: bad name segment '" +
                                     std::string(seg) + "' in '" + name +
                                     "'");
    for (const ClosedNamespace &ns : kClosed) {
        const bool infix = ns.marker.front() == '.';
        std::size_t at = std::string::npos;
        if (infix)
            at = name.find(ns.marker);
        else if (name.starts_with(ns.marker))
            at = 0;
        if (at == std::string::npos)
            continue;
        const std::string_view rest =
            std::string_view(name).substr(at + ns.marker.size());
        const auto decl = std::find_if(
            ns.decls.begin(), ns.decls.end(), [&](const StatDecl &d) {
                return pattern_matches(d.pattern, rest);
            });
        // "serve", "compress.int8": the marker without its dots.
        const std::string label(
            ns.marker.substr(infix, ns.marker.size() - 1 - infix));
        if (decl == ns.decls.end())
            throw std::runtime_error("StatRegistry: " + name +
                                     ": unknown " + label + " stat");
        if (decl->kind != kind)
            throw std::runtime_error(
                "StatRegistry: " + name + ": must be a " +
                stat_kind_name(decl->kind) + ", got '" +
                stat_kind_name(kind) + "'");
    }
}

std::vector<std::pair<std::string, StatKind>>
declared_closed_stats()
{
    std::vector<std::pair<std::string, StatKind>> out;
    for (const ClosedNamespace &ns : kClosed) {
        if (ns.marker.front() == '.')
            continue;
        for (const StatDecl &d : ns.decls)
            if (d.pattern.find('#') == std::string_view::npos)
                expand(d.pattern, std::string(ns.marker), d.kind, out);
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace voyager

#include "util/fault_injection.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stat_registry.hpp"
#include "util/string_util.hpp"

namespace voyager {

namespace {

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::NanGrad, "nan_grad"},
    {FaultKind::InfGrad, "inf_grad"},
    {FaultKind::NanWeight, "nan_weight"},
    {FaultKind::LossSpike, "loss_spike"},
    {FaultKind::IoShortWrite, "io_short"},
    {FaultKind::IoFailRename, "io_fail"},
    {FaultKind::ServeStall, "serve_stall"},
    {FaultKind::ServePoison, "serve_poison"},
    {FaultKind::ServeFlood, "serve_flood"},
    {FaultKind::ServeMisroute, "serve_misroute"},
};

const char *
kind_name(FaultKind k)
{
    for (const auto &kn : kKindNames)
        if (kn.kind == k)
            return kn.name;
    return "?";
}

FaultKind
parse_kind(const std::string &name)
{
    for (const auto &kn : kKindNames)
        if (name == kn.name)
            return kn.kind;
    throw std::invalid_argument("fault plan: unknown fault kind '" +
                                name + "'");
}

std::uint64_t
parse_u64(const std::string &s, const char *what)
{
    try {
        std::size_t pos = 0;
        const std::uint64_t v = std::stoull(s, &pos);
        if (pos != s.size())
            throw std::invalid_argument(s);
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(
            std::string("fault plan: bad ") + what + " '" + s + "'");
    }
}

/** `key=value` split; throws when there is no '='. */
std::pair<std::string, std::string>
split_kv(const std::string &s)
{
    const auto eq = s.find('=');
    if (eq == std::string::npos)
        throw std::invalid_argument(
            "fault plan: expected key=value, got '" + s + "'");
    return {trim(s.substr(0, eq)), trim(s.substr(eq + 1))};
}

}  // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const auto &raw : split(spec, ';')) {
        const std::string entry = trim(raw);
        if (entry.empty())
            continue;
        const auto atp = entry.find('@');
        if (atp == std::string::npos) {
            // Site-less segment: only `seed=N` is meaningful.
            const auto [key, value] = split_kv(entry);
            if (key != "seed")
                throw std::invalid_argument(
                    "fault plan: unknown directive '" + entry + "'");
            plan.seed = parse_u64(value, "seed");
            continue;
        }
        FaultSite site;
        site.kind = parse_kind(trim(entry.substr(0, atp)));
        const auto opts = split(entry.substr(atp + 1), ':');
        if (opts.empty())
            throw std::invalid_argument(
                "fault plan: site '" + entry + "' has no event index");
        const auto [key, value] = split_kv(trim(opts[0]));
        if (key != "step" && key != "epoch" && key != "write" &&
            key != "batch" && key != "submit" && key != "response" &&
            key != "at")
            throw std::invalid_argument(
                "fault plan: unknown event key '" + key + "'");
        site.at = parse_u64(value, "event index");
        for (std::size_t i = 1; i < opts.size(); ++i) {
            const auto [ok, ov] = split_kv(trim(opts[i]));
            if (ok == "every") {
                site.every = parse_u64(ov, "every stride");
            } else if (ok == "x") {
                try {
                    site.magnitude = std::stod(ov);
                } catch (const std::exception &) {
                    throw std::invalid_argument(
                        "fault plan: bad magnitude '" + ov + "'");
                }
            } else {
                throw std::invalid_argument(
                    "fault plan: unknown option '" + ok + "'");
            }
        }
        plan.sites.push_back(site);
    }
    return plan;
}

std::string
FaultPlan::to_string() const
{
    std::string out;
    for (const auto &s : sites) {
        if (!out.empty())
            out += ';';
        out += strfmt("%s@at=%llu", kind_name(s.kind),
                      static_cast<unsigned long long>(s.at));
        if (s.every != 0)
            out += strfmt(":every=%llu",
                          static_cast<unsigned long long>(s.every));
        if (s.magnitude != 100.0)
            out += strfmt(":x=%g", s.magnitude);
    }
    if (seed != 1) {
        if (!out.empty())
            out += ';';
        out += strfmt("seed=%llu",
                      static_cast<unsigned long long>(seed));
    }
    return out;
}

std::string
FaultPlan::fingerprint() const
{
    // FNV-1a over the canonical spec, folded to 32 bits.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : to_string()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return strfmt("%08x",
                  static_cast<unsigned>(h ^ (h >> 32)));
}

FaultStats &
fault_stats()
{
    static FaultStats stats;
    return stats;
}

void
export_fault_stats(StatRegistry &reg)
{
    // Deterministic for a fixed seed + plan (and all-zero on a clean
    // run, which the golden fig5_tiny document pins), so the counters
    // are NOT volatile.
    const FaultStats &s = fault_stats();
    reg.counter("fault.plan_sites") = s.plan_sites;
    reg.counter("fault.injected_grad") = s.injected_grad;
    reg.counter("fault.injected_weight") = s.injected_weight;
    reg.counter("fault.injected_loss_spike") = s.injected_loss_spike;
    reg.counter("fault.injected_io") = s.injected_io;
    reg.counter("fault.serve.stalls") = s.serve_stalls;
    reg.counter("fault.serve.poisoned") = s.serve_poisoned;
    reg.counter("fault.serve.floods") = s.serve_floods;
    reg.counter("fault.serve.misroutes") = s.serve_misroutes;
}

void
FaultInjector::install(const FaultPlan &plan)
{
    plan_ = plan;
    fired_.assign(plan_.sites.size(), 0);
    opt_steps_ = 0;
    writes_ = 0;
    serve_batches_ = 0;
    serve_submits_ = 0;
    serve_responses_ = 0;
    fault_stats().reset();
    fault_stats().plan_sites = plan_.sites.size();
}

void
FaultInjector::clear()
{
    install(FaultPlan{});
    fault_stats().reset();
}

bool
FaultInjector::site_fires(std::size_t i, std::uint64_t event)
{
    const FaultSite &s = plan_.sites[i];
    if (s.every == 0) {
        if (fired_[i] || event != s.at)
            return false;
        fired_[i] = 1;
        return true;
    }
    if (event < s.at || (event - s.at) % s.every != 0)
        return false;
    fired_[i] = 1;
    return true;
}

OptStepFaults
FaultInjector::on_optimizer_step()
{
    OptStepFaults out;
    if (!enabled())
        return out;
    const std::uint64_t ev = opt_steps_++;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        const FaultKind k = plan_.sites[i].kind;
        if (k != FaultKind::NanGrad && k != FaultKind::InfGrad &&
            k != FaultKind::NanWeight)
            continue;
        if (!site_fires(i, ev))
            continue;
        if (k == FaultKind::NanWeight) {
            out.weight = std::nan("");
            ++fault_stats().injected_weight;
        } else {
            out.grad = k == FaultKind::NanGrad
                           ? std::nan("")
                           : std::numeric_limits<double>::infinity();
            ++fault_stats().injected_grad;
        }
    }
    return out;
}

double
FaultInjector::on_epoch_loss(std::uint64_t epoch, double loss)
{
    if (!enabled())
        return loss;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        if (plan_.sites[i].kind != FaultKind::LossSpike)
            continue;
        if (!site_fires(i, epoch))
            continue;
        loss = (std::abs(loss) + 1.0) * plan_.sites[i].magnitude;
        ++fault_stats().injected_loss_spike;
    }
    return loss;
}

IoFaultAction
FaultInjector::on_atomic_write()
{
    if (!enabled())
        return IoFaultAction::None;
    const std::uint64_t ev = writes_++;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        const FaultKind k = plan_.sites[i].kind;
        if (k != FaultKind::IoShortWrite && k != FaultKind::IoFailRename)
            continue;
        if (!site_fires(i, ev))
            continue;
        ++fault_stats().injected_io;
        return k == FaultKind::IoShortWrite ? IoFaultAction::ShortWrite
                                            : IoFaultAction::FailRename;
    }
    return IoFaultAction::None;
}

ServeBatchFaults
FaultInjector::on_serve_batch()
{
    ServeBatchFaults out;
    if (!enabled())
        return out;
    const std::uint64_t ev = serve_batches_++;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        const FaultKind k = plan_.sites[i].kind;
        if (k != FaultKind::ServeStall && k != FaultKind::ServePoison)
            continue;
        if (!site_fires(i, ev))
            continue;
        if (k == FaultKind::ServeStall) {
            out.stall_ticks +=
                static_cast<std::uint64_t>(plan_.sites[i].magnitude);
            ++fault_stats().serve_stalls;
        } else {
            out.poison = true;
            ++fault_stats().serve_poisoned;
        }
    }
    return out;
}

std::uint64_t
FaultInjector::on_serve_submit()
{
    if (!enabled())
        return 0;
    const std::uint64_t ev = serve_submits_++;
    std::uint64_t burst = 0;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        if (plan_.sites[i].kind != FaultKind::ServeFlood)
            continue;
        if (!site_fires(i, ev))
            continue;
        burst += static_cast<std::uint64_t>(plan_.sites[i].magnitude);
        ++fault_stats().serve_floods;
    }
    return burst;
}

bool
FaultInjector::corrupt_serve_route(std::uint32_t &tenant)
{
    if (!enabled())
        return false;
    const std::uint64_t ev = serve_responses_++;
    bool any = false;
    for (std::size_t i = 0; i < plan_.sites.size(); ++i) {
        if (plan_.sites[i].kind != FaultKind::ServeMisroute)
            continue;
        if (!site_fires(i, ev))
            continue;
        // XOR with a seed-derived non-zero mask: deterministic, and
        // always changes the id so the server's repair path is
        // observable.
        tenant ^= static_cast<std::uint32_t>(1 + plan_.seed % 7);
        ++fault_stats().serve_misroutes;
        any = true;
    }
    return any;
}

FaultInjector &
fault_injector()
{
    static FaultInjector injector;
    return injector;
}

}  // namespace voyager

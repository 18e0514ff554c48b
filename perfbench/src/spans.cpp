#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

LayerTotals
totals_of(const std::map<std::string, LayerTotals> &totals,
          const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
}

std::int32_t
SpanRecorder::open(std::string name, std::uint64_t request)
{
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back().id;
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back({id, 0, {}});
    return id;
}

void
SpanRecorder::close(std::int32_t id)
{
    if (stack_.empty() || stack_.back().id != id)
        throw std::logic_error("SpanRecorder: spans closed out of order");
    Frame f = std::move(stack_.back());
    stack_.pop_back();
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.self_ns = s.end_ns - s.start_ns - f.child_ns;
    if (!stack_.empty())
        stack_.back().child_ns += s.end_ns - s.start_ns;
    for (Aggregate &a : f.aggs)
        aggs_.push_back(std::move(a));
}

void
SpanRecorder::add(const std::string &name, std::int64_t ns)
{
    if (stack_.empty())
        throw std::logic_error("SpanRecorder: aggregate outside any span");
    Frame &f = stack_.back();
    f.child_ns += ns;
    // A span carries one or two aggregate names; a scan is enough.
    auto it = std::find_if(f.aggs.begin(), f.aggs.end(),
                           [&](const Aggregate &a) { return a.name == name; });
    if (it == f.aggs.end())
        it = f.aggs.insert(f.aggs.end(), Aggregate{name, f.id, 0, 0});
    ++it->calls;
    it->total_ns += ns;
}

std::map<std::string, LayerTotals>
SpanRecorder::totals() const
{
    std::map<std::string, LayerTotals> out;
    for (const Span &s : spans_) {
        LayerTotals &t = out[s.name];
        ++t.calls;
        t.seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        t.self_seconds += static_cast<double>(s.self_ns) * 1e-9;
    }
    for (const Aggregate &a : aggs_) {
        LayerTotals &t = out[a.name];
        t.calls += a.calls;
        t.seconds += static_cast<double>(a.total_ns) * 1e-9;
        t.self_seconds += static_cast<double>(a.total_ns) * 1e-9;
    }
    return out;
}

std::int32_t
SpanRecorder::root_of(std::int32_t id) const
{
    while (id >= 0 && spans_[static_cast<std::size_t>(id)].parent >= 0)
        id = spans_[static_cast<std::size_t>(id)].parent;
    return id;
}

std::map<std::string, double>
SpanRecorder::attribution(const std::string &phase) const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::int32_t root = root_of(static_cast<std::int32_t>(i));
        if (spans_[static_cast<std::size_t>(root)].name != phase)
            continue;
        const bool is_root = spans_[i].parent < 0;
        out[is_root ? "unattributed" : spans_[i].name] +=
            static_cast<double>(spans_[i].self_ns) * 1e-9;
    }
    for (const Aggregate &a : aggs_) {
        const std::int32_t root = root_of(a.parent);
        if (root >= 0 &&
            spans_[static_cast<std::size_t>(root)].name == phase)
            out[a.name] += static_cast<double>(a.total_ns) * 1e-9;
    }
    return out;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    os << "#kind\tid\tname\tparent\trequest\tstart_ns\tend_ns\tcalls\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "span\t" << i << '\t' << s.name << '\t' << s.parent << '\t'
           << (s.request == kNoRequest ? -1
                                       : static_cast<long long>(s.request))
           << '\t' << s.start_ns << '\t' << s.end_ns << "\t1\n";
    }
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
        const Aggregate &a = aggs_[i];
        os << "agg\t" << i << '\t' << a.name << '\t' << a.parent
           << "\t-1\t0\t" << a.total_ns << '\t' << a.calls << '\n';
    }
    if (!os)
        throw std::runtime_error("failed writing spans to " + path);
}

}  // namespace perfbench

#include "percentile.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t
rank_of(std::size_t n, double q)
{
    // The guard keeps q * n from rounding up past an exact integer
    // (0.99 * 1000 is 990.0000000000001 in binary floating point).
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return r == 0 ? 0 : r - 1;
}

}  // namespace

double
percentile_sorted(const std::vector<double> &sorted, double q)
{
    return sorted[std::min(rank_of(sorted.size(), q), sorted.size() - 1)];
}

std::size_t
samples_beyond(std::size_t n, double q)
{
    const std::size_t r = rank_of(n, q);
    return r + 1 >= n ? 0 : n - (r + 1);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

TimingSummary
summarize(std::vector<double> samples)
{
    TimingSummary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentile_sorted(samples, 0.5);
    for (const double pct : {99.0, 90.0, 50.0}) {
        if (samples_beyond(s.n, pct / 100.0) >= kTailMinBeyond) {
            s.tail_pct = pct;
            s.tail = percentile_sorted(samples, pct / 100.0);
            break;
        }
    }
    return s;
}

}  // namespace perfbench

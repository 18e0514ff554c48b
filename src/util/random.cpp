#include "util/random.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace voyager {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    assert(bound > 0);
    // Lemire's multiply-shift rejection method for unbiased bounded draws.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = (0ull - bound) % bound;
        while (lo < threshold) {
            x = next_u64();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::next_in(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double
Rng::next_double()
{
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float
Rng::next_float()
{
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

double
Rng::next_gaussian()
{
    if (have_gaussian_) {
        have_gaussian_ = false;
        return spare_gaussian_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = next_double();
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_gaussian_ = r * std::sin(theta);
    have_gaussian_ = true;
    return r * std::cos(theta);
}

bool
Rng::next_bool(double p)
{
    return next_double() < p;
}

RngState
Rng::state() const
{
    RngState s;
    for (std::size_t i = 0; i < 4; ++i)
        s.words[i] = state_[i];
    s.have_gaussian = have_gaussian_;
    s.spare_gaussian = spare_gaussian_;
    return s;
}

void
Rng::set_state(const RngState &s)
{
    for (std::size_t i = 0; i < 4; ++i)
        state_[i] = s.words[i];
    have_gaussian_ = s.have_gaussian;
    spare_gaussian_ = s.spare_gaussian;
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    assert(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = sum;
    }
    for (auto &c : cdf_)
        c /= sum;

    // One merge-like pass: bucket bounds b/G rise with b, so each
    // lower_bound resumes where the previous one stopped. G is a power
    // of two, so b/G is exact and so is the bucket a draw lands in.
    const std::size_t g = std::bit_ceil(n);
    buckets_ = static_cast<double>(g);
    guide_.resize(g + 1);
    std::size_t i = 0;
    for (std::size_t b = 0; b <= g; ++b) {
        const double bound = static_cast<double>(b) / buckets_;
        while (i < n && cdf_[i] < bound)
            ++i;
        guide_[b] = static_cast<std::uint32_t>(i);
    }
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    // u lies in [b/G, (b+1)/G), so the whole-CDF lower_bound lies in
    // [guide_[b], guide_[b+1]]: every index before guide_[b] is below
    // b/G <= u and cdf_[guide_[b+1]] >= (b+1)/G > u.
    const double u = rng.next_double();
    const auto b = static_cast<std::size_t>(u * buckets_);
    const auto first = cdf_.begin() + guide_[b];
    const auto last = cdf_.begin() + guide_[b + 1];
    const auto it = std::lower_bound(first, last, u);
    // The last CDF entry is sum/sum = 1 > u, so `it` is in range for
    // any finite CDF; the clamp keeps a non-finite one in range too.
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
}

}  // namespace voyager

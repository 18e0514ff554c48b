/**
 * @file
 * Deterministic pseudo-random number generation. Every stochastic
 * component in the repository (trace generators, weight init, dropout)
 * draws from a seeded Rng so that runs are exactly reproducible.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace voyager {

/**
 * Complete serializable snapshot of an Rng: the four xoshiro256++
 * state words plus the Box-Muller spare, so a restored generator
 * continues the exact output stream (checkpoint/resume equivalence
 * depends on this).
 */
struct RngState
{
    std::uint64_t words[4] = {0, 0, 0, 0};
    bool have_gaussian = false;
    double spare_gaussian = 0.0;
};

/**
 * xoshiro256++ generator. Small, fast, and good enough statistical
 * quality for simulation workloads; deterministic across platforms
 * (unlike std::default_random_engine distributions).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    std::uint64_t next_u64();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t next_below(std::uint64_t bound);

    /** Uniform integer in [lo, hi]. */
    std::int64_t next_in(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double next_double();

    /** Uniform float in [0, 1). */
    float next_float();

    /** Standard normal variate (Box-Muller). */
    double next_gaussian();

    /** Bernoulli draw with probability p of true. */
    bool next_bool(double p = 0.5);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = next_below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Snapshot the full generator state. */
    RngState state() const;

    /** Restore a snapshot taken with state(). */
    void set_state(const RngState &s);

  private:
    std::uint64_t state_[4];
    bool have_gaussian_ = false;
    double spare_gaussian_ = 0.0;
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with exponent s.
 *
 * Inverts a precomputed CDF. A guide table splits [0, 1) into G
 * equal buckets (G the power of two >= n); bucket b holds the first
 * CDF index >= b/G, so a draw binary-searches only between its
 * bucket's two bounds and returns exactly the index a search of the
 * whole CDF would. The OLTP (search/ads) generators use this to
 * produce the skewed key popularity that makes production streams
 * hard to prefetch.
 */
class ZipfSampler
{
  public:
    /** @param n population size @param s exponent (s=0 -> uniform). */
    ZipfSampler(std::size_t n, double s);

    /** Draw one sample in [0, n); consumes one next_double(). */
    std::size_t sample(Rng &rng) const;

    std::size_t population() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    /** G + 1 entries: guide_[b] = lower_bound(cdf_, b / G). */
    std::vector<std::uint32_t> guide_;
    /** G as a double, so u * G is exact for the 53-bit u. */
    double buckets_ = 1.0;
};

}  // namespace voyager

/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Uses xoshiro256** seeded through SplitMix64. All simulator
 * randomness must flow through a seeded Rng so that runs are exactly
 * reproducible; nothing here reads entropy from the environment.
 */

#ifndef SASOS_SIM_RANDOM_HH
#define SASOS_SIM_RANDOM_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos
{

/** xoshiro256** 1.0, deterministic and fast. */
class Rng
{
  public:
    explicit Rng(u64 seed);

    /** Uniform over all 64-bit values. */
    u64 next();

    /** Uniform in [0, bound); bound must be nonzero. */
    u64 nextBelow(u64 bound);

    /** Uniform in [lo, hi] inclusive. */
    u64 nextRange(u64 lo, u64 hi);

    /** Uniform real in [0, 1). */
    double nextReal();

    /** True with probability p. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBelow(i));
            std::swap(items[i - 1], items[j]);
        }
    }

    /** @name Snapshot hooks (position in the stream) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    u64 state_[4];
};

/**
 * Zipf distribution over {0, ..., n-1} with skew theta.
 *
 * theta = 0 is uniform; larger theta concentrates probability on low
 * ranks. Implemented with a precomputed CDF and an n-entry guide
 * table (the first rank reaching each multiple of 1/n), so a draw
 * starts next to its rank and walks forward a step or two instead of
 * binary-searching. The rank drawn is exactly the CDF's lower bound.
 */
class ZipfDistribution
{
  public:
    ZipfDistribution(std::size_t n, double theta);

    std::size_t operator()(Rng &rng) const;

    /** The rank a uniform draw u in [0, 1) maps to: the first rank
     * whose cdf is >= u, or the last rank if none is. */
    std::size_t rankOf(double u) const;

    std::size_t size() const { return cdf_.size(); }

    /** cdf()[i] = P(rank <= i); non-decreasing, ending at 1. */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    std::vector<std::size_t> guide_;
};

/** Geometric distribution: number of failures before first success. */
class GeometricDistribution
{
  public:
    explicit GeometricDistribution(double p);

    u64 operator()(Rng &rng) const;

  private:
    double logOneMinusP_;
};

} // namespace sasos

#endif // SASOS_SIM_RANDOM_HH

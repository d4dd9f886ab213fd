#include "sim/random.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos
{

namespace
{

constexpr u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** SplitMix64 step, used only for seeding. */
u64
splitMix64(u64 &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    u64 z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(u64 seed)
{
    u64 sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

u64
Rng::next()
{
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

u64
Rng::nextBelow(u64 bound)
{
    SASOS_ASSERT(bound > 0, "nextBelow(0)");
    // A power-of-two bound divides 2^64, so the rejection threshold
    // below is 0 and the first draw is always taken: masking yields
    // the same value from the same single draw.
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = -bound % bound;
    for (;;) {
        const u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

u64
Rng::nextRange(u64 lo, u64 hi)
{
    SASOS_ASSERT(lo <= hi, "bad range [", lo, ",", hi, "]");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextReal()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    return nextReal() < p;
}

void
Rng::save(snap::SnapWriter &w) const
{
    w.putTag("rng");
    for (u64 word : state_)
        w.put64(word);
}

void
Rng::load(snap::SnapReader &r)
{
    r.expectTag("rng");
    u64 words[4];
    for (auto &word : words)
        word = r.get64();
    // The all-zero state is xoshiro's one absorbing fixed point; no
    // seeding can produce it, so its presence means corruption.
    if (words[0] == 0 && words[1] == 0 && words[2] == 0 && words[3] == 0)
        SASOS_FATAL("corrupt snapshot: all-zero rng state");
    for (int i = 0; i < 4; ++i)
        state_[i] = words[i];
}

ZipfDistribution::ZipfDistribution(std::size_t n, double theta)
{
    SASOS_ASSERT(n > 0, "empty Zipf domain");
    SASOS_ASSERT(theta >= 0.0, "negative Zipf skew");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (auto &value : cdf_)
        value /= sum;
    // guide_[k] = the first rank whose cdf is >= k/n (clamped to the
    // last rank), for k < n: rankOf never reads k = n. One forward
    // walk over the monotone cdf fills it.
    guide_.resize(n);
    std::size_t rank = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const double target =
            static_cast<double>(k) / static_cast<double>(n);
        while (rank < n - 1 && cdf_[rank] < target)
            ++rank;
        guide_[k] = rank;
    }
}

std::size_t
ZipfDistribution::rankOf(double u) const
{
    // Every rank below guide_[j - 1] has cdf < (j - 1)/n <= u, even
    // when u * n rounds up to the next integer j, so walking forward
    // from there finds exactly std::lower_bound's rank (or the last
    // rank when no cdf reaches u, as before).
    const std::size_t n = cdf_.size();
    const std::size_t j =
        std::min(static_cast<std::size_t>(u * static_cast<double>(n)), n);
    std::size_t rank = j == 0 ? 0 : guide_[j - 1];
    while (rank < n - 1 && cdf_[rank] < u)
        ++rank;
    return rank;
}

std::size_t
ZipfDistribution::operator()(Rng &rng) const
{
    return rankOf(rng.nextReal());
}

GeometricDistribution::GeometricDistribution(double p)
{
    SASOS_ASSERT(p > 0.0 && p <= 1.0, "geometric p out of range");
    logOneMinusP_ = std::log1p(-p);
}

u64
GeometricDistribution::operator()(Rng &rng) const
{
    if (logOneMinusP_ == 0.0)
        return 0;
    const double u = rng.nextReal();
    return static_cast<u64>(std::log1p(-u) / logOneMinusP_);
}

} // namespace sasos

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything stochastic in the simulator (synthetic workloads,
 * wrong-path synthesis, invalidation injection) draws from Rng so runs
 * are exactly reproducible given a seed. The per-draw primitives are
 * inline: workload generation calls them several times per micro-op.
 */

#ifndef DMDC_COMMON_RANDOM_HH
#define DMDC_COMMON_RANDOM_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmdc
{

/** splitmix64 step, also usable as a stateless integer hash. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stateless mixing hash of a 64-bit value (for per-PC determinism). */
inline std::uint64_t
mixHash(std::uint64_t v)
{
    std::uint64_t state = v;
    return splitmix64(state);
}

/**
 * Stateless hash of a byte string (FNV-1a folded through splitmix64).
 * Used for cache fingerprints; deterministic across platforms and
 * runs, unlike std::hash.
 */
std::uint64_t hashBytes(const void *data, std::size_t len,
                        std::uint64_t seed = 0);

/**
 * The geometric draw's value for the 53-bit draw @p m (= next() >> 11)
 * at @p mean > 1: inverse-transform sampling, clamped to keep tails
 * sane. Two log1p calls; Rng::geometric and GeometricTable share this
 * one definition so they agree bit for bit.
 */
unsigned geometricFromDraw(double mean, std::uint64_t m);

/**
 * A small, fast, seedable PRNG (xoshiro256** variant). Deterministic
 * across platforms; not suitable for cryptography, ideal for simulation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed_value = 0x9e3779b97f4a7c15ull)
    {
        seed(seed_value);
    }

    /** Re-seed, returning the generator to a known state. */
    void
    seed(std::uint64_t seed_value)
    {
        std::uint64_t sm = seed_value;
        for (auto &word : s)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t
    range(std::uint64_t bound)
    {
        assert(bound > 0);
        // Rejection-free multiply-shift; bias is negligible for
        // simulation-scale bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t between(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample a geometric-ish distance >= 1 with mean roughly @p mean.
     * Used for dependence-distance and burst-length modeling. Draws
     * nothing when @p mean <= 1 (the result is then always 1).
     * Per-op callers with a fixed mean use GeometricTable instead.
     */
    unsigned geometric(double mean);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/**
 * Rng::geometric(mean) for one fixed mean, as a threshold table.
 *
 * The formula's value is a step function of the 53-bit draw
 * m = next() >> 11: it is k+1 for T_k <= m < T_{k+1}. The table holds
 * these thresholds, found at construction by bisection on
 * geometricFromDraw() itself (seeded from the closed form
 * 2^53 * (1 - q^k), q = 1 - 1/mean), so it reproduces the function as
 * computed, not an idealization of it. sample() consumes exactly the
 * draws the formula would (one next(), or none when mean <= 1) and
 * answers with the threshold index, except that it evaluates the
 * formula itself when
 *   - the draw lies within guardBand of a threshold,
 *   - the draw is at or past the cap 2^53 - 2^43 (u = 1 - 2^-10),
 *     where the tail would need ever more thresholds, or
 *   - mean <= 1.
 *
 * Why the table's answer is the formula's: the exact function
 * log(1-u)/log(1-p) is non-decreasing in m, and the computed one
 * differs from it only by rounding (glibc's log1p is within about one
 * ulp, then one division and one addition). Below the cap that error
 * can move a step of the computed function by only tens of units of
 * m, so every m whose computed value differs from the exact step
 * function's lies within tens of units of an exact threshold, and so
 * does the bisected threshold. Outside a 2^20-unit band around each
 * bisected threshold — many orders of magnitude wider — the computed
 * value is therefore constant between thresholds and equal to the
 * table's. The guard costs one formula evaluation in about
 * 2^21 / 2^53 of draws per threshold; the cap costs one in 2^10.
 */
class GeometricTable
{
  public:
    /** Half-width of the band around each threshold (units of m). */
    static constexpr std::uint64_t guardBand = std::uint64_t{1} << 20;
    /** Draws at or past this are evaluated by the formula. */
    static constexpr std::uint64_t cap =
        (std::uint64_t{1} << 53) - (std::uint64_t{1} << 43);

    explicit GeometricTable(double mean);

    /** Same value, same draws as rng.geometric(mean). */
    unsigned
    sample(Rng &rng)
    {
        // mean <= 1: the formula draws nothing.
        return bounds_.empty() ? 1 : valueAt(rng.next() >> 11);
    }

    /** The value for the 53-bit draw @p m: geometricFromDraw(mean, m). */
    unsigned
    valueAt(std::uint64_t m)
    {
        if (bounds_.empty())
            return 1;
        // Start at the bucket's first threshold: usually no step left.
        std::size_t k = firstAbove_[m >> bucketShift];
        while (m >= bounds_[k])
            ++k;
        // bounds_ ends with {cap, UINT64_MAX}: k == size - 1 means
        // m >= cap.
        if (k + 1 < bounds_.size() && bounds_[k] - m > guardBand &&
            (k == 0 || m - bounds_[k - 1] > guardBand))
            return static_cast<unsigned>(k + 1);
        formulaEvals_ += 2;
        return geometricFromDraw(mean_, m);
    }

    /**
     * Thresholds T_1 < T_2 < ... below the cap: T_k is the smallest
     * draw whose value is at least k + 1.
     */
    std::vector<std::uint64_t>
    thresholds() const
    {
        if (bounds_.size() < 2)
            return {};
        return {bounds_.begin(), bounds_.end() - 2};
    }

    /**
     * log1p evaluations sample() has made (two per formula fallback),
     * a deterministic work counter.
     */
    std::uint64_t formulaEvals() const { return formulaEvals_; }

  private:
    /** The top 8 of m's 53 bits pick a lookup bucket. */
    static constexpr unsigned bucketShift = 45;

    double mean_;
    std::vector<std::uint64_t> bounds_;  ///< thresholds, cap, ~0
    /** Per bucket: how many bounds_ lie at or below its first draw. */
    std::array<std::uint16_t, 256> firstAbove_{};
    std::uint64_t formulaEvals_ = 0;
};

} // namespace dmdc

#endif // DMDC_COMMON_RANDOM_HH

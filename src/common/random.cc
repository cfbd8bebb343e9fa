/**
 * @file
 * Out-of-line parts of the random-number layer: byte hashing, the
 * geometric formula and GeometricTable construction.
 */

#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dmdc
{

std::uint64_t
hashBytes(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return mixHash(h);
}

std::int64_t
Rng::between(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
        range(static_cast<std::uint64_t>(hi - lo) + 1));
}

unsigned
geometricFromDraw(double mean, std::uint64_t m)
{
    const double p = 1.0 / mean;
    const double u = static_cast<double>(m) * 0x1.0p-53;
    const double v = std::log1p(-u) / std::log1p(-p);
    const double clamped = std::fmin(v + 1.0, mean * 16.0);
    return static_cast<unsigned>(clamped < 1.0 ? 1.0 : clamped);
}

unsigned
Rng::geometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    return geometricFromDraw(mean, next() >> 11);
}

GeometricTable::GeometricTable(double mean) : mean_(mean)
{
    if (mean <= 1.0)
        return;
    // Bisection window around the closed-form seed: far wider than the
    // rounding error of either the seed or the formula.
    constexpr std::uint64_t window = std::uint64_t{1} << 16;
    const double log_q = std::log1p(-1.0 / mean);
    std::uint64_t prev = 0;   // value(prev) < the next step's value
    for (unsigned r = 2; geometricFromDraw(mean, cap - 1) >= r; ++r) {
        const auto reaches = [&](std::uint64_t m) {
            return geometricFromDraw(mean, m) >= r;
        };
        // Invariant: !reaches(lo) && reaches(hi).
        std::uint64_t lo = prev;
        std::uint64_t hi = cap - 1;
        if (reaches(lo)) {
            bounds_.push_back(lo);   // two steps at one draw
            continue;
        }
        const double guess =
            0x1.0p53 * -std::expm1(static_cast<double>(r - 1) * log_q);
        if (guess > static_cast<double>(prev + window) &&
            guess + static_cast<double>(window) <
                static_cast<double>(cap - 1)) {
            const auto g = static_cast<std::uint64_t>(guess);
            if (!reaches(g - window) && reaches(g + window)) {
                lo = g - window;
                hi = g + window;
            }
        }
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (reaches(mid) ? hi : lo) = mid;
        }
        bounds_.push_back(hi);
        prev = hi;
    }
    bounds_.push_back(cap);
    bounds_.push_back(~std::uint64_t{0});
    if (bounds_.size() > 0xffff)
        panic("geometric table for mean %g has %zu thresholds", mean,
              bounds_.size());
    for (std::size_t b = 0; b < firstAbove_.size(); ++b) {
        firstAbove_[b] = static_cast<std::uint16_t>(
            std::upper_bound(bounds_.begin(), bounds_.end(),
                             std::uint64_t{b} << bucketShift) -
            bounds_.begin());
    }
}

} // namespace dmdc

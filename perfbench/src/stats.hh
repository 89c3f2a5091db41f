/**
 * @file
 * Pure statistics helpers of the benchmark: the seeded generator, the
 * open-loop arrival schedule, medians and the tail-percentile rule,
 * and the metric-name grammar. Header-only and free of library
 * dependencies so the unit tests exercise exactly this code.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** SplitMix64: a portable seeded generator (same stream everywhere). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (_state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

    /** Uniform integer in [0, n). */
    int below(int n) { return static_cast<int>(uniform() * n); }

  private:
    std::uint64_t _state;
};

/**
 * Arrival offsets (seconds from the phase start) of @p count requests
 * of a Poisson process with rate @p ratePerS: cumulative exponential
 * gaps drawn from Rng(@p seed). The same seed gives the same schedule.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double ratePerS, int count)
{
    Rng rng(seed);
    std::vector<double> at;
    at.reserve(count > 0 ? count : 0);
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        t += -std::log(1.0 - rng.uniform()) / ratePerS;
        at.push_back(t);
    }
    return at;
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

/** Coefficient of variation (population stddev / mean). */
inline double
coefficientOfVariation(const std::vector<double> &v)
{
    double m = mean(v);
    if (v.size() < 2 || m == 0.0)
        return 0.0;
    double ss = 0.0;
    for (double x : v)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / v.size()) / m;
}

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kTailBeyond = 10;

/** A tail latency: the value, its percentile and the sample count. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; //!< in (0, 100)
    std::size_t samples = 0;
    bool valid = false; //!< false when fewer than kTailBeyond + 1 samples
};

/**
 * The highest percentile with at least kTailBeyond samples beyond it:
 * with n samples that is the nearest-rank value of rank n - 10, i.e.
 * the 11th largest sample, at percentile 100 * (n - 10) / n.
 */
inline Tail
tailPercentile(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= kTailBeyond)
        return t;
    std::sort(v.begin(), v.end());
    std::size_t rank = v.size() - kTailBeyond;
    t.value = v[rank - 1];
    t.percentile = 100.0 * static_cast<double>(rank) / v.size();
    t.valid = true;
    return t;
}

/**
 * The tail of a long run, steadied against one-off host stalls: split
 * @p v (in request order) into up to @p maxWindows consecutive windows
 * of at least @p minWindow samples, take tailPercentile() of each, and
 * report the median of those values. percentile and samples describe
 * the smallest window. With fewer than 2 * @p minWindow samples this is
 * tailPercentile(v).
 */
inline Tail
windowedTail(const std::vector<double> &v, std::size_t minWindow = 40,
             std::size_t maxWindows = 5)
{
    std::size_t windows =
        std::max<std::size_t>(1, std::min(maxWindows, v.size() / minWindow));
    if (windows == 1)
        return tailPercentile(v);
    Tail out;
    out.valid = true;
    out.samples = v.size();
    out.percentile = 100.0;
    std::vector<double> values;
    for (std::size_t w = 0; w < windows; ++w) {
        auto b = v.begin() + v.size() * w / windows;
        auto e = v.begin() + v.size() * (w + 1) / windows;
        Tail t = tailPercentile(std::vector<double>(b, e));
        values.push_back(t.value);
        if (t.samples < out.samples) {
            out.samples = t.samples;
            out.percentile = t.percentile;
        }
    }
    out.value = median(values);
    return out;
}

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH

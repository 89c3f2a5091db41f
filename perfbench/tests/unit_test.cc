/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the tail-percentile
 * rule, Poisson schedule determinism, span self time and the metric-
 * name grammar. Exit code 0 when every check holds.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testTailPercentile()
{
    // 10 samples: no percentile has 10 samples beyond it.
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(i);
    check(!tailPercentile(ten).valid, "tail needs more than 10 samples");

    // 11 samples: the smallest, at percentile 100/11.
    std::vector<double> eleven = ten;
    eleven.push_back(11);
    Tail t11 = tailPercentile(eleven);
    check(t11.valid && near(t11.value, 1) &&
              near(t11.percentile, 100.0 / 11) && t11.samples == 11,
          "tail of 11 samples is the minimum");

    // 1000 shuffled samples 1..1000: rank 990 -> p99, value 990.
    std::vector<double> many;
    for (int i = 0; i < 1000; ++i)
        many.push_back((i * 7919) % 1000 + 1);
    Tail t = tailPercentile(many);
    check(t.valid && near(t.value, 990) && near(t.percentile, 99.0),
          "tail of 1000 samples is p99");
    int beyond = 0;
    for (double v : many)
        beyond += v > t.value;
    check(beyond == 10, "exactly 10 distinct samples lie beyond the tail");

    // 200 samples -> p95.
    std::vector<double> two(many.begin(), many.begin() + 200);
    check(near(tailPercentile(two).percentile, 95.0),
          "tail of 200 samples is p95");

    // Windowed: 5 windows of 200; one window holds a stall of 10
    // samples at 1000, which moves that window's tail only.
    std::vector<double> runs;
    for (int w = 0; w < 5; ++w)
        for (int i = 0; i < 200; ++i)
            runs.push_back(w == 2 && i < 11 ? 1000 : i + 1);
    Tail wt = windowedTail(runs);
    check(wt.valid && near(wt.value, 190) && wt.samples == 200 &&
              near(wt.percentile, 95.0),
          "windowed tail is the median of per-window tails");
    check(near(tailPercentile(runs).value, 1000),
          "the unwindowed tail of the same run is the stall");
    std::vector<double> short79(many.begin(), many.begin() + 79);
    Tail st = windowedTail(short79);
    check(st.samples == 79 && near(st.value, tailPercentile(short79).value),
          "fewer than two windows falls back to the plain tail");

    check(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
          "median of odd and even counts");
}

void
testPoissonSchedule()
{
    auto a = poissonSchedule(7, 4.0, 500);
    auto b = poissonSchedule(7, 4.0, 500);
    auto c = poissonSchedule(8, 4.0, 500);
    check(a == b, "same seed gives the same schedule");
    check(a != c, "another seed gives another schedule");
    bool increasing = a.size() == 500;
    for (std::size_t i = 1; i < a.size(); ++i)
        increasing = increasing && a[i] > a[i - 1];
    check(increasing, "arrival times increase");
    // Mean gap 1 / rate, within 15% over 500 arrivals.
    double meanGap = a.back() / a.size();
    check(std::fabs(meanGap - 0.25) < 0.25 * 0.15,
          "mean inter-arrival gap matches the rate");
}

void
testSelfTime()
{
    // parent [0, 10]; children [1, 4] and [3, 6] overlap (union 5) and
    // [9, 12] is clipped to [9, 10]; the grandchild [1, 2] counts
    // against its own parent only.
    std::vector<Span> spans{
        {"p", 0, 10, 1, 0, 0},  {"c", 1, 4, 2, 1, 0},
        {"c", 3, 6, 3, 1, 0},   {"c", 9, 12, 4, 1, 0},
        {"g", 1, 2, 5, 2, 0},
    };
    auto st = selfTimes(spans);
    check(near(st["p"].selfS, 10 - 6) && st["p"].count == 1,
          "parent self time subtracts the union of its children");
    check(near(st["c"].selfS, (3 - 1) + 3 + 3) && st["c"].count == 3,
          "child self times subtract only their own children");
    check(near(st["g"].selfS, 1), "a leaf's self time is its duration");

    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", 0, 3);
        ScopedSpan inner(&rec, "inner", outer.id(), 3);
    }
    auto got = rec.spans();
    check(got.size() == 2 && got[0].name == "inner" &&
              got[0].parent == got[1].id && got[1].request == 3,
          "ScopedSpan records the parent link and request id");
    ScopedSpan off(nullptr, "off", 0, 0);
    check(off.id() == 0, "a null recorder records nothing");
}

void
testMetricNames()
{
    for (const char *ok : {"setup_s", "nerf.render_ms", "a", "9x",
                           "bench.noise-cv"})
        check(validMetricName(ok), std::string("valid name ") + ok);
    for (const char *bad : {"", "_x", ".x", "a b", "a/b", "ms%"})
        check(!validMetricName(bad), std::string("invalid name ") + bad);
    check(validMetricName(std::string(64, 'a')) &&
              !validMetricName(std::string(65, 'a')),
          "names are at most 64 characters");
}

} // namespace

int
main()
{
    testTailPercentile();
    testPoissonSchedule();
    testSelfTime();
    testMetricNames();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "OK",
                failures);
    return failures ? 1 : 0;
}

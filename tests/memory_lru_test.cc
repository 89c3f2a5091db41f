/**
 * @file
 * Differential tests of the flat LruCache against the list + map
 * reference it replaced (tests/lru_reference.hh): both caches see the
 * same access stream and must report identical statistics after every
 * access. Streams cover seeded random and looping patterns, capacities
 * of 1, 2 and 3 lines and non-power-of-two line counts, multi-line and
 * zero-byte accesses, addresses with high bits set, keys forced into
 * one probe cluster that wraps around the table end, and reuse after
 * reset(). The set-associative path is diffed too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "lru_reference.hh"
#include "memory/cache_model.hh"

namespace cicero {
namespace {

CacheConfig
linesCache(std::uint64_t lines, std::uint32_t ways = 0)
{
    CacheConfig cfg;
    cfg.lineBytes = 64;
    cfg.capacityBytes = lines * 64;
    cfg.ways = ways;
    return cfg;
}

MemAccess
lineAccess(std::uint64_t line)
{
    return MemAccess{line * 64, 64, 0};
}

/** Feeds both caches and compares their stats after every access. */
struct Differential
{
    explicit Differential(const CacheConfig &cfg) : flat(cfg), ref(cfg) {}

    /** @return false (with a gtest failure) on the first divergence. */
    bool
    access(const MemAccess &a)
    {
        flat.onAccess(a);
        ref.onAccess(a);
        const CacheStats &f = flat.stats();
        const CacheStats &r = ref.stats();
        if (f.accesses == r.accesses && f.hits == r.hits &&
            f.misses == r.misses) {
            ++step;
            return true;
        }
        ADD_FAILURE() << "diverged at access " << step << " (addr "
                      << a.addr << ", bytes " << a.bytes
                      << "): flat hits/misses " << f.hits << "/"
                      << f.misses << ", reference " << r.hits << "/"
                      << r.misses;
        return false;
    }

    bool
    stream(const std::vector<MemAccess> &accesses)
    {
        for (const MemAccess &a : accesses)
            if (!access(a))
                return false;
        return true;
    }

    void
    reset()
    {
        flat.reset();
        ref.reset();
    }

    LruCache flat;
    test::ReferenceLruCache ref;
    std::uint64_t step = 0;
};

/** Random lines from a working set of @p span lines (hot + cold mix). */
std::vector<MemAccess>
randomStream(std::uint64_t seed, std::uint64_t span, int n)
{
    Rng rng(seed);
    std::vector<MemAccess> out;
    for (int i = 0; i < n; ++i) {
        std::uint64_t l = rng.uniform() < 0.5
                              ? rng.uniformInt(std::max<std::uint64_t>(
                                    1, span / 4))
                              : rng.uniformInt(span);
        out.push_back(lineAccess(l));
    }
    return out;
}

/** Cyclic passes over @p period lines. */
std::vector<MemAccess>
loopStream(std::uint64_t period, int passes)
{
    std::vector<MemAccess> out;
    for (int p = 0; p < passes; ++p)
        for (std::uint64_t l = 0; l < period; ++l)
            out.push_back(lineAccess(l));
    return out;
}

const std::uint64_t kCapacities[] = {1, 2, 3, 5, 7, 12, 100, 1000};

TEST(LruDifferentialTest, SeededRandomStreams)
{
    for (std::uint64_t lines : kCapacities)
        for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
            SCOPED_TRACE(testing::Message()
                         << "lines " << lines << " seed " << seed);
            Differential d(linesCache(lines));
            ASSERT_TRUE(d.stream(randomStream(
                seed * 7919 + lines, 3 * lines + 2, 4000)));
        }
}

TEST(LruDifferentialTest, LoopingStreams)
{
    for (std::uint64_t lines : kCapacities)
        for (std::uint64_t period : {lines - 1, lines, lines + 1,
                                     2 * lines + 1}) {
            if (period == 0)
                continue;
            SCOPED_TRACE(testing::Message()
                         << "lines " << lines << " period " << period);
            Differential d(linesCache(lines));
            ASSERT_TRUE(d.stream(loopStream(period, 6)));
            // Then reverse passes, which hit the most recent lines.
            std::vector<MemAccess> back;
            for (int p = 0; p < 3; ++p)
                for (std::uint64_t l = period; l-- > 0;)
                    back.push_back(lineAccess(l));
            ASSERT_TRUE(d.stream(back));
        }
}

TEST(LruDifferentialTest, MultiLineAndZeroByteAccesses)
{
    for (std::uint64_t lines : {1ull, 2ull, 3ull, 13ull}) {
        SCOPED_TRACE(testing::Message() << "lines " << lines);
        Differential d(linesCache(lines));
        Rng rng(lines * 31 + 7);
        for (int i = 0; i < 3000; ++i) {
            MemAccess a;
            a.addr = rng.uniformInt(64 * 4 * lines + 200);
            std::uint64_t pick = rng.uniformInt(4);
            a.bytes = pick == 0 ? 0u
                                : static_cast<std::uint32_t>(
                                      rng.uniformInt(pick * 100 + 1));
            ASSERT_TRUE(d.access(a));
        }
    }
}

TEST(LruDifferentialTest, HighAddressBits)
{
    // Lines whose top bits are set, including accesses that end at the
    // very top of the address space.
    const std::uint64_t bases[] = {0xFFFFFFFFFFFF0000ull,
                                   0x8000000000000000ull,
                                   0x7FFFFFFFFFFFF000ull,
                                   0xDEADBEEF00000000ull};
    for (std::uint64_t lines : {1ull, 3ull, 7ull, 64ull}) {
        SCOPED_TRACE(testing::Message() << "lines " << lines);
        Differential d(linesCache(lines));
        Rng rng(lines + 99);
        for (int i = 0; i < 3000; ++i) {
            MemAccess a;
            std::uint64_t base = bases[rng.uniformInt(4)];
            a.addr = base + rng.uniformInt(64 * 3 * lines) * 64;
            a.bytes = static_cast<std::uint32_t>(rng.uniformInt(130));
            ASSERT_TRUE(d.access(a));
        }
        ASSERT_TRUE(d.access(MemAccess{~0ull - 63, 64, 0}));
        ASSERT_TRUE(d.access(MemAccess{~0ull, 1, 0}));
        ASSERT_TRUE(d.access(MemAccess{~0ull, 0, 0}));
    }
}

/**
 * Keys whose home buckets sit at the last buckets of the probe table
 * and at bucket 0, so the cluster they form wraps around the table
 * end and every eviction shifts entries across it.
 */
std::vector<std::uint64_t>
wrappingCluster(std::uint64_t lines)
{
    const std::size_t size = LruCache::tableSize(lines);
    std::vector<std::uint64_t> atEnd, atStart;
    for (std::uint64_t key = 1; atEnd.size() < 2 * lines ||
                                atStart.size() < lines;
         ++key) {
        std::size_t home = LruCache::homeBucket(key, size);
        if (home + 2 >= size && atEnd.size() < 2 * lines)
            atEnd.push_back(key);
        else if (home == 0 && atStart.size() < lines)
            atStart.push_back(key);
    }
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < std::max(atEnd.size(), atStart.size());
         ++i) {
        if (i < atEnd.size())
            keys.push_back(atEnd[i]);
        if (i < atStart.size())
            keys.push_back(atStart[i]);
    }
    return keys;
}

TEST(LruDifferentialTest, ProbeClusterWrapsAroundTableEnd)
{
    for (std::uint64_t lines : {1ull, 2ull, 3ull, 5ull, 6ull}) {
        SCOPED_TRACE(testing::Message() << "lines " << lines);
        const std::vector<std::uint64_t> keys = wrappingCluster(lines);
        ASSERT_GT(keys.size(), lines);
        Differential d(linesCache(lines));
        // Loop over the cluster: every miss evicts a clustered key.
        for (int pass = 0; pass < 8; ++pass)
            for (std::uint64_t key : keys)
                ASSERT_TRUE(d.access(lineAccess(key)));
        // Random picks mix hits and evictions inside the cluster.
        Rng rng(lines * 13 + 1);
        for (int i = 0; i < 4000; ++i)
            ASSERT_TRUE(d.access(
                lineAccess(keys[rng.uniformInt(keys.size())])));
    }
}

TEST(LruDifferentialTest, ReuseAfterReset)
{
    for (std::uint64_t lines : {1ull, 3ull, 100ull}) {
        SCOPED_TRACE(testing::Message() << "lines " << lines);
        Differential d(linesCache(lines));
        ASSERT_TRUE(d.stream(randomStream(lines, 4 * lines, 2000)));
        d.reset();
        EXPECT_EQ(d.flat.stats().accesses, 0u);
        // The same lines again: a cache that kept residents would hit.
        ASSERT_TRUE(d.stream(randomStream(lines, 4 * lines, 2000)));
        d.reset();
        ASSERT_TRUE(d.stream(loopStream(lines + 1, 4)));
    }
}

TEST(LruDifferentialTest, SetAssociativePathMatches)
{
    for (std::uint32_t ways : {1u, 2u, 4u})
        for (std::uint64_t lines : {4ull, 12ull, 64ull}) {
            SCOPED_TRACE(testing::Message()
                         << "ways " << ways << " lines " << lines);
            Differential d(linesCache(lines, ways));
            ASSERT_TRUE(d.stream(randomStream(ways * 17 + lines,
                                              3 * lines, 3000)));
        }
}

TEST(LruCacheTest, SmallerThanOneLineMissesEverything)
{
    CacheConfig cfg;
    cfg.lineBytes = 64;
    cfg.capacityBytes = 32;
    LruCache cache(cfg);
    for (int i = 0; i < 3; ++i)
        cache.onAccess(lineAccess(5));
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(LruCacheTest, TableGeometry)
{
    EXPECT_EQ(LruCache::tableSize(0), 2u);
    EXPECT_EQ(LruCache::tableSize(1), 2u);
    EXPECT_EQ(LruCache::tableSize(3), 8u);
    EXPECT_EQ(LruCache::tableSize(4), 8u);
    EXPECT_EQ(LruCache::tableSize(32768), 65536u);
    for (std::uint64_t key : {0ull, 1ull, ~0ull, 0x8000000000000000ull})
        EXPECT_LT(LruCache::homeBucket(key, 16), 16u);
}

} // namespace
} // namespace cicero

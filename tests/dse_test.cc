/**
 * @file
 * Tests for the design-space exploration subsystem: accelerator-stack
 * replay (live vs file source bit-identical stats for the GPU, NPU,
 * GU and baseline stacks, across capture thread counts), workload
 * summary round-trips, corpus manifest round-trip and malformed-input
 * error paths, sweep-spec parsing, and the driver's byte-identity
 * contracts: parallel == serial, and distinct-stack pricing == one
 * evaluatePoint per (trace, config).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "dse/accel_replay.hh"
#include "dse/corpus.hh"
#include "dse/driver.hh"
#include "memory/cache_model.hh"
#include "memory/tracefile.hh"
#include "nerf/models.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct ThreadCountGuard
{
    ~ThreadCountGuard() { setParallelThreadCount(0); }
};

TraceFileMeta
metaFor(const NerfModel &model, const std::string &scene, int res)
{
    TraceFileMeta meta;
    meta.scene = scene;
    meta.encoding = model.encoding().name();
    meta.width = meta.height = static_cast<std::uint32_t>(res);
    meta.threads = static_cast<std::uint32_t>(parallelThreadCount());
    meta.featureBytes = static_cast<std::uint32_t>(
        model.encoding().featureDim() * kBytesPerChannel);
    return meta;
}

/** Capture one frame into @p ctrace with its workload summary. */
TraceWorkloadDescriptor
captureWithSummary(const NerfModel &model, const Camera &cam, int res,
                   std::vector<std::uint8_t> &ctrace)
{
    TraceFileMeta meta = metaFor(model, "tiny", res);
    TraceFileWriter writer(ctrace, meta);
    TraceWorkloadDescriptor desc;
    desc.work = model.traceWorkload(cam, &writer);
    desc.plan = model.encoding().streamingFootprint(
        model.collectSamplePositions(cam));
    desc.vertexBytes = meta.featureBytes;
    writer.setWorkloadSummary(toSummary(desc));
    writer.close();
    return desc;
}

// ---------------------------------------------------------------------
// Accelerator replay: live vs file source
// ---------------------------------------------------------------------

TEST(DseAccelReplayTest, ReplayStatsBitIdenticalToLiveAllStacks)
{
    // The tentpole contract: every accelerator stack prices a replayed
    // trace bit-identically to the live render stream, whether the
    // capture ran serial or pool-sharded.
    ThreadCountGuard guard;
    const int res = 24;
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(res);

    setParallelThreadCount(1);
    TraceWorkloadDescriptor live = measureWorkload(*model, cam);
    TraceSourceFn liveSrc = liveSource(*model, cam);
    std::string liveGpu = statsJson(runGpuStack(liveSrc, live));
    std::string liveNpu = statsJson(runNpuStack(liveSrc, live));
    std::string liveGu = statsJson(runGuStack(liveSrc, live));
    std::string liveBase = statsJson(runBaselineStack(liveSrc, live));

    for (int threads : {1, 4}) {
        setParallelThreadCount(threads);
        std::vector<std::uint8_t> ctrace;
        captureWithSummary(*model, cam, res, ctrace);

        TraceFileReader reader(ctrace);
        ASSERT_TRUE(reader.hasWorkloadSummary());
        TraceWorkloadDescriptor replayed = workloadFromTrace(reader);
        TraceSourceFn fileSrc = fileSource(reader);

        EXPECT_EQ(liveGpu, statsJson(runGpuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveNpu, statsJson(runNpuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveGu, statsJson(runGuStack(fileSrc, replayed)))
            << "threads=" << threads;
        EXPECT_EQ(liveBase,
                  statsJson(runBaselineStack(fileSrc, replayed)))
            << "threads=" << threads;
    }
}

TEST(DseAccelReplayTest, WorkloadSummaryRoundTrip)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(16);

    TraceWorkloadDescriptor desc = measureWorkload(*model, cam);
    TraceWorkloadDescriptor back = fromSummary(toSummary(desc));
    EXPECT_EQ(desc.work.rays, back.work.rays);
    EXPECT_EQ(desc.work.samples, back.work.samples);
    EXPECT_EQ(desc.work.indexOps, back.work.indexOps);
    EXPECT_EQ(desc.work.vertexFetches, back.work.vertexFetches);
    EXPECT_EQ(desc.work.gatherBytes, back.work.gatherBytes);
    EXPECT_EQ(desc.work.interpOps, back.work.interpOps);
    EXPECT_EQ(desc.work.mlpMacs, back.work.mlpMacs);
    EXPECT_EQ(desc.work.compositeOps, back.work.compositeOps);
    EXPECT_EQ(desc.plan.streamedBytes, back.plan.streamedBytes);
    EXPECT_EQ(desc.plan.randomBytes, back.plan.randomBytes);
    EXPECT_EQ(desc.plan.ritEntries, back.plan.ritEntries);
    EXPECT_EQ(desc.plan.ritBytes, back.plan.ritBytes);
    EXPECT_EQ(desc.vertexBytes, back.vertexBytes);

    // And through the container: the persisted summary recovers the
    // identical integers.
    std::vector<std::uint8_t> ctrace;
    captureWithSummary(*model, cam, 16, ctrace);
    TraceFileReader reader(ctrace);
    TraceWorkloadDescriptor fromFile = workloadFromTrace(reader);
    EXPECT_EQ(desc.work.mlpMacs, fromFile.work.mlpMacs);
    EXPECT_EQ(desc.plan.streamedBytes, fromFile.plan.streamedBytes);
    EXPECT_EQ(desc.vertexBytes, fromFile.vertexBytes);
}

TEST(DseAccelReplayTest, TraceWithoutSummaryThrows)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(16);

    std::vector<std::uint8_t> ctrace;
    {
        TraceFileWriter writer(ctrace, metaFor(*model, "tiny", 16));
        model->traceWorkload(cam, &writer);
        writer.close();
    }
    TraceFileReader reader(ctrace);
    EXPECT_FALSE(reader.hasWorkloadSummary());
    EXPECT_THROW(workloadFromTrace(reader), std::runtime_error);
}

// ---------------------------------------------------------------------
// Corpus manifest
// ---------------------------------------------------------------------

dse::CorpusEntry
sampleEntry(const std::string &id)
{
    dse::CorpusEntry e;
    e.id = id;
    e.file = id + ".ctrace";
    e.scene = "lego";
    e.model = "dvgo";
    e.encoding = "dense-grid";
    e.res = 32;
    e.frame = 3;
    e.preset = "full";
    e.layout = "mvoxel";
    e.fp16 = true;
    return e;
}

TEST(DseCorpusTest, ManifestRoundTripPreservesAllFields)
{
    dse::Corpus corpus("/tmp/corpus-here");
    corpus.add(sampleEntry("lego_dvgo_32_f3"));
    corpus.add(sampleEntry("lego_dvgo_32_f4"));

    dse::Corpus back = dse::Corpus::fromManifestJson(
        corpus.manifestJson(), corpus.dir());
    ASSERT_EQ(back.size(), 2u);
    const dse::CorpusEntry &e = back.entries().front();
    EXPECT_EQ(e.id, "lego_dvgo_32_f3");
    EXPECT_EQ(e.file, "lego_dvgo_32_f3.ctrace");
    EXPECT_EQ(e.scene, "lego");
    EXPECT_EQ(e.model, "dvgo");
    EXPECT_EQ(e.encoding, "dense-grid");
    EXPECT_EQ(e.res, 32u);
    EXPECT_EQ(e.frame, 3u);
    EXPECT_EQ(e.preset, "full");
    EXPECT_EQ(e.layout, "mvoxel");
    EXPECT_TRUE(e.fp16);
    EXPECT_EQ(back.tracePath(e),
              "/tmp/corpus-here/lego_dvgo_32_f3.ctrace");
    EXPECT_NE(back.findEntry("lego_dvgo_32_f4"), nullptr);
    EXPECT_EQ(back.findEntry("nope"), nullptr);

    // Serialization is deterministic: round-tripping reproduces the
    // manifest byte for byte.
    EXPECT_EQ(corpus.manifestJson(), back.manifestJson());
}

TEST(DseCorpusTest, SaveAndLoadFromDisk)
{
    char dirTemplate[] = "/tmp/cicero_dse_test_XXXXXX";
    const char *dir = mkdtemp(dirTemplate);
    ASSERT_NE(dir, nullptr);

    dse::Corpus corpus(dir);
    corpus.add(sampleEntry("a"));
    corpus.save();

    dse::Corpus loaded = dse::Corpus::load(dir);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.manifestJson(), corpus.manifestJson());

    std::remove((std::string(dir) + "/corpus.json").c_str());
    std::remove(dir);
}

TEST(DseCorpusTest, MalformedManifestThrows)
{
    using dse::Corpus;
    // Invalid JSON.
    EXPECT_THROW(Corpus::fromManifestJson("{oops", "."),
                 std::runtime_error);
    // Root must be an object.
    EXPECT_THROW(Corpus::fromManifestJson("[1, 2]", "."),
                 std::runtime_error);
    // Missing "entries".
    EXPECT_THROW(Corpus::fromManifestJson("{\"version\": 1}", "."),
                 std::runtime_error);
    // Entries must be objects.
    EXPECT_THROW(
        Corpus::fromManifestJson("{\"entries\": [42]}", "."),
        std::runtime_error);
    // Entry missing "id".
    EXPECT_THROW(Corpus::fromManifestJson(
                     "{\"entries\": [{\"file\": \"x.ctrace\"}]}", "."),
                 std::runtime_error);
    // Entry missing "file".
    EXPECT_THROW(
        Corpus::fromManifestJson("{\"entries\": [{\"id\": \"x\"}]}", "."),
        std::runtime_error);
    // Duplicate ids.
    EXPECT_THROW(Corpus::fromManifestJson(
                     "{\"entries\": ["
                     "{\"id\": \"x\", \"file\": \"a.ctrace\"},"
                     "{\"id\": \"x\", \"file\": \"b.ctrace\"}]}",
                     "."),
                 std::runtime_error);
    // Trailing garbage after the document.
    EXPECT_THROW(Corpus::fromManifestJson("{\"entries\": []} extra", "."),
                 std::runtime_error);
}

TEST(DseCorpusTest, DuplicateAddThrows)
{
    dse::Corpus corpus(".");
    corpus.add(sampleEntry("x"));
    EXPECT_THROW(corpus.add(sampleEntry("x")), std::runtime_error);
}

// ---------------------------------------------------------------------
// Sweep spec + grid expansion
// ---------------------------------------------------------------------

TEST(DseDriverTest, ParseSweepSpec)
{
    dse::SweepAxes axes = dse::parseSweepSpec(
        "{\"cache_mb\": [0.5, 1], \"gu_vft_kb\": [16],"
        " \"dram_gbs\": [12.8, 25.6, 51.2]}");
    EXPECT_EQ(axes.cacheMb, (std::vector<double>{0.5, 1.0}));
    EXPECT_EQ(axes.guVftKb, (std::vector<std::uint32_t>{16}));
    EXPECT_EQ(axes.dramGBs, (std::vector<double>{12.8, 25.6, 51.2}));
    // Unspecified axes keep their defaults.
    EXPECT_EQ(axes.warpWays, dse::SweepAxes{}.warpWays);
    EXPECT_EQ(axes.configCount(), 2u * 1u * 3u);

    EXPECT_THROW(dse::parseSweepSpec("{\"bogus_axis\": [1]}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("{\"cache_mb\": []}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("{\"cache_mb\": [0]}"),
                 std::runtime_error);
    EXPECT_THROW(dse::parseSweepSpec("[1]"), std::runtime_error);
}

TEST(DseDriverTest, ParseCacheWaysAxis)
{
    // 0 is legal for cache_ways only (fully associative).
    dse::SweepAxes axes = dse::parseSweepSpec(
        "{\"cache_ways\": [0, 4, 8], \"cache_mb\": [1, 2],"
        " \"gu_vft_kb\": [32]}");
    EXPECT_EQ(axes.cacheWays, (std::vector<std::uint32_t>{0, 4, 8}));
    EXPECT_EQ(axes.configCount(), 2u * 3u * 1u);
    // Unspecified cache_ways keeps the fully-associative default.
    dse::SweepAxes defaults = dse::parseSweepSpec("{\"cache_mb\": [1]}");
    EXPECT_EQ(defaults.cacheWays, (std::vector<std::uint32_t>{0}));
    // Other u32 axes still reject 0.
    EXPECT_THROW(dse::parseSweepSpec("{\"warp_ways\": [0]}"),
                 std::runtime_error);
}

TEST(DseDriverTest, GridExpansionIncludesCacheWays)
{
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.cacheWays = {0, 4};
    axes.warpWays = {32};
    axes.guVftKb = {32};
    axes.guBanks = {32};
    axes.dramGBs = {25.6};
    axes.sramBanks = {16};
    axes.concurrentRays = {16};
    std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 4u);
    // cache_ways varies faster than cache_mb (it sits right after it
    // in lexicographic axis order).
    EXPECT_EQ(grid[0].cacheMb, 1.0);
    EXPECT_EQ(grid[0].cacheWays, 0u);
    EXPECT_EQ(grid[1].cacheMb, 1.0);
    EXPECT_EQ(grid[1].cacheWays, 4u);
    EXPECT_EQ(grid[2].cacheMb, 2.0);
    EXPECT_EQ(grid[2].cacheWays, 0u);
    EXPECT_EQ(grid[3].cacheMb, 2.0);
    EXPECT_EQ(grid[3].cacheWays, 4u);
    // Associativity is part of the config identity.
    EXPECT_NE(grid[0].id(), grid[1].id());
    EXPECT_NE(grid[0].id(), grid[2].id());
}

TEST(DseDriverTest, SetAssociativeLruAddsConflictMisses)
{
    // Tiny cache: 4 lines of 64 B. A cyclic sweep over 5 lines
    // thrashes LRU fully-associative (every access misses); direct-
    // mapped (1-way, 4 sets) keeps lines 0..3 resident except where
    // line 4 conflicts with line 0 in set 0.
    CacheConfig full;
    full.capacityBytes = 4 * 64;
    full.lineBytes = 64;
    CacheConfig direct = full;
    direct.ways = 1;
    EXPECT_EQ(full.numSets(), 1u);
    EXPECT_EQ(direct.numSets(), 4u);

    LruCache fullCache(full);
    LruCache directCache(direct);
    for (int round = 0; round < 8; ++round) {
        for (std::uint64_t line = 0; line < 5; ++line) {
            MemAccess a;
            a.addr = line * 64;
            a.bytes = 4;
            fullCache.onAccess(a);
            directCache.onAccess(a);
        }
    }
    // Fully associative: pure LRU thrash, zero hits after warmup.
    EXPECT_EQ(fullCache.stats().hits, 0u);
    // Direct-mapped: sets 1..3 hit every round after the first; only
    // set 0 (lines 0 and 4) conflicts.
    EXPECT_GT(directCache.stats().hits, 0u);
    EXPECT_EQ(directCache.stats().accesses, fullCache.stats().accesses);
    // And a non-trivial associativity still bounds the set size.
    CacheConfig twoWay = full;
    twoWay.ways = 2;
    EXPECT_EQ(twoWay.numSets(), 2u);
}

TEST(DseDriverTest, GridExpansionIsLexicographic)
{
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.warpWays = {16, 32};
    axes.guVftKb = {32};
    axes.guBanks = {32};
    axes.dramGBs = {25.6};
    axes.sramBanks = {16};
    axes.concurrentRays = {16};
    std::vector<dse::DseConfig> grid = dse::expandGrid(axes);
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].cacheMb, 1.0);
    EXPECT_EQ(grid[0].warpWays, 16u);
    EXPECT_EQ(grid[1].cacheMb, 1.0);
    EXPECT_EQ(grid[1].warpWays, 32u);
    EXPECT_EQ(grid[3].cacheMb, 2.0);
    EXPECT_EQ(grid[3].warpWays, 32u);
    // Ids are unique.
    EXPECT_NE(grid[0].id(), grid[1].id());
    EXPECT_NE(grid[1].id(), grid[2].id());
}

// ---------------------------------------------------------------------
// Driver determinism
// ---------------------------------------------------------------------

TEST(DseDriverTest, ParallelSweepByteIdenticalToSerial)
{
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    Camera cam = test::tinyCamera(20);

    char dirTemplate[] = "/tmp/cicero_dse_test_XXXXXX";
    const char *dir = mkdtemp(dirTemplate);
    ASSERT_NE(dir, nullptr);

    dse::Corpus corpus(dir);
    for (int f = 0; f < 2; ++f) {
        std::vector<std::uint8_t> ctrace;
        captureWithSummary(*model, cam, 20, ctrace);
        dse::CorpusEntry entry;
        entry.id = "tiny_f" + std::to_string(f);
        entry.file = entry.id + ".ctrace";
        entry.scene = "tiny";
        entry.res = 20;
        entry.frame = static_cast<std::uint32_t>(f);
        std::FILE *out =
            std::fopen(corpus.tracePath(entry).c_str(), "wb");
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(std::fwrite(ctrace.data(), 1, ctrace.size(), out),
                  ctrace.size());
        std::fclose(out);
        corpus.add(std::move(entry));
    }
    corpus.save();

    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.guVftKb = {32, 64};
    dse::DseDriver driver(axes);

    setParallelThreadCount(4);
    dse::DseResult parallelRun = driver.run(corpus, true);
    dse::DseResult serialRun = driver.run(corpus, false);

    EXPECT_EQ(parallelRun.json(), serialRun.json());
    EXPECT_EQ(parallelRun.paretoJson(), serialRun.paretoJson());
    EXPECT_EQ(parallelRun.points.size(), 2u * 4u);
    EXPECT_EQ(parallelRun.traceCount, 2u);
    EXPECT_EQ(parallelRun.configCount, 4u);

    // At least one config sits on the Pareto frontier.
    std::size_t frontier = 0;
    for (const auto &s : parallelRun.summaries)
        frontier += s.pareto ? 1 : 0;
    EXPECT_GE(frontier, 1u);

    for (const auto &entry : corpus.entries())
        std::remove(corpus.tracePath(entry).c_str());
    std::remove((std::string(dir) + "/corpus.json").c_str());
    std::remove(dir);
}

/**
 * Plain reference sweep: every (config, trace) point priced by its own
 * evaluatePoint call, config-major, then averaged per config and
 * marked Pareto-optimal with a direct dominance check.
 */
dse::DseResult
perPointSweep(const dse::Corpus &corpus, const dse::SweepAxes &axes)
{
    std::vector<std::unique_ptr<TraceFileReader>> readers;
    for (const auto &entry : corpus.entries())
        readers.push_back(
            std::make_unique<TraceFileReader>(corpus.tracePath(entry)));
    const std::vector<dse::DseConfig> grid = dse::expandGrid(axes);

    dse::DseResult ref;
    ref.traceCount = readers.size();
    ref.configCount = grid.size();
    for (const dse::DseConfig &config : grid) {
        dse::DseConfigSummary s;
        s.config = config;
        s.sramBytes = config.sramBytes();
        for (std::size_t t = 0; t < readers.size(); ++t) {
            ref.points.push_back(dse::evaluatePoint(
                fileSource(*readers[t]), workloadFromTrace(*readers[t]),
                corpus.entries()[t].id, config));
            s.fps += ref.points.back().ciceroFps;
            s.energyNj += ref.points.back().ciceroEnergyNj;
        }
        s.fps /= readers.size();
        s.energyNj /= readers.size();
        ref.summaries.push_back(s);
    }
    for (dse::DseConfigSummary &a : ref.summaries) {
        a.pareto = true;
        for (const dse::DseConfigSummary &b : ref.summaries)
            if (b.fps >= a.fps && b.energyNj <= a.energyNj &&
                b.sramBytes <= a.sramBytes &&
                (b.fps > a.fps || b.energyNj < a.energyNj ||
                 b.sramBytes < a.sramBytes))
                a.pareto = false;
    }
    return ref;
}

TEST(DseDriverTest, DistinctStackPricingMatchesPerPointEvaluation)
{
    // The driver replays each distinct stack config once per trace and
    // composes the points from those results; its JSON must equal the
    // plain assembly of one evaluatePoint call per (trace, config), on
    // a grid where every axis varies and over two different traces.
    ThreadCountGuard guard;
    setParallelThreadCount(1);
    auto model = test::tinyModel();
    const int res = 16;

    char dirTemplate[] = "/tmp/cicero_dse_test_XXXXXX";
    const char *dir = mkdtemp(dirTemplate);
    ASSERT_NE(dir, nullptr);
    dse::Corpus corpus(dir);
    for (int f = 0; f < 2; ++f) {
        Pose pose = Pose::lookAt({0.6f * f, 0.5f, 2.5f - 0.5f * f},
                                 {0.0f, 0.0f, 0.0f}, {0.0f, 1.0f, 0.0f});
        std::vector<std::uint8_t> ctrace;
        captureWithSummary(*model, test::tinyCamera(res, &pose), res,
                           ctrace);
        dse::CorpusEntry entry;
        entry.id = "tiny_pose" + std::to_string(f);
        entry.file = entry.id + ".ctrace";
        entry.scene = "tiny";
        entry.res = res;
        entry.frame = static_cast<std::uint32_t>(f);
        std::FILE *out = std::fopen(corpus.tracePath(entry).c_str(), "wb");
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(std::fwrite(ctrace.data(), 1, ctrace.size(), out),
                  ctrace.size());
        std::fclose(out);
        corpus.add(std::move(entry));
    }
    corpus.save();

    // Caches of 16 and 64 lines, so the small trace still misses and
    // the GPU stack's price depends on the cache axes.
    dse::SweepAxes axes;
    axes.cacheMb = {1.0 / 1024, 4.0 / 1024};
    axes.cacheWays = {0, 2};
    axes.warpWays = {8, 32};
    axes.guVftKb = {32, 64};
    axes.guBanks = {16, 32};
    axes.dramGBs = {12.8, 25.6};
    axes.sramBanks = {8, 16};
    axes.concurrentRays = {8, 16};
    ASSERT_EQ(axes.configCount(), 256u);

    const dse::DseResult ref = perPointSweep(corpus, axes);
    const std::string refJson = ref.json();
    // Guard against a vacuous grid: the swept axes change the prices.
    std::vector<std::string> gpuStats, guStats, baseStats;
    for (const dse::DsePointResult &p : ref.points) {
        gpuStats.push_back(p.gpuJson);
        guStats.push_back(p.guJson);
        baseStats.push_back(p.baselinesJson);
    }
    for (auto *v : {&gpuStats, &guStats, &baseStats}) {
        std::sort(v->begin(), v->end());
        EXPECT_GT(std::unique(v->begin(), v->end()) - v->begin(), 2);
    }

    dse::DseDriver driver(axes);
    for (int threads : {1, 4})
        for (bool parallel : {true, false}) {
            setParallelThreadCount(threads);
            dse::DseResult run = driver.run(corpus, parallel);
            EXPECT_EQ(run.json(), refJson)
                << "threads=" << threads << " parallel=" << parallel;
            EXPECT_EQ(run.paretoJson(), ref.paretoJson());
        }

    for (const auto &entry : corpus.entries())
        std::remove(corpus.tracePath(entry).c_str());
    std::remove((std::string(dir) + "/corpus.json").c_str());
    std::remove(dir);
}

TEST(DseDriverTest, EmptyCorpusThrows)
{
    dse::Corpus corpus(".");
    dse::DseDriver driver;
    EXPECT_THROW(driver.run(corpus), std::runtime_error);
}

} // namespace
} // namespace cicero

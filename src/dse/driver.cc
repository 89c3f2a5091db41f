#include "dse/driver.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/parallel.hh"
#include "dse/minijson.hh"

namespace cicero::dse {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

void
parseDoubleAxis(const JsonValue &arr, const char *name,
                std::vector<double> &out)
{
    const auto &items = arr.asArray(name);
    if (items.empty())
        throw std::runtime_error(std::string("sweep spec: axis \"") +
                                 name + "\" must not be empty");
    out.clear();
    for (const JsonValue &v : items) {
        double d = v.asNumber(name);
        if (d <= 0)
            throw std::runtime_error(std::string("sweep spec: axis \"") +
                                     name + "\" values must be positive");
        out.push_back(d);
    }
}

void
parseU32Axis(const JsonValue &arr, const char *name,
             std::vector<std::uint32_t> &out, bool allowZero = false)
{
    const auto &items = arr.asArray(name);
    if (items.empty())
        throw std::runtime_error(std::string("sweep spec: axis \"") +
                                 name + "\" must not be empty");
    out.clear();
    for (const JsonValue &v : items) {
        std::uint64_t u = v.asU64(name);
        if ((u == 0 && !allowZero) || u > 0xffffffffull)
            throw std::runtime_error(
                std::string("sweep spec: axis \"") + name +
                "\" values must be in [" + (allowZero ? "0" : "1") +
                ", 2^32)");
        out.push_back(static_cast<std::uint32_t>(u));
    }
}

} // namespace

std::size_t
SweepAxes::configCount() const
{
    return cacheMb.size() * cacheWays.size() * warpWays.size() *
           guVftKb.size() * guBanks.size() * dramGBs.size() *
           sramBanks.size() * concurrentRays.size();
}

SweepAxes
parseSweepSpec(const std::string &jsonText)
{
    JsonValue root = parseJson(jsonText);
    if (!root.isObject())
        throw std::runtime_error("sweep spec: root must be an object");

    SweepAxes axes;
    for (const auto &m : root.members) {
        if (m.first == "cache_mb")
            parseDoubleAxis(m.second, "cache_mb", axes.cacheMb);
        else if (m.first == "cache_ways")
            // 0 = fully associative, a legal sweep point.
            parseU32Axis(m.second, "cache_ways", axes.cacheWays,
                         /*allowZero=*/true);
        else if (m.first == "warp_ways")
            parseU32Axis(m.second, "warp_ways", axes.warpWays);
        else if (m.first == "gu_vft_kb")
            parseU32Axis(m.second, "gu_vft_kb", axes.guVftKb);
        else if (m.first == "gu_banks")
            parseU32Axis(m.second, "gu_banks", axes.guBanks);
        else if (m.first == "dram_gbs")
            parseDoubleAxis(m.second, "dram_gbs", axes.dramGBs);
        else if (m.first == "sram_banks")
            parseU32Axis(m.second, "sram_banks", axes.sramBanks);
        else if (m.first == "concurrent_rays")
            parseU32Axis(m.second, "concurrent_rays",
                         axes.concurrentRays);
        else
            throw std::runtime_error("sweep spec: unknown axis \"" +
                                     m.first + "\"");
    }
    return axes;
}

std::string
DseConfig::id() const
{
    return "cache" + fmt("%g", cacheMb) + "-cw" +
           std::to_string(cacheWays) + "-ways" +
           std::to_string(warpWays) + "-vft" + std::to_string(guVftKb) +
           "k-gub" + std::to_string(guBanks) + "-dram" +
           fmt("%g", dramGBs) + "-sb" + std::to_string(sramBanks) +
           "-rays" + std::to_string(concurrentRays);
}

std::uint64_t
DseConfig::sramBytes() const
{
    GatheringUnitConfig gu;
    gu.vftBytes = static_cast<std::uint64_t>(guVftKb) * 1024;
    gu.banks = guBanks;
    return static_cast<std::uint64_t>(cacheMb * (1ull << 20)) +
           gu.sramBytes();
}

std::vector<DseConfig>
expandGrid(const SweepAxes &axes)
{
    std::vector<DseConfig> grid;
    grid.reserve(axes.configCount());
    for (double cache : axes.cacheMb)
        for (std::uint32_t cw : axes.cacheWays)
            for (std::uint32_t ways : axes.warpWays)
                for (std::uint32_t vft : axes.guVftKb)
                    for (std::uint32_t gub : axes.guBanks)
                        for (double dram : axes.dramGBs)
                            for (std::uint32_t sb : axes.sramBanks)
                                for (std::uint32_t rays :
                                     axes.concurrentRays) {
                                    DseConfig c;
                                    c.cacheMb = cache;
                                    c.cacheWays = cw;
                                    c.warpWays = ways;
                                    c.guVftKb = vft;
                                    c.guBanks = gub;
                                    c.dramGBs = dram;
                                    c.sramBanks = sb;
                                    c.concurrentRays = rays;
                                    grid.push_back(c);
                                }
    return grid;
}

namespace {

/** The NPU stack's inputs; no sweep axis reaches them. */
struct NpuStackConfig
{
    NpuConfig npu;
    EnergyConstants energy;
};

bool
operator==(const NpuStackConfig &a, const NpuStackConfig &b)
{
    return a.npu == b.npu && a.energy == b.energy;
}

/** The four stack configs that price one grid point. */
struct StackConfigs
{
    GpuStackConfig gpu;
    NpuStackConfig npu;
    GuStackConfig gu;
    BaselineStackConfig baselines;
};

StackConfigs
buildStacks(const DseConfig &config)
{
    StackConfigs s;
    s.gpu.gpu.dram.bandwidthGBs = config.dramGBs;
    s.gpu.cache.capacityBytes =
        static_cast<std::uint64_t>(config.cacheMb * (1ull << 20));
    s.gpu.cache.ways = config.cacheWays;
    s.gpu.warpWays = config.warpWays;

    s.gu.gu.vftBytes = static_cast<std::uint64_t>(config.guVftKb) * 1024;
    s.gu.gu.banks = config.guBanks;
    s.gu.dram.bandwidthGBs = config.dramGBs;
    s.gu.concurrentRays = config.concurrentRays;

    s.baselines.bank.numBanks = config.sramBanks;
    s.baselines.bank.concurrentRays = config.concurrentRays;
    s.baselines.dram.bandwidthGBs = config.dramGBs;
    return s;
}

/**
 * Price one (trace, config) point from its four stack results,
 * mirroring cicero/pipeline.cc nerfCost(): the GPU indexes and
 * composites, then the GU's gather overlaps with the NPU's MLP work
 * through the double-buffered feature buffer.
 */
DsePointResult
composePoint(const std::string &traceId, const DseConfig &config,
             const StackConfigs &stacks, const GpuStackResult &gpu,
             const NpuStackResult &npu, const GuStackResult &gu,
             const BaselineStackResult &baselines)
{
    DsePointResult point;
    point.traceId = traceId;
    point.configId = config.id();

    double gpuPartMs = gpu.times.indexMs + gpu.times.compositeMs;
    point.ciceroTimeMs =
        gpuPartMs + std::max(gu.cost.timeMs, npu.timeMs);
    point.ciceroFps =
        point.ciceroTimeMs > 0 ? 1000.0 / point.ciceroTimeMs : 0.0;
    point.ciceroEnergyNj = GpuModel(stacks.gpu.gpu).energyNj(gpuPartMs) +
                           npu.energyNj + gu.cost.energyNj;

    point.gpuFps = gpu.timeMs > 0 ? 1000.0 / gpu.timeMs : 0.0;
    point.gpuEnergyNj = gpu.energyNj;

    point.gpuJson = statsJson(gpu);
    point.npuJson = statsJson(npu);
    point.guJson = statsJson(gu);
    point.baselinesJson = statsJson(baselines);
    return point;
}

/**
 * The distinct values of one stack's config over the grid, in order of
 * first appearance, and which of them each grid point uses.
 */
template <typename Config>
struct DistinctStacks
{
    std::vector<Config> configs;
    std::vector<std::size_t> ofPoint;
};

template <typename Config>
DistinctStacks<Config>
distinctStacks(const std::vector<StackConfigs> &points,
               Config StackConfigs::*stack)
{
    DistinctStacks<Config> d;
    for (const StackConfigs &p : points) {
        const Config &config = p.*stack;
        auto it = std::find(d.configs.begin(), d.configs.end(), config);
        d.ofPoint.push_back(
            static_cast<std::size_t>(it - d.configs.begin()));
        if (it == d.configs.end())
            d.configs.push_back(config);
    }
    return d;
}

} // namespace

DsePointResult
evaluatePoint(const TraceSourceFn &source,
              const TraceWorkloadDescriptor &desc,
              const std::string &traceId, const DseConfig &config)
{
    StackConfigs stacks = buildStacks(config);
    GpuStackResult gpu = runGpuStack(source, desc, stacks.gpu);
    NpuStackResult npu =
        runNpuStack(source, desc, stacks.npu.npu, stacks.npu.energy);
    GuStackResult gu = runGuStack(source, desc, stacks.gu);
    BaselineStackResult baselines =
        runBaselineStack(source, desc, stacks.baselines);
    return composePoint(traceId, config, stacks, gpu, npu, gu, baselines);
}

DseDriver::DseDriver(SweepAxes axes) : _axes(std::move(axes))
{
}

DseResult
DseDriver::run(const Corpus &corpus, bool parallel) const
{
    if (corpus.empty())
        throw std::runtime_error("dse: corpus has no entries");

    // Parse every trace once; readers are shared across jobs (replay()
    // is const and reentrant).
    std::vector<std::unique_ptr<TraceFileReader>> readers;
    std::vector<TraceWorkloadDescriptor> descs;
    readers.reserve(corpus.size());
    descs.reserve(corpus.size());
    for (const CorpusEntry &entry : corpus.entries()) {
        readers.push_back(std::make_unique<TraceFileReader>(
            corpus.tracePath(entry)));
        descs.push_back(workloadFromTrace(*readers.back()));
    }

    std::vector<DseConfig> grid = expandGrid(_axes);
    const std::size_t traces = corpus.size();

    // Each stack reads only a few axes, so most grid points share their
    // stack configs with others: price every distinct one once per
    // trace, keyed on the config exactly as evaluatePoint builds it.
    std::vector<StackConfigs> stacks;
    stacks.reserve(grid.size());
    for (const DseConfig &c : grid)
        stacks.push_back(buildStacks(c));
    const auto gpus = distinctStacks(stacks, &StackConfigs::gpu);
    const auto npus = distinctStacks(stacks, &StackConfigs::npu);
    const auto gus = distinctStacks(stacks, &StackConfigs::gu);
    const auto bases = distinctStacks(stacks, &StackConfigs::baselines);

    const std::size_t nGpu = gpus.configs.size(), nNpu = npus.configs.size(),
                      nGu = gus.configs.size(), nBase = bases.configs.size();
    const std::size_t perTrace = nGpu + nNpu + nGu + nBase;
    std::vector<GpuStackResult> gpuRes(traces * nGpu);
    std::vector<NpuStackResult> npuRes(traces * nNpu);
    std::vector<GuStackResult> guRes(traces * nGu);
    std::vector<BaselineStackResult> baseRes(traces * nBase);

    // Index-addressed replays: job j is trace j / perTrace and distinct
    // stack j % perTrace (GPU, then NPU, GU, baseline configs), and
    // writes only its own result slot.
    auto replayJob = [&](std::size_t j) {
        const std::size_t t = j / perTrace;
        std::size_t k = j % perTrace;
        const TraceSourceFn source = fileSource(*readers[t]);
        if (k < nGpu) {
            gpuRes[t * nGpu + k] =
                runGpuStack(source, descs[t], gpus.configs[k]);
            return;
        }
        k -= nGpu;
        if (k < nNpu) {
            const NpuStackConfig &c = npus.configs[k];
            npuRes[t * nNpu + k] =
                runNpuStack(source, descs[t], c.npu, c.energy);
            return;
        }
        k -= nNpu;
        if (k < nGu) {
            guRes[t * nGu + k] = runGuStack(source, descs[t], gus.configs[k]);
            return;
        }
        k -= nGu;
        baseRes[t * nBase + k] =
            runBaselineStack(source, descs[t], bases.configs[k]);
    };

    const std::size_t jobs = traces * perTrace;
    if (parallel) {
        TaskGroup group;
        for (std::size_t j = 0; j < jobs; ++j)
            group.run([&replayJob, j] { replayJob(j); });
        group.wait();
    } else {
        for (std::size_t j = 0; j < jobs; ++j)
            replayJob(j);
    }

    DseResult result;
    result.traceCount = traces;
    result.configCount = grid.size();

    // Compose every point serially, config-major (c * traces + t).
    result.points.reserve(grid.size() * traces);
    for (std::size_t c = 0; c < grid.size(); ++c)
        for (std::size_t t = 0; t < traces; ++t)
            result.points.push_back(composePoint(
                corpus.entries()[t].id, grid[c], stacks[c],
                gpuRes[t * nGpu + gpus.ofPoint[c]],
                npuRes[t * nNpu + npus.ofPoint[c]],
                guRes[t * nGu + gus.ofPoint[c]],
                baseRes[t * nBase + bases.ofPoint[c]]));

    // Per-config aggregates, accumulated in trace order.
    result.summaries.reserve(grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
        DseConfigSummary s;
        s.config = grid[c];
        s.sramBytes = grid[c].sramBytes();
        double fpsSum = 0.0, energySum = 0.0;
        for (std::size_t t = 0; t < traces; ++t) {
            const DsePointResult &p = result.points[c * traces + t];
            fpsSum += p.ciceroFps;
            energySum += p.ciceroEnergyNj;
        }
        s.fps = fpsSum / traces;
        s.energyNj = energySum / traces;
        result.summaries.push_back(s);
    }

    // Pareto frontier over (fps up, energy down, SRAM down).
    for (std::size_t i = 0; i < result.summaries.size(); ++i) {
        DseConfigSummary &a = result.summaries[i];
        bool dominated = false;
        for (std::size_t k = 0; k < result.summaries.size() && !dominated;
             ++k) {
            if (k == i)
                continue;
            const DseConfigSummary &b = result.summaries[k];
            bool geFps = b.fps >= a.fps;
            bool leEnergy = b.energyNj <= a.energyNj;
            bool leSram = b.sramBytes <= a.sramBytes;
            bool strict = b.fps > a.fps || b.energyNj < a.energyNj ||
                          b.sramBytes < a.sramBytes;
            dominated = geFps && leEnergy && leSram && strict;
        }
        a.pareto = !dominated;
    }
    return result;
}

namespace {

std::string
summaryJson(const DseConfigSummary &s)
{
    return "{\"config\": \"" + s.config.id() +
           "\", \"cache_mb\": " + fmt("%g", s.config.cacheMb) +
           ", \"cache_ways\": " + std::to_string(s.config.cacheWays) +
           ", \"warp_ways\": " + std::to_string(s.config.warpWays) +
           ", \"gu_vft_kb\": " + std::to_string(s.config.guVftKb) +
           ", \"gu_banks\": " + std::to_string(s.config.guBanks) +
           ", \"dram_gbs\": " + fmt("%g", s.config.dramGBs) +
           ", \"sram_banks\": " + std::to_string(s.config.sramBanks) +
           ", \"concurrent_rays\": " +
           std::to_string(s.config.concurrentRays) +
           ", \"sram_bytes\": " + std::to_string(s.sramBytes) +
           ", \"fps\": " + fmt("%.6f", s.fps) +
           ", \"energy_nj\": " + fmt("%.3f", s.energyNj) +
           ", \"pareto\": " + (s.pareto ? "true" : "false") + "}";
}

} // namespace

std::string
DseResult::json() const
{
    std::string out = "{\n  \"tool\": \"cicero_dse\",\n  \"traces\": " +
                      std::to_string(traceCount) +
                      ",\n  \"configs\": " + std::to_string(configCount) +
                      ",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DsePointResult &p = points[i];
        out += i ? ",\n" : "\n";
        out += "    {\"trace\": \"" + jsonEscape(p.traceId) +
               "\", \"config\": \"" + p.configId +
               "\", \"cicero_time_ms\": " + fmt("%.6f", p.ciceroTimeMs) +
               ", \"cicero_fps\": " + fmt("%.6f", p.ciceroFps) +
               ", \"cicero_energy_nj\": " +
               fmt("%.3f", p.ciceroEnergyNj) +
               ", \"gpu_fps\": " + fmt("%.6f", p.gpuFps) +
               ", \"gpu_energy_nj\": " + fmt("%.3f", p.gpuEnergyNj) +
               ", \"gpu\": " + p.gpuJson + ", \"npu\": " + p.npuJson +
               ", \"gu\": " + p.guJson +
               ", \"baselines\": " + p.baselinesJson + "}";
    }
    out += "\n  ],\n  \"summary\": [";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        out += i ? ",\n" : "\n";
        out += "    " + summaryJson(summaries[i]);
    }
    out += "\n  ],\n  \"pareto\": [";
    bool first = true;
    for (const DseConfigSummary &s : summaries) {
        if (!s.pareto)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + s.config.id() + "\"";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
DseResult::paretoJson() const
{
    std::string out = "{\n  \"pareto\": [";
    bool first = true;
    for (const DseConfigSummary &s : summaries) {
        if (!s.pareto)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + summaryJson(s);
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace cicero::dse

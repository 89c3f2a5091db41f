#include "dse/accel_replay.hh"

#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/sram_bank_model.hh"
#include "memory/trace.hh"

namespace cicero {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

/** Counts the stream so every stack observes what it replayed. */
class CountingSink : public TraceSink
{
  public:
    void
    onAccess(const MemAccess &) override
    {
        ++accesses;
    }

    void
    onRayEnd(std::uint32_t) override
    {
        ++rays;
    }

    void onFlush() override {}

    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

} // namespace

TraceWorkloadSummary
toSummary(const TraceWorkloadDescriptor &desc)
{
    TraceWorkloadSummary s;
    s.rays = desc.work.rays;
    s.samples = desc.work.samples;
    s.indexOps = desc.work.indexOps;
    s.vertexFetches = desc.work.vertexFetches;
    s.gatherBytes = desc.work.gatherBytes;
    s.interpOps = desc.work.interpOps;
    s.mlpMacs = desc.work.mlpMacs;
    s.compositeOps = desc.work.compositeOps;
    s.streamedBytes = desc.plan.streamedBytes;
    s.randomBytes = desc.plan.randomBytes;
    s.ritEntries = desc.plan.ritEntries;
    s.ritBytes = desc.plan.ritBytes;
    s.vertexBytes = desc.vertexBytes;
    return s;
}

TraceWorkloadDescriptor
fromSummary(const TraceWorkloadSummary &summary)
{
    TraceWorkloadDescriptor d;
    d.work.rays = summary.rays;
    d.work.samples = summary.samples;
    d.work.indexOps = summary.indexOps;
    d.work.vertexFetches = summary.vertexFetches;
    d.work.gatherBytes = summary.gatherBytes;
    d.work.interpOps = summary.interpOps;
    d.work.mlpMacs = summary.mlpMacs;
    d.work.compositeOps = summary.compositeOps;
    d.plan.streamedBytes = summary.streamedBytes;
    d.plan.randomBytes = summary.randomBytes;
    d.plan.ritEntries = summary.ritEntries;
    d.plan.ritBytes = summary.ritBytes;
    d.vertexBytes = summary.vertexBytes;
    return d;
}

TraceWorkloadDescriptor
measureWorkload(const NerfModel &model, const Camera &cam)
{
    TraceWorkloadDescriptor desc;
    desc.work = model.traceWorkload(cam, nullptr);
    desc.plan = model.encoding().streamingFootprint(
        model.collectSamplePositions(cam));
    desc.vertexBytes = model.encoding().featureDim() * kBytesPerChannel;
    return desc;
}

TraceWorkloadDescriptor
workloadFromTrace(const TraceFileReader &reader)
{
    if (!reader.hasWorkloadSummary())
        throw std::runtime_error(
            "trace has no workload summary (captured with a pre-v2 "
            "writer?); re-capture to replay accelerator models");
    return fromSummary(reader.workloadSummary());
}

GpuStackResult
runGpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc,
            const GpuStackConfig &config)
{
    // The probe.cc arrangement: warp interleaving in front of the cache
    // and DRAM probes, the raw stream counted on the side.
    DramModel dram(config.gpu.dram);
    LruCache cache(config.cache);
    WarpInterleaver interleaver(config.warpWays);
    interleaver.addSink(&dram);
    interleaver.addSink(&cache);
    CountingSink counter;
    TraceTee tee;
    tee.addSink(&interleaver);
    tee.addSink(&counter);
    source(&tee);

    GpuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.profile.cacheMissRate = cache.stats().missRate();
    result.profile.randomFraction = dram.stats().nonStreamingFraction();

    GpuModel gpu(config.gpu);
    result.times = gpu.timeNerfFrame(desc.work, result.profile);
    result.timeMs = result.times.totalMs();
    result.energyNj =
        gpu.energyNj(result.timeMs) +
        gpu.gatherDramEnergyNj(desc.work, result.profile, config.energy);
    return result;
}

NpuStackResult
runNpuStack(const TraceSourceFn &source,
            const TraceWorkloadDescriptor &desc, const NpuConfig &config,
            const EnergyConstants &energy)
{
    CountingSink counter;
    source(&counter);

    NpuModel npu(config);
    NpuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.mlpMs = npu.mlpTimeMs(desc.work.mlpMacs);
    result.scalarMs = npu.scalarTimeMs(desc.work.compositeOps);
    result.timeMs = result.mlpMs + result.scalarMs;
    result.energyNj = npu.energyNj(result.timeMs) +
                      npu.macEnergyNj(desc.work.mlpMacs, energy);
    return result;
}

GuStackResult
runGuStack(const TraceSourceFn &source,
           const TraceWorkloadDescriptor &desc, const GuStackConfig &config)
{
    // Channel-major bank simulation over the replayed stream verifies
    // the GU's conflict-freedom claim on this trace, not by assumption.
    SramBankConfig bank;
    bank.numBanks = config.gu.banks;
    bank.portsPerBank = config.gu.ports;
    bank.concurrentRays = config.concurrentRays;
    bank.featureBytes = desc.vertexBytes ? desc.vertexBytes
                                         : bank.featureBytes;
    bank.layout = SramLayout::ChannelMajor;
    BankConflictSim sim(bank);
    CountingSink counter;
    TraceTee tee;
    tee.addSink(&sim);
    tee.addSink(&counter);
    source(&tee);

    GuStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.channelMajor = sim.stats();
    result.cost = GatheringUnitModel(config.gu).price(
        desc.plan, desc.vertexBytes, config.dram, config.energy);
    return result;
}

BaselineStackResult
runBaselineStack(const TraceSourceFn &source,
                 const TraceWorkloadDescriptor &desc,
                 const BaselineStackConfig &config)
{
    SramBankConfig bank = config.bank;
    bank.featureBytes = desc.vertexBytes ? desc.vertexBytes
                                         : bank.featureBytes;
    bank.layout = SramLayout::FeatureMajor;
    BankConflictSim sim(bank);
    CountingSink counter;
    TraceTee tee;
    tee.addSink(&sim);
    tee.addSink(&counter);
    source(&tee);

    BaselineStackResult result;
    result.accesses = counter.accesses;
    result.rays = counter.rays;
    result.bankConflictRate = sim.stats().conflictRate();
    result.neurex = NeurexModel(config.neurex)
                        .price(desc.work, result.bankConflictRate,
                               config.dram, config.energy);
    result.ngpc = NgpcModel(config.ngpc).price(desc.work, config.energy);
    return result;
}

namespace {

// Every field of each config, for the equality operators below.
auto
fields(const DramConfig &c)
{
    return std::tie(c.numBanks, c.rowBytes, c.burstBytes, c.bandwidthGBs,
                    c.randomAccessNs, c.streamEnergyPjPerByte,
                    c.randomEnergyPjPerByte);
}

auto
fields(const GpuConfig &c)
{
    return std::tie(c.name, c.macThroughput, c.aluThroughput,
                    c.fetchIssueRate, c.sparseDispatchOverhead,
                    c.cacheMissTransactionBytes, c.randomPenalty,
                    c.activePowerW, c.pointOpsPerSecond);
}

auto
fields(const CacheConfig &c)
{
    return std::tie(c.capacityBytes, c.lineBytes, c.ways);
}

auto
fields(const EnergyConstants &c)
{
    return std::tie(c.sramPjPerByte, c.dramStreamPjPerByte,
                    c.dramRandomPjPerByte, c.macPj, c.aluOpPj,
                    c.wirelessNjPerByte, c.wirelessMBps, c.socStaticW,
                    c.gpuIdleW, c.gpuActiveW, c.npuActiveW,
                    c.remoteGpuActiveW);
}

auto
fields(const NpuConfig &c)
{
    return std::tie(c.rows, c.cols, c.freqGHz, c.utilization,
                    c.featureBufBytes, c.weightBufBytes, c.activePowerW,
                    c.scalarOpsPerSecond);
}

auto
fields(const GatheringUnitConfig &c)
{
    return std::tie(c.banks, c.ports, c.vftBytes, c.ritEntryBytes,
                    c.ritEntries, c.freqGHz, c.activePowerW);
}

auto
fields(const NeurexConfig &c)
{
    return std::tie(c.peRows, c.peCols, c.gatherLanes, c.bufferBytes,
                    c.freqGHz, c.bufferMissRate, c.activePowerW);
}

auto
fields(const NgpcConfig &c)
{
    return std::tie(c.peRows, c.peCols, c.gatherLanes, c.bufferBytes,
                    c.freqGHz, c.activePowerW);
}

auto
fields(const SramBankConfig &c)
{
    return std::tie(c.numBanks, c.portsPerBank, c.concurrentRays,
                    c.featureBytes, c.channelBytes, c.layout);
}

template <typename T>
bool
same(const T &a, const T &b)
{
    return fields(a) == fields(b);
}

} // namespace

bool
operator==(const GpuStackConfig &a, const GpuStackConfig &b)
{
    return same(a.gpu, b.gpu) && same(a.gpu.dram, b.gpu.dram) &&
           same(a.cache, b.cache) && a.warpWays == b.warpWays &&
           same(a.energy, b.energy);
}

bool
operator==(const GuStackConfig &a, const GuStackConfig &b)
{
    return same(a.gu, b.gu) && same(a.dram, b.dram) &&
           same(a.energy, b.energy) && a.concurrentRays == b.concurrentRays;
}

bool
operator==(const BaselineStackConfig &a, const BaselineStackConfig &b)
{
    return same(a.neurex, b.neurex) && same(a.ngpc, b.ngpc) &&
           same(a.bank, b.bank) && same(a.dram, b.dram) &&
           same(a.energy, b.energy);
}

bool
operator==(const NpuConfig &a, const NpuConfig &b)
{
    return same(a, b);
}

bool
operator==(const EnergyConstants &a, const EnergyConstants &b)
{
    return same(a, b);
}

namespace {

std::string
accelCostFields(const AccelFrameCost &c)
{
    return "\"gather_ms\": " + fmt("%.6f", c.gatherMs) +
           ", \"mlp_ms\": " + fmt("%.6f", c.mlpMs) +
           ", \"time_ms\": " + fmt("%.6f", c.timeMs) +
           ", \"energy_nj\": " + fmt("%.3f", c.energyNj);
}

} // namespace

std::string
statsJson(const GpuStackResult &result)
{
    return "{\"stack\": \"gpu\", \"accesses\": " + u64s(result.accesses) +
           ", \"rays\": " + u64s(result.rays) +
           ", \"index_ms\": " + fmt("%.6f", result.times.indexMs) +
           ", \"gather_ms\": " + fmt("%.6f", result.times.gatherMs) +
           ", \"mlp_ms\": " + fmt("%.6f", result.times.mlpMs) +
           ", \"composite_ms\": " + fmt("%.6f", result.times.compositeMs) +
           ", \"time_ms\": " + fmt("%.6f", result.timeMs) +
           ", \"cache_miss_rate\": " +
           fmt("%.6f", result.profile.cacheMissRate) +
           ", \"random_fraction\": " +
           fmt("%.6f", result.profile.randomFraction) +
           ", \"energy_nj\": " + fmt("%.3f", result.energyNj) + "}";
}

std::string
statsJson(const NpuStackResult &result)
{
    return "{\"stack\": \"npu\", \"accesses\": " + u64s(result.accesses) +
           ", \"rays\": " + u64s(result.rays) +
           ", \"mlp_ms\": " + fmt("%.6f", result.mlpMs) +
           ", \"scalar_ms\": " + fmt("%.6f", result.scalarMs) +
           ", \"time_ms\": " + fmt("%.6f", result.timeMs) +
           ", \"energy_nj\": " + fmt("%.3f", result.energyNj) + "}";
}

std::string
statsJson(const GuStackResult &result)
{
    return "{\"stack\": \"gu\", \"accesses\": " + u64s(result.accesses) +
           ", \"rays\": " + u64s(result.rays) +
           ", \"compute_ms\": " + fmt("%.6f", result.cost.computeMs) +
           ", \"dram_ms\": " + fmt("%.6f", result.cost.dramMs) +
           ", \"time_ms\": " + fmt("%.6f", result.cost.timeMs) +
           ", \"cycles\": " + u64s(result.cost.cycles) +
           ", \"bank_requests\": " + u64s(result.channelMajor.requests) +
           ", \"bank_stalls\": " + u64s(result.channelMajor.stalls) +
           ", \"conflict_rate\": " +
           fmt("%.6f", result.channelMajor.conflictRate()) +
           ", \"energy_nj\": " + fmt("%.3f", result.cost.energyNj) + "}";
}

std::string
statsJson(const BaselineStackResult &result)
{
    return "{\"stack\": \"baselines\", \"accesses\": " +
           u64s(result.accesses) + ", \"rays\": " + u64s(result.rays) +
           ", \"bank_conflict_rate\": " +
           fmt("%.6f", result.bankConflictRate) + ", \"neurex\": {" +
           accelCostFields(result.neurex) + "}, \"ngpc\": {" +
           accelCostFields(result.ngpc) + "}}";
}

} // namespace cicero

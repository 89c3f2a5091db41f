/**
 * @file
 * Replay-driven design-space exploration driver.
 *
 * A declarative SweepAxes spec (cache size and associativity, warp
 * interleaving, GU VFT size and bank count, DRAM bandwidth, baseline
 * SRAM banking, concurrent rays) expands into a full cartesian config
 * grid. Every (trace, config) point is priced from four accelerator
 * stacks of dse/accel_replay.hh, composed into the Cicero frame price
 * exactly as cicero/pipeline.cc does (GPU indexing + compositing, then
 * gather on the GU overlapped with MLP on the NPU).
 *
 * Each stack reads only a few axes, so many points share a stack
 * config. The driver builds every point's stack configs as
 * evaluatePoint does and replays each trace once per *distinct* stack
 * config (compared field by field), then composes each point from
 * those results with evaluatePoint's own composition — so a sweep
 * equals one evaluatePoint per (trace, config), byte for byte.
 *
 * Determinism contract: the replays are sharded over the TaskGroup
 * scheduler but write into index-addressed result slots, and points
 * are composed serially in config-major order, so the assembled
 * results — and the emitted JSON, which uses the repo's fixed-precision
 * formatting — are byte-identical to a serial run at any thread count.
 * Trace readers are shared across jobs (TraceFileReader::replay is
 * const and reentrant).
 *
 * The Pareto frontier is computed over per-config aggregates: a config
 * is dominated when another achieves >= fps with <= energy and <= swept
 * SRAM area, at least one strictly better.
 */

#ifndef CICERO_DSE_DRIVER_HH
#define CICERO_DSE_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dse/accel_replay.hh"
#include "dse/corpus.hh"

namespace cicero::dse {

/** The swept axes; each vector is one dimension of the grid. */
struct SweepAxes
{
    std::vector<double> cacheMb{1.0, 2.0, 4.0};       //!< gather cache
    /**
     * Gather-cache associativity in ways; 0 = fully associative (the
     * paper's generous baseline). Real design points sweep e.g.
     * {4, 8, 16} to price the conflict-miss gap.
     */
    std::vector<std::uint32_t> cacheWays{0};
    std::vector<std::uint32_t> warpWays{32};          //!< interleaving
    std::vector<std::uint32_t> guVftKb{32, 64};       //!< GU VFT size
    std::vector<std::uint32_t> guBanks{32};           //!< GU SRAM arrays
    std::vector<double> dramGBs{25.6};                //!< DRAM bandwidth
    std::vector<std::uint32_t> sramBanks{16};         //!< baseline banks
    std::vector<std::uint32_t> concurrentRays{16};    //!< bank-sim slots

    /** Size of the expanded grid (product of the axis lengths). */
    std::size_t configCount() const;
};

/**
 * Parse a JSON sweep spec: an object whose members name axes
 * ("cache_mb", "cache_ways", "warp_ways", "gu_vft_kb", "gu_banks",
 * "dram_gbs", "sram_banks", "concurrent_rays") and hold non-empty
 * arrays of positive numbers. Missing axes keep their defaults.
 * "cache_ways" alone admits 0 (= fully associative).
 * @throws std::runtime_error on malformed JSON, unknown axis names,
 *         empty arrays, or non-positive values.
 */
SweepAxes parseSweepSpec(const std::string &jsonText);

/** One point of the expanded config grid. */
struct DseConfig
{
    double cacheMb = 2.0;
    std::uint32_t cacheWays = 0; //!< 0 = fully associative
    std::uint32_t warpWays = 32;
    std::uint32_t guVftKb = 32;
    std::uint32_t guBanks = 32;
    double dramGBs = 25.6;
    std::uint32_t sramBanks = 16;
    std::uint32_t concurrentRays = 16;

    /** Deterministic identifier, e.g. "cache2-cw0-ways32-vft32k-...". */
    std::string id() const;

    /**
     * Swept on-chip SRAM area in bytes: the gather cache plus the GU's
     * footprint (VFT + double-buffered RIT). The NPU buffers are fixed
     * across the grid and excluded.
     */
    std::uint64_t sramBytes() const;
};

/** Expand @p axes into the grid, lexicographic in axis order. */
std::vector<DseConfig> expandGrid(const SweepAxes &axes);

/** Priced (trace, config) pair. */
struct DsePointResult
{
    std::string traceId;
    std::string configId;
    double ciceroTimeMs = 0.0;
    double ciceroFps = 0.0;
    double ciceroEnergyNj = 0.0;
    double gpuFps = 0.0;      //!< GPU-only baseline on the same config
    double gpuEnergyNj = 0.0;
    // Full stack stats, serialized with the deterministic statsJson
    // overloads — the byte-comparable unit of the identity gates.
    std::string gpuJson;
    std::string npuJson;
    std::string guJson;
    std::string baselinesJson;
};

/** Per-config aggregate across the corpus. */
struct DseConfigSummary
{
    DseConfig config;
    double fps = 0.0;         //!< mean Cicero fps over the traces
    double energyNj = 0.0;    //!< mean Cicero frame energy
    std::uint64_t sramBytes = 0;
    bool pareto = false;
};

/** Complete sweep output. */
struct DseResult
{
    std::vector<DsePointResult> points;      //!< config-major order
    std::vector<DseConfigSummary> summaries; //!< grid order
    std::size_t traceCount = 0;
    std::size_t configCount = 0;

    /** Deterministic full-result JSON (points + summary + frontier). */
    std::string json() const;

    /** Deterministic JSON of the Pareto-optimal configs only. */
    std::string paretoJson() const;
};

/**
 * Evaluate one trace against one config: replay all four stacks and
 * compose the point. DseDriver::run prices every point of its grid to
 * the same bytes while sharing replays between points; this entry is
 * the per-point reference that the identity tests and the benchmark's
 * per-point timing call.
 */
DsePointResult evaluatePoint(const TraceSourceFn &source,
                             const TraceWorkloadDescriptor &desc,
                             const std::string &traceId,
                             const DseConfig &config);

/** The sweep driver. */
class DseDriver
{
  public:
    explicit DseDriver(SweepAxes axes = {});

    const SweepAxes &axes() const { return _axes; }

    /**
     * Run the sweep over @p corpus. With @p parallel the (trace,
     * distinct stack config) replays are sharded over the TaskGroup
     * scheduler; the result is byte-identical either way.
     * @throws std::runtime_error when the corpus is empty, a trace file
     *         fails to parse, or a trace lacks a workload summary.
     */
    DseResult run(const Corpus &corpus, bool parallel = true) const;

  private:
    SweepAxes _axes;
};

} // namespace cicero::dse

#endif // CICERO_DSE_DRIVER_HH

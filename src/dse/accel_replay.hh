/**
 * @file
 * Accelerator-model replay stacks: run every `src/accel/` model — GPU,
 * NPU, Gathering Unit, and the NeuRex/NGPC baselines — from a
 * TraceSourceFn, exactly like the memory-model stacks in
 * memory/replay.hh.
 *
 * The access stream alone does not determine an accelerator price:
 * the models consume derived quantities (StageWork op counts, the
 * encoding's StreamPlan, the vertex feature size) that the renderer
 * measures at capture time. Trace containers therefore persist a
 * TraceWorkloadSummary (file version 2) holding those exact integers;
 * a TraceWorkloadDescriptor is its in-memory form. A live run derives
 * the descriptor with measureWorkload(); a replay run recovers the
 * identical integers with workloadFromTrace() — so replayed
 * accelerator stats are bit-identical to live ones, extending the
 * capture-once / replay-many contract from the memory stacks to the
 * full accelerator models.
 *
 * Each stack still consumes the access stream: the GPU stack measures
 * its GatherProfile (cache miss rate, DRAM random fraction) from it,
 * the GU and baseline stacks run bank-conflict simulations over it,
 * and the NPU stack counts it — every replayed byte is observed, so a
 * stream/summary mismatch shows up in the stats.
 */

#ifndef CICERO_DSE_ACCEL_REPLAY_HH
#define CICERO_DSE_ACCEL_REPLAY_HH

#include <cstdint>
#include <string>

#include "accel/baseline_accels.hh"
#include "accel/gathering_unit.hh"
#include "accel/gpu_model.hh"
#include "accel/npu_model.hh"
#include "memory/replay.hh"
#include "nerf/encoding.hh"
#include "nerf/renderer.hh"
#include "nerf/workload.hh"

namespace cicero {

/**
 * The capture-time quantities an accelerator model needs beyond the
 * access stream. In-memory (typed) counterpart of the container's
 * TraceWorkloadSummary.
 */
struct TraceWorkloadDescriptor
{
    StageWork work;              //!< frame op counts
    StreamPlan plan;             //!< encoding streaming footprint
    std::uint32_t vertexBytes = 0; //!< bytes of one feature vector
};

/** Convert a descriptor to the container's serialized form. */
TraceWorkloadSummary toSummary(const TraceWorkloadDescriptor &desc);

/** Convert the container's serialized form back to a descriptor. */
TraceWorkloadDescriptor fromSummary(const TraceWorkloadSummary &summary);

/**
 * Measure the workload descriptor live: op counts from a functional
 * trace pass, the streaming footprint from the encoding, the vertex
 * size from the feature dimension.
 */
TraceWorkloadDescriptor measureWorkload(const NerfModel &model,
                                        const Camera &cam);

/**
 * Recover the descriptor persisted in a trace container.
 * @throws std::runtime_error when the file predates version 2 or was
 *         captured without a summary.
 */
TraceWorkloadDescriptor workloadFromTrace(const TraceFileReader &reader);

/** Live trace source: emits the model's gather stream for @p cam. */
inline TraceSourceFn
liveSource(const NerfModel &model, const Camera &cam)
{
    return [&model, cam](TraceSink *sink) {
        model.traceWorkload(cam, sink);
    };
}

// ---------------------------------------------------------------------
// GPU stack
// ---------------------------------------------------------------------

/** GPU stack: cache + DRAM probes feeding the analytic GPU model. */
struct GpuStackConfig
{
    GpuConfig gpu;               //!< includes the DRAM device (gpu.dram)
    CacheConfig cache;           //!< gather cache probed for miss rate
    std::uint32_t warpWays = 32; //!< warp interleaving in front of it
    EnergyConstants energy;
};

struct GpuStackResult
{
    GpuStageTimes times;       //!< per-stage ms for the full frame
    GatherProfile profile;     //!< measured from the replayed stream
    double timeMs = 0.0;       //!< full-frame GPU time
    double energyNj = 0.0;     //!< busy energy + gather DRAM energy
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source through warp-interleaved cache and DRAM probes (the
 * probe.cc arrangement), then price the frame on the GPU model with the
 * measured profile.
 */
GpuStackResult runGpuStack(const TraceSourceFn &source,
                           const TraceWorkloadDescriptor &desc,
                           const GpuStackConfig &config = {});

// ---------------------------------------------------------------------
// NPU stack
// ---------------------------------------------------------------------

struct NpuStackResult
{
    double mlpMs = 0.0;
    double scalarMs = 0.0;
    double timeMs = 0.0;       //!< mlp + scalar (shared datapath)
    double energyNj = 0.0;     //!< busy energy + MAC energy
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/** Replay @p source (counted) and price MLP + compositing on the NPU. */
NpuStackResult runNpuStack(const TraceSourceFn &source,
                           const TraceWorkloadDescriptor &desc,
                           const NpuConfig &config = {},
                           const EnergyConstants &energy = {});

// ---------------------------------------------------------------------
// Gathering Unit stack
// ---------------------------------------------------------------------

struct GuStackConfig
{
    GatheringUnitConfig gu;
    DramConfig dram;
    EnergyConstants energy;
    std::uint32_t concurrentRays = 16; //!< bank-sim ray slots
};

struct GuStackResult
{
    GuCost cost;                    //!< analytic GU price of the plan
    BankConflictStats channelMajor; //!< measured on the replayed stream
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source through a channel-major bank-conflict simulation
 * (verifying the GU's conflict-freedom on this very stream) and price
 * the descriptor's StreamPlan on the GU model.
 */
GuStackResult runGuStack(const TraceSourceFn &source,
                         const TraceWorkloadDescriptor &desc,
                         const GuStackConfig &config = {});

// ---------------------------------------------------------------------
// Baseline accelerators stack (NeuRex + NGPC)
// ---------------------------------------------------------------------

struct BaselineStackConfig
{
    NeurexConfig neurex;
    NgpcConfig ngpc;
    SramBankConfig bank; //!< feature-major sim; featureBytes comes from
                         //!< the descriptor's vertex size
    DramConfig dram;
    EnergyConstants energy;
};

struct BaselineStackResult
{
    AccelFrameCost neurex;
    AccelFrameCost ngpc;
    double bankConflictRate = 0.0; //!< measured feature-major rate
    std::uint64_t accesses = 0;
    std::uint64_t rays = 0;
};

/**
 * Replay @p source through a feature-major bank-conflict simulation
 * (NeuRex's layout) and price the frame on both baseline models.
 */
BaselineStackResult runBaselineStack(const TraceSourceFn &source,
                                     const TraceWorkloadDescriptor &desc,
                                     const BaselineStackConfig &config = {});

// ---------------------------------------------------------------------
// Config equality
// ---------------------------------------------------------------------

/**
 * Field-by-field equality of the stack configs, nested device configs
 * included, and of the NPU stack's inputs. Equal configs price a trace
 * identically, so the DSE driver replays each distinct one once.
 */
bool operator==(const GpuStackConfig &a, const GpuStackConfig &b);
bool operator==(const GuStackConfig &a, const GuStackConfig &b);
bool operator==(const BaselineStackConfig &a, const BaselineStackConfig &b);
bool operator==(const NpuConfig &a, const NpuConfig &b);
bool operator==(const EnergyConstants &a, const EnergyConstants &b);

/**
 * Deterministic JSON for the accelerator stacks — same contract as the
 * memory-stack statsJson overloads: integers verbatim, fixed-precision
 * floats, byte-identical strings for equal results.
 */
std::string statsJson(const GpuStackResult &result);
std::string statsJson(const NpuStackResult &result);
std::string statsJson(const GuStackResult &result);
std::string statsJson(const BaselineStackResult &result);

} // namespace cicero

#endif // CICERO_DSE_ACCEL_REPLAY_HH

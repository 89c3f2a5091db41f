/**
 * @file
 * What the workloads share: run options, the per-pass record main()
 * turns into metrics, the Workload interface, and helpers that
 * drive the library from outside (frame comparison, serial reference
 * renders, per-stage replays of the NeRF walk, scheduler counters).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hh"
#include "common/image.hh"
#include "common/parallel.hh"
#include "nerf/renderer.hh"
#include "scene/scene.hh"
#include "spans.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = "."; //!< scratch space inside the checkout
};

/** Everything one timed pass of a workload produced. */
struct Pass
{
    std::vector<double> latenciesMs; //!< one per request
    std::uint64_t frames = 0;        //!< frames delivered (or captured)
    double wallS = 0.0;              //!< timed seconds those frames took
    std::uint64_t attempted = 0;     //!< requests attempted
    std::uint64_t failed = 0;        //!< threw, refused or mismatched
    std::uint64_t degraded = 0;      //!< shed or past deadline
    /** Per-layer values measured from result structs and counters. */
    std::map<std::string, double> layer;
};

/**
 * One benchmark workload. setup() builds everything a user would build
 * before the first request and is timed (it runs several times; the
 * last build is kept). prepareChecks() computes the reference outputs,
 * untimed. run() is the timed region; with a recorder it also records
 * spans and replays the layers serially after each request.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual void prepareChecks() = 0;
    virtual Pass run(double seconds, SpanRecorder *rec) = 0;
    /** Mean PSNR (dB) of the output against a full render(); 0 = none. */
    virtual double psnrDb() const { return 0.0; }
    /** (trace, config) pairs priced per request; 0 = none. */
    virtual int pointsPerRequest() const { return 0; }
};

std::unique_ptr<Workload> makeSparwDvgo(const Options &opts);
/** The serve phases, which sparw_dvgo runs in its traced half. */
std::unique_ptr<Workload> makeServePhases(const Options &opts);
std::unique_ptr<Workload> makeDseDvgo(const Options &opts);

/** Bitwise equality of two frames (colour and depth). */
bool sameFrame(const cicero::Image &a, const cicero::DepthMap &ad,
               const cicero::Image &b,
               const cicero::DepthMap &bd);

/** PSNR capped at 60 dB per frame, so identical frames stay finite. */
double psnrCapped(const cicero::Image &a, const cicero::Image &b);

/** Pins the pool to one thread while alive (for reference renders). */
class SerialPool
{
  public:
    SerialPool() { cicero::setParallelThreadCount(1); }
    ~SerialPool() { cicero::setParallelThreadCount(0); }
    SerialPool(const SerialPool &) = delete;
    SerialPool &operator=(const SerialPool &) = delete;
};

/**
 * Orbit of @p frames poses around the scene starting at @p startDeg,
 * with seeded hand-held jitter (@p jitterSeed) of @p posSigma world
 * units and @p rotSigmaDeg degrees.
 */
std::vector<cicero::Pose> jitteredOrbit(const cicero::Scene &scene,
                                        float startDeg, int frames,
                                        std::uint64_t jitterSeed,
                                        float posSigma, float rotSigmaDeg);

/**
 * @p count single poses spread evenly around the full orbit, starting
 * at @p baseDeg, each with its own seeded jitter. Spreading them keeps
 * the mix of views, and so the cost of a run, the same for every seed.
 */
std::vector<cicero::Pose> ringPoses(const cicero::Scene &scene,
                                    float baseDeg, int count,
                                    std::uint64_t jitterSeed,
                                    float posSigma, float rotSigmaDeg);

/** A seeded permutation of [0, n). */
std::vector<int> seededPermutation(std::uint64_t seed, int n);

/**
 * Serial replay of one frame's NeRF walk split by stage, each stage as
 * one span under @p parent: nerf.march (generateRay + sampler),
 * nerf.gather (gatherFeatureBatch) and nerf.decode (decodeBatchSoA),
 * with the renderer's per-ray block sizes and no early termination.
 * Returns the number of samples marched.
 */
std::uint64_t replayNerfStages(const cicero::NerfModel &model,
                               const cicero::Camera &cam,
                               SpanRecorder *rec, std::int64_t parent,
                               std::int64_t request);

/** Work-derived nerf.* counts (samples per ray, bytes per sample). */
void addWorkCounts(Pass &pass, const cicero::StageWork &work);

/** sched.* metrics from a counter delta over @p frames frames. */
void addSchedCounts(Pass &pass, const cicero::SchedulerCounters &delta,
                    double wallS, std::uint64_t frames);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

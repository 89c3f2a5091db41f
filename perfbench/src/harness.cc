#include "harness.hh"

#include <algorithm>
#include <cstring>

#include "nerf/decoder.hh"
#include "scene/trajectory.hh"
#include "stats.hh"

using namespace cicero;

namespace perfbench {

namespace {

// The renderer's per-ray decode blocks: 8 samples, doubling to 64.
constexpr int kFirstBlock = 8;
constexpr int kMaxBlock = 64;

template <typename Fn>
void
forEachBlock(int n, Fn &&fn)
{
    int block = kFirstBlock;
    for (int base = 0; base < n;
         base += block, block = std::min(2 * block, kMaxBlock))
        fn(base, std::min(block, n - base));
}

} // namespace

bool
sameFrame(const Image &a, const DepthMap &ad, const Image &b,
          const DepthMap &bd)
{
    if (a.width() != b.width() || a.height() != b.height() ||
        ad.width() != bd.width() || ad.height() != bd.height() ||
        a.pixelCount() != b.pixelCount())
        return false;
    if (a.pixelCount() &&
        std::memcmp(a.pixels().data(), b.pixels().data(),
                    a.pixelCount() * sizeof(Vec3)) != 0)
        return false;
    std::size_t n = static_cast<std::size_t>(ad.width()) * ad.height();
    for (std::size_t i = 0; i < n; ++i) {
        float x = ad.at(i), y = bd.at(i);
        if (std::memcmp(&x, &y, sizeof x) != 0)
            return false;
    }
    return true;
}

double
psnrCapped(const Image &a, const Image &b)
{
    return std::min(60.0, psnr(a, b));
}

std::vector<Pose>
jitteredOrbit(const Scene &scene, float startDeg, int frames,
              std::uint64_t jitterSeed, float posSigma, float rotSigmaDeg)
{
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    orbit.startDeg = startDeg;
    std::vector<Pose> traj = orbitTrajectory(orbit, frames);
    JitterParams jitter;
    jitter.posSigma = posSigma;
    jitter.rotSigmaDeg = rotSigmaDeg;
    jitter.seed = jitterSeed;
    applyJitter(traj, jitter);
    return traj;
}

std::vector<Pose>
ringPoses(const Scene &scene, float baseDeg, int count,
          std::uint64_t jitterSeed, float posSigma, float rotSigmaDeg)
{
    std::vector<Pose> poses;
    for (int k = 0; k < count; ++k)
        poses.push_back(jitteredOrbit(scene, baseDeg + 360.0f * k / count,
                                      1, jitterSeed + k, posSigma,
                                      rotSigmaDeg)[0]);
    return poses;
}

std::vector<int>
seededPermutation(std::uint64_t seed, int n)
{
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i)
        perm[i] = i;
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    return perm;
}

std::uint64_t
replayNerfStages(const NerfModel &model, const Camera &cam,
                 SpanRecorder *rec, std::int64_t parent,
                 std::int64_t request)
{
    const std::size_t rays =
        static_cast<std::size_t>(cam.width) * cam.height;
    std::vector<Vec3> dirs(rays);
    std::vector<std::size_t> offset(rays + 1, 0);
    std::vector<Vec3> pos;
    std::vector<RaySample> samples;
    {
        ScopedSpan span(rec, "nerf.march", parent, request);
        std::size_t r = 0;
        for (int py = 0; py < cam.height; ++py)
            for (int px = 0; px < cam.width; ++px, ++r) {
                Ray ray = cam.generateRay(px, py);
                int n = model.sampler().sample(ray, samples);
                dirs[r] = ray.dir;
                for (int i = 0; i < n; ++i)
                    pos.push_back(samples[i].pn);
                offset[r + 1] = pos.size();
            }
    }
    // Channel-major blocks, stored back to back: the block starting at
    // sample s of the frame occupies feats[s * kFeatureDim ...].
    std::vector<float> feats(pos.size() * kFeatureDim);
    {
        ScopedSpan span(rec, "nerf.gather", parent, request);
        for (std::size_t r = 0; r < rays; ++r) {
            std::size_t o = offset[r];
            forEachBlock(static_cast<int>(offset[r + 1] - o),
                         [&](int base, int m) {
                             model.encoding().gatherFeatureBatch(
                                 pos.data() + o + base, m,
                                 feats.data() + (o + base) * kFeatureDim);
                         });
        }
    }
    {
        ScopedSpan span(rec, "nerf.decode", parent, request);
        DecodedSample out[kMaxBlock];
        for (std::size_t r = 0; r < rays; ++r) {
            std::size_t o = offset[r];
            forEachBlock(static_cast<int>(offset[r + 1] - o),
                         [&](int base, int m) {
                             model.decoder().decodeBatchSoA(
                                 feats.data() + (o + base) * kFeatureDim,
                                 static_cast<std::size_t>(m), m, dirs[r],
                                 out);
                         });
        }
    }
    return pos.size();
}

void
addWorkCounts(Pass &pass, const StageWork &work)
{
    if (work.rays)
        pass.layer["nerf.samples_per_ray"] =
            static_cast<double>(work.samples) / work.rays;
    if (work.samples)
        pass.layer["nerf.gather_bytes_per_sample"] =
            static_cast<double>(work.gatherBytes) / work.samples;
}

void
addSchedCounts(Pass &pass, const SchedulerCounters &d, double wallS,
               std::uint64_t frames)
{
    double f = frames ? static_cast<double>(frames) : 1.0;
    pass.layer["sched.tasks_per_frame"] = d.tasksExecuted / f;
    pass.layer["sched.steals_per_frame"] = d.steals / f;
    double threadS = wallS * parallelThreadCount();
    pass.layer["sched.idle_frac"] =
        threadS > 0 ? d.idleNanos * 1e-9 / threadS : 0.0;
    pass.layer["sched.dep_stall_ms"] = d.depStallNanos * 1e-6 / f;
    pass.layer["sched.kernel_items_per_pass"] =
        d.kernelBatchPasses
            ? static_cast<double>(d.kernelBatchItems) / d.kernelBatchPasses
            : 0.0;
}

} // namespace perfbench

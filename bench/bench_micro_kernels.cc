/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot kernels of the
 * functional stack: feature gathers per encoding, the decoder MLP,
 * the occupancy marches, warping, compositing and the memory-model
 * sinks.
 *
 * The JSON context carries a "simd_backend" key (avx2|neon|scalar —
 * the backend the process actually dispatches to, so a
 * CICERO_SIMD=scalar run is labeled scalar) and the batched-kernel
 * benchmarks report samples/s ("items_per_second") plus a GFLOP/s
 * counter, so BENCH trajectories are comparable across machines and
 * backends: run once natively and once under CICERO_SIMD=scalar to get
 * the kernel speedup on a given host.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cicero/warp.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "memory/cache_model.hh"
#include "memory/dram_model.hh"
#include "memory/sram_bank_model.hh"
#include "nerf/dense_grid.hh"
#include "nerf/hash_grid.hh"
#include "nerf/models.hh"
#include "nerf/tensorf.hh"
#include "nerf/volume_renderer.hh"
#include "scene/scene.hh"
#include "scene/trajectory.hh"

namespace {

using namespace cicero;

/** Register the active backend into the benchmark context once. */
[[maybe_unused]] const bool kContextRegistered = [] {
    benchmark::AddCustomContext(
        "simd_backend", simd::backendName(simd::activeBackend()));
    return true;
}();

/** Positions a batched-gather benchmark sweeps. */
const std::vector<Vec3> &
benchPositions()
{
    static const std::vector<Vec3> pos = [] {
        Rng rng(7);
        std::vector<Vec3> p(65536);
        for (Vec3 &v : p)
            v = rng.uniformVec3();
        return p;
    }();
    return pos;
}

/**
 * Run one batched-gather benchmark: samples/s via items_per_second,
 * GFLOP/s from the encoding's own interpolation-op accounting.
 */
void
runGatherBatch(benchmark::State &state, const Encoding &enc)
{
    const std::vector<Vec3> &pos = benchPositions();
    const int n = static_cast<int>(pos.size());
    std::vector<float> out(static_cast<std::size_t>(n) *
                           enc.featureDim());
    for (auto _ : state) {
        enc.gatherFeatureBatch(pos.data(), n, out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.counters["gflops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * n *
            static_cast<double>(enc.interpOpsPerSample()) * 1e-9,
        benchmark::Counter::kIsRate);
}

Scene &
benchScene()
{
    static Scene s = makeScene("lego");
    return s;
}

void
BM_DenseGridGather(benchmark::State &state)
{
    static DenseGridEncoding grid = [] {
        DenseGridEncoding g(64);
        g.bake(benchScene().field);
        return g;
    }();
    Rng rng(1);
    float feat[kFeatureDim];
    for (auto _ : state) {
        grid.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_DenseGridGather);

void
BM_HashGridGather(benchmark::State &state)
{
    static HashGridEncoding grid = [] {
        HashGridEncoding g;
        g.bake(benchScene().field);
        return g;
    }();
    Rng rng(2);
    float feat[kFeatureDim];
    for (auto _ : state) {
        grid.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_HashGridGather);

void
BM_TensoRFGather(benchmark::State &state)
{
    static TensoRFEncoding enc = [] {
        TensoRFConfig cfg;
        cfg.res = 64;
        TensoRFEncoding e(cfg);
        e.bake(benchScene().field);
        return e;
    }();
    Rng rng(3);
    float feat[kFeatureDim];
    for (auto _ : state) {
        enc.gatherFeature(rng.uniformVec3(), feat);
        benchmark::DoNotOptimize(feat[0]);
    }
}
BENCHMARK(BM_TensoRFGather);

void
BM_DenseGridGatherBatch(benchmark::State &state)
{
    static DenseGridEncoding grid = [] {
        DenseGridEncoding g(64);
        g.bake(benchScene().field);
        return g;
    }();
    runGatherBatch(state, grid);
}
BENCHMARK(BM_DenseGridGatherBatch)->Unit(benchmark::kMillisecond);

void
BM_HashGridGatherBatch(benchmark::State &state)
{
    static HashGridEncoding grid = [] {
        HashGridEncoding g;
        g.bake(benchScene().field);
        return g;
    }();
    runGatherBatch(state, grid);
}
BENCHMARK(BM_HashGridGatherBatch)->Unit(benchmark::kMillisecond);

void
BM_TensoRFGatherBatch(benchmark::State &state)
{
    static TensoRFEncoding enc = [] {
        TensoRFConfig cfg;
        cfg.res = 64;
        TensoRFEncoding e(cfg);
        e.bake(benchScene().field);
        return e;
    }();
    runGatherBatch(state, enc);
}
BENCHMARK(BM_TensoRFGatherBatch)->Unit(benchmark::kMillisecond);

/**
 * The decoder-shaped MLP GEMM at a frame-like batch size — fp32 and
 * fp16 weight storage. 2 FLOPs per MAC.
 */
void
runMlpForwardBatch(benchmark::State &state, bool fp16)
{
    Mlp mlp({kFeatureDim + 3, 16, 16, 4}, 1);
    if (fp16)
        mlp.quantizeWeightsFp16();
    const int count = 16384;
    std::vector<float> in(static_cast<std::size_t>(mlp.inputDim()) *
                          count);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = 0.001f * static_cast<float>(i % 997) - 0.5f;
    std::vector<float> out(static_cast<std::size_t>(mlp.outputDim()) *
                           count);
    for (auto _ : state) {
        mlp.forwardBatch(in.data(), out.data(), count);
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(state.iterations() * count);
    state.counters["gflops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * count * 2.0 *
            static_cast<double>(mlp.macsPerInference()) * 1e-9,
        benchmark::Counter::kIsRate);
}

void
BM_MlpForwardBatch(benchmark::State &state)
{
    runMlpForwardBatch(state, /*fp16=*/false);
}
BENCHMARK(BM_MlpForwardBatch)->Unit(benchmark::kMillisecond);

void
BM_MlpForwardBatchFp16(benchmark::State &state)
{
    runMlpForwardBatch(state, /*fp16=*/true);
}
BENCHMARK(BM_MlpForwardBatchFp16)->Unit(benchmark::kMillisecond);

void
BM_DecoderDecode(benchmark::State &state)
{
    Decoder dec({0.4f, 0.8f, 0.45f});
    BakedPoint pt;
    pt.sigma = 25.0f;
    pt.diffuse = {0.6f, 0.4f, 0.3f};
    pt.specular = 0.4f;
    float feat[kFeatureDim];
    encodeBakedPoint(pt, feat);
    Vec3 view = Vec3{0.1f, -0.5f, -1.0f}.normalized();
    for (auto _ : state) {
        DecodedSample s = dec.decode(feat, view);
        benchmark::DoNotOptimize(s.rgb.x);
    }
}
BENCHMARK(BM_DecoderDecode);

void
BM_Compositor(benchmark::State &state)
{
    for (auto _ : state) {
        Compositor c;
        for (int i = 0; i < 64; ++i)
            if (!c.add(4.0f, {0.5f, 0.5f, 0.5f}, 1.0f + i * 0.01f,
                       0.01f))
                break;
        CompositeResult r = c.finish({1.0f, 1.0f, 1.0f});
        benchmark::DoNotOptimize(r.rgb.x);
    }
}
BENCHMARK(BM_Compositor);

void
BM_WarpFrame(benchmark::State &state)
{
    static auto setup = [] {
        Scene scene = benchScene();
        SamplerConfig cfg;
        cfg.stepsAcross = 96;
        cfg.occupancyRes = 32;
        auto model = std::make_unique<NerfModel>(
            scene, std::make_unique<DenseGridEncoding>(48), 4096, cfg);
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        auto traj = orbitTrajectory(orbit, 2);
        Camera ref = Camera::fromFov(96, 96, scene.fovYDeg, traj[0]);
        Camera tgt = ref;
        tgt.pose = traj[1];
        RenderResult r = model->render(ref);
        return std::make_tuple(std::move(model), ref, tgt,
                               std::move(r));
    }();
    auto &[model, ref, tgt, r] = setup;
    for (auto _ : state) {
        WarpOutput w =
            warpFrame(r.image, r.depth, ref, tgt, &model->occupancy(),
                      Vec3{1.0f, 1.0f, 1.0f});
        benchmark::DoNotOptimize(w.stats.warped);
    }
}
BENCHMARK(BM_WarpFrame)->Unit(benchmark::kMicrosecond);

/**
 * The two occupancy marches over every ray of a 128x128 lego frame
 * from the DVGO (Fast) model, in rays/s ("items_per_second"): leg 0 is
 * SPARW's void test (OccupancyGrid::rayHitsOccupied), leg 1 the
 * renderer's sampler (RaySampler::sample).
 */
void
BM_OccupancyMarch(benchmark::State &state)
{
    static auto setup = [] {
        const Scene &scene = benchScene();
        auto model = buildModel(ModelKind::DirectVoxGO, scene);
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        Camera cam = Camera::fromFov(128, 128, scene.fovYDeg,
                                     orbitTrajectory(orbit, 1)[0]);
        std::vector<Ray> rays;
        for (int y = 0; y < cam.height; ++y)
            for (int x = 0; x < cam.width; ++x)
                rays.push_back(cam.generateRay(x, y));
        return std::make_pair(std::move(model), std::move(rays));
    }();
    const auto &[model, rays] = setup;
    const bool sampler = state.range(0) == 1;
    state.SetLabel(sampler ? "RaySampler::sample"
                           : "OccupancyGrid::rayHitsOccupied");
    std::vector<RaySample> samples;
    for (auto _ : state) {
        std::size_t acc = 0;
        for (const Ray &ray : rays)
            acc += sampler ? model->sampler().sample(ray, samples)
                           : model->occupancy().rayHitsOccupied(ray);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rays.size()));
}
BENCHMARK(BM_OccupancyMarch)
    ->ArgName("sampler")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_LruCacheSink(benchmark::State &state)
{
    Rng rng(4);
    std::vector<MemAccess> trace;
    for (int i = 0; i < 4096; ++i)
        trace.push_back(MemAccess{rng.uniformInt(1u << 24), 18, 0});
    for (auto _ : state) {
        LruCache cache;
        for (const auto &a : trace)
            cache.onAccess(a);
        benchmark::DoNotOptimize(cache.stats().misses);
    }
}
BENCHMARK(BM_LruCacheSink)->Unit(benchmark::kMicrosecond);

void
BM_DramSink(benchmark::State &state)
{
    Rng rng(5);
    std::vector<MemAccess> trace;
    for (int i = 0; i < 4096; ++i)
        trace.push_back(MemAccess{rng.uniformInt(1u << 24), 18, 0});
    for (auto _ : state) {
        DramModel dram;
        for (const auto &a : trace)
            dram.onAccess(a);
        benchmark::DoNotOptimize(dram.stats().randomAccesses);
    }
}
BENCHMARK(BM_DramSink)->Unit(benchmark::kMicrosecond);

void
BM_BankConflictSim(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state) {
        BankConflictSim sim;
        for (std::uint32_t ray = 0; ray < 64; ++ray) {
            for (int i = 0; i < 32; ++i)
                sim.onAccess(
                    MemAccess{rng.uniformInt(1u << 16) * 32, 32, ray});
            sim.onRayEnd(ray);
        }
        sim.onFlush();
        benchmark::DoNotOptimize(sim.stats().stalls);
    }
}
BENCHMARK(BM_BankConflictSim)->Unit(benchmark::kMicrosecond);

} // namespace

/**
 * @file
 * The pixel-centric NeRF renderer: ties a Scene, an Encoding, a Decoder
 * and a RaySampler into the three-stage pipeline of Fig. 1
 * (Indexing -> Feature Gathering -> Feature Computation) and accounts
 * the per-stage work. Also provides the sparse-pixel path that SPARW's
 * disocclusion fill uses, and a ground-truth renderer that marches the
 * analytic field directly.
 */

#ifndef CICERO_NERF_RENDERER_HH
#define CICERO_NERF_RENDERER_HH

#include <memory>

#include "common/geometry.hh"
#include "common/image.hh"
#include "memory/trace.hh"
#include "nerf/decoder.hh"
#include "nerf/encoding.hh"
#include "nerf/sampler.hh"
#include "nerf/workload.hh"
#include "scene/scene.hh"

namespace cicero {

/**
 * Per-pixel geometry/material buffer: the opacity-weighted baked
 * attributes (normal, diffuse, specular, shininess) accumulated along
 * each ray. This is the input to the *radiance transfer* warping
 * extension (paper Sec. VIII): with materials known, a warped pixel's
 * radiance can be re-shaded for the new view instead of reused as-is.
 */
class GBuffer
{
  public:
    GBuffer() = default;
    GBuffer(int w, int h) : _width(w), _points(std::size_t(w) * h) {}

    bool empty() const { return _points.empty(); }

    const BakedPoint &at(int x, int y) const
    {
        return _points[std::size_t(y) * _width + x];
    }
    BakedPoint &at(int x, int y)
    {
        return _points[std::size_t(y) * _width + x];
    }
    const BakedPoint &at(std::size_t i) const { return _points[i]; }
    BakedPoint &at(std::size_t i) { return _points[i]; }

  private:
    int _width = 0;
    std::vector<BakedPoint> _points;
};

/** Output of rendering a frame (or a sparse subset of it). */
struct RenderResult
{
    Image image;
    DepthMap depth;
    StageWork work;
    GBuffer gbuffer; //!< filled only when requested
};

/**
 * A complete NeRF model instance bound to one scene.
 */
class NerfModel
{
  public:
    /**
     * @param scene          the scene this model was "trained" (baked) on
     * @param encoding       feature representation (takes ownership)
     * @param nominalMlpMacs MACs/sample of the paper-size MLP, accounted
     *                       in StageWork::mlpMacs
     * @param sampler        sampling configuration
     * @param seed           decoder residual seed
     */
    NerfModel(const Scene &scene, std::unique_ptr<Encoding> encoding,
              std::uint64_t nominalMlpMacs, const SamplerConfig &sampler,
              std::uint64_t seed = 7);

    const Encoding &encoding() const { return *_encoding; }
    Encoding &encoding() { return *_encoding; }
    const OccupancyGrid &occupancy() const { return _occupancy; }
    const Scene &scene() const { return _scene; }
    const Decoder &decoder() const { return _decoder; }
    const RaySampler &sampler() const { return _sampler; }

    /** Total model size: feature storage plus MLP weights. */
    std::uint64_t modelBytes() const;

    /**
     * Render a full frame, pixel-centric (the baseline order).
     *
     * Runs tile-parallel on the global pool (common/parallel.hh) with
     * bit-identical output at any thread count. Traced runs also go
     * parallel: each ray records its gather accesses into a private
     * RayTraceBuffer slot, and the buffer replays the slots in
     * canonical ray-id order, so @p trace sees a stream byte-identical
     * to the serial walk (the memory-model access-order contract).
     *
     * @param trace optional sink receiving every gather access.
     * @param wantGBuffer also accumulate the per-pixel material buffer
     *        (used by the radiance-transfer warping extension).
     */
    RenderResult render(const Camera &camera,
                        TraceSink *trace = nullptr,
                        bool wantGBuffer = false) const;

    /**
     * Serving-path render of the contiguous row range
     * [@p rowBegin, @p rowEnd): the building block of the serve
     * layer's intra-frame ray-block fan-out. Walks the pixels of those
     * rows serially on the *calling* thread (no internal parallelFor —
     * the serve layer fans a frame out into row-block tasks itself),
     * with the same ray ids and per-sample math as render(), writing
     * into @p image / @p depth (pre-sized to the camera resolution).
     * Rows are disjoint, so concurrent calls on non-overlapping ranges
     * compose to a frame bit-identical to render() — per-ray decode
     * blocking is internal to each ray, so the row decomposition
     * cannot change bits. Returns the StageWork for the range;
     * StageWork is all summed counters, so accumulation order across
     * blocks is irrelevant.
     */
    StageWork renderServeRows(const Camera &camera, int rowBegin,
                              int rowEnd, Image &image,
                              DepthMap &depth) const;

    /**
     * Render only @p pixelIds (y * width + x), writing into @p image and
     * @p depth which must be pre-sized; used for sparse NeRF rendering of
     * disoccluded pixels (Eq. 4).
     */
    StageWork renderPixels(const Camera &camera,
                           const std::vector<std::uint32_t> &pixelIds,
                           Image &image, DepthMap &depth,
                           TraceSink *trace = nullptr) const;

    /**
     * Workload-trace mode: walk the frame the way the *real* renderer
     * does work, without producing an image. Every marched in-bounds
     * sample gathers its features (real NeRF models probe density per
     * sample — this is what makes Feature Gathering dominate, Fig. 3),
     * while only occupied samples are charged MLP work (empty samples
     * short-circuit Feature Computation). Emits the full gather access
     * stream into @p trace.
     */
    StageWork traceWorkload(const Camera &camera,
                            TraceSink *trace = nullptr) const;

    /** Workload-trace of a sparse pixel set (SPARW's Eq. 4 path). */
    StageWork
    traceWorkloadPixels(const Camera &camera,
                        const std::vector<std::uint32_t> &pixelIds,
                        TraceSink *trace = nullptr) const;

    /**
     * Normalized positions of the samples whose features the frame must
     * actually compute — the occupied (shaded) samples. This is what the
     * Ray Index Table records: Indexing consults the SRAM-resident
     * occupancy grid, so empty samples never enter the RIT and the
     * fully-streaming flow never gathers them. Input to
     * Encoding::streamingFootprint.
     */
    std::vector<Vec3> collectSamplePositions(const Camera &camera) const;

    /** Shaded-sample positions for a sparse pixel subset. */
    std::vector<Vec3>
    collectSamplePositionsPixels(
        const Camera &camera,
        const std::vector<std::uint32_t> &pixelIds) const;

    /** Per-sample nominal MLP MACs (Feature Computation accounting). */
    std::uint64_t nominalMlpMacs() const { return _nominalMlpMacs; }

    /**
     * Quantize the whole model to fp16 storage: encoding features
     * (Encoding::quantizeFeaturesFp16) and decoder MLP weights
     * (Decoder::quantizeWeightsFp16). Halves the resident footprint —
     * the serve layer's shared-model cache keys fp16 and fp32
     * variants separately so sessions pick one deliberately. Not
     * thread-safe against concurrent renders; call before sharing.
     */
    void quantizeFp16();

  private:
    void renderOne(const Camera &camera, int px, int py,
                   std::uint32_t rayId, Vec3 &rgbOut, float &depthOut,
                   StageWork &work, TraceSink *trace,
                   BakedPoint *gbufOut = nullptr) const;

    void traceOne(const Camera &camera, int px, int py,
                  std::uint32_t rayId, StageWork &work,
                  TraceSink *trace) const;

    Scene _scene;
    std::unique_ptr<Encoding> _encoding;
    Decoder _decoder;
    OccupancyGrid _occupancy;
    RaySampler _sampler;
    RaySampler _workloadSampler; //!< no occupancy skip: every sample
    std::uint64_t _nominalMlpMacs;
};

/**
 * Ground-truth render: march the analytic field directly with fine
 * steps. This is the PSNR reference for every quality experiment.
 */
RenderResult renderGroundTruth(const Scene &scene, const Camera &camera,
                               int stepsAcross = 384);

} // namespace cicero

#endif // CICERO_NERF_RENDERER_HH

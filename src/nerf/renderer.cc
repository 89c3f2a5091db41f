#include "nerf/renderer.hh"

#include <algorithm>
#include <cmath>

#include "common/parallel.hh"
#include "nerf/volume_renderer.hh"

namespace cicero {

namespace {

/**
 * Batched decode block sizing: start small and grow. Most rays
 * early-terminate a few samples into the first surface, so a large
 * fixed block would gather and decode features the compositor never
 * consumes; geometric growth keeps that waste below one small block
 * while long rays still reach the wide, vectorizing block size.
 */
constexpr int kFirstSampleBlock = 8;
constexpr int kMaxSampleBlock = 64;

/**
 * Run @p fn(work, begin, end) over chunks of [0, n) and fold the
 * per-chunk StageWork accumulators in chunk order.
 */
template <typename Fn>
StageWork
accumulateWorkChunks(std::int64_t n, Fn &&fn)
{
    StageWork total;
    for (const StageWork &w :
         parallelMapChunks<StageWork>(n, std::forward<Fn>(fn)))
        total += w;
    return total;
}

} // namespace

NerfModel::NerfModel(const Scene &scene,
                     std::unique_ptr<Encoding> encoding,
                     std::uint64_t nominalMlpMacs,
                     const SamplerConfig &sampler, std::uint64_t seed)
    : _scene(scene),
      _encoding(std::move(encoding)),
      _decoder(scene.field.lightDir(), 16, 1, nominalMlpMacs, 0.01f, seed),
      _occupancy(_scene.field, sampler.occupancyRes,
                 sampler.occupancySigma),
      _sampler(_scene.field.bounds(), &_occupancy, sampler),
      _workloadSampler(_scene.field.bounds(), nullptr, sampler),
      _nominalMlpMacs(nominalMlpMacs)
{
    _encoding->bake(_scene.field);
}

std::uint64_t
NerfModel::modelBytes() const
{
    return _encoding->modelBytes() + _decoder.weightBytes();
}

void
NerfModel::renderOne(const Camera &camera, int px, int py,
                     std::uint32_t rayId, Vec3 &rgbOut, float &depthOut,
                     StageWork &work, TraceSink *trace,
                     BakedPoint *gbufOut) const
{
    thread_local std::vector<RaySample> samples;
    thread_local std::vector<MemAccess> accessBuf;
    thread_local std::vector<Vec3> posBuf;
    thread_local std::vector<float> featureBuf;
    thread_local std::vector<DecodedSample> decodedBuf;

    Ray ray = camera.generateRay(px, py);
    int n = _sampler.sample(ray, samples);

    ++work.rays;
    work.indexOps += static_cast<std::uint64_t>(n) *
                     _encoding->indexOpsPerSample();

    // Optional G-buffer accumulation: opacity-weighted material
    // attributes, normalized at the end.
    BakedPoint gAcc;
    Vec3 gNormal;
    float gWeight = 0.0f;
    gAcc.diffuse = Vec3{};
    gAcc.specular = 0.0f;
    gAcc.shininess = 0.0f;

    // Reads one sample's channels out of the channel-major block
    // (stride = block size) — only on the rare G-buffer path.
    auto accumulateGBuffer = [&](const float *feats, int stride, int j,
                                 const DecodedSample &d,
                                 const RaySample &s, float tBefore) {
        float alpha = 1.0f - std::exp(-d.sigma * s.dt);
        float w = tBefore * alpha;
        float feature[kFeatureDim];
        for (int ch = 0; ch < kFeatureDim; ++ch)
            feature[ch] =
                feats[static_cast<std::size_t>(ch) * stride + j];
        BakedPoint bp = decodeBakedFeature(feature);
        gAcc.diffuse += bp.diffuse * w;
        gNormal += bp.normal * w;
        gAcc.specular += bp.specular * w;
        gAcc.shininess += bp.shininess * w;
        gWeight += w;
    };

    Compositor comp;
    int computed = 0;

    // Block-batched sample loop, traced or not: gather a block of
    // samples through one batched encoding call and decode it through
    // one batched MLP pass instead of per-sample virtual-call
    // ping-pong. Numerically identical to the per-sample loop (same
    // per-sample accumulation order everywhere). When tracing, the
    // block's access stream is gathered up front and emitted
    // per-sample at consumption time, so the TraceSink still sees
    // exactly the samples the compositor consumed, in consumption
    // order — accesses of samples past the early-termination point are
    // never emitted, matching the scalar walk byte-for-byte.
    if (featureBuf.size() <
        static_cast<std::size_t>(kMaxSampleBlock) * kFeatureDim) {
        featureBuf.resize(
            static_cast<std::size_t>(kMaxSampleBlock) * kFeatureDim);
        decodedBuf.resize(kMaxSampleBlock);
        posBuf.resize(kMaxSampleBlock);
    }
    const std::uint32_t accessesPerSample =
        trace ? _encoding->fetchesPerSample() : 0;

    int block = kFirstSampleBlock;
    bool stopped = false;
    for (int base = 0; base < n && !stopped; base += block,
             block = std::min(2 * block, kMaxSampleBlock)) {
        const int m = std::min(block, n - base);
        for (int j = 0; j < m; ++j)
            posBuf[j] = samples[base + j].pn;

        if (trace) {
            accessBuf.clear();
            _encoding->gatherAccessesBatch(posBuf.data(), m, rayId,
                                           accessBuf);
        }

        // Channel-major block: gatherFeatureBatch writes channel c of
        // sample j at feats[c * m + j], and the SoA decode consumes it
        // without any transposition.
        float *feats = featureBuf.data();
        _encoding->gatherFeatureBatch(posBuf.data(), m, feats);
        _decoder.decodeBatchSoA(feats, static_cast<std::size_t>(m), m,
                                ray.dir, decodedBuf.data());

        for (int j = 0; j < m; ++j) {
            const RaySample &s = samples[base + j];
            const DecodedSample &d = decodedBuf[j];
            ++computed;

            if (trace) {
                const MemAccess *slice =
                    accessBuf.data() +
                    static_cast<std::size_t>(j) * accessesPerSample;
                for (std::uint32_t a = 0; a < accessesPerSample; ++a)
                    trace->onAccess(slice[a]);
            }

            if (gbufOut && d.sigma > 0.0f)
                accumulateGBuffer(feats, m, j, d, s,
                                  comp.transmittance());

            if (!comp.add(d.sigma, d.rgb, s.t, s.dt)) {
                stopped = true;
                break;
            }
        }
    }

    if (gbufOut) {
        if (gWeight > 1e-4f) {
            float inv = 1.0f / gWeight;
            gbufOut->diffuse = gAcc.diffuse * inv;
            gbufOut->normal = gNormal.normalized();
            gbufOut->specular = gAcc.specular * inv;
            gbufOut->shininess = gAcc.shininess * inv;
            gbufOut->sigma = gWeight; // records accumulated opacity
        } else {
            *gbufOut = BakedPoint{};
            gbufOut->sigma = 0.0f;
        }
    }

    work.samples += computed;
    work.vertexFetches += static_cast<std::uint64_t>(computed) *
                          _encoding->fetchesPerSample();
    work.gatherBytes += static_cast<std::uint64_t>(computed) *
                        _encoding->fetchesPerSample() *
                        (_encoding->featureDim() * kBytesPerChannel);
    work.interpOps += static_cast<std::uint64_t>(computed) *
                      _encoding->interpOpsPerSample();
    work.mlpMacs += static_cast<std::uint64_t>(computed) * _nominalMlpMacs;
    work.compositeOps += static_cast<std::uint64_t>(computed) * 12;

    if (trace)
        trace->onRayEnd(rayId);

    CompositeResult r = comp.finish(_scene.background);
    rgbOut = r.rgb;
    depthOut = r.depth;
}

RenderResult
NerfModel::render(const Camera &camera, TraceSink *trace,
                  bool wantGBuffer) const
{
    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);
    if (wantGBuffer)
        out.gbuffer = GBuffer(camera.width, camera.height);

    const int W = camera.width;
    const int H = camera.height;

    if (trace) {
        // Buffered parallel trace capture: each ray records its access
        // stream into a private RayTraceBuffer slot while the rows run
        // tile-parallel, and the replay below walks the slots in
        // canonical ray-id order — the TraceSink sees a stream
        // byte-identical to the old serial walk. Completed row chunks
        // are marked so the buffer drains its finished prefix while
        // trailing chunks still render (windowed replay: peak buffer
        // memory tracks the out-of-order window, not the frame). With
        // one thread the chunks already run inline in order, so rays
        // emit straight into the sink and the trace is never
        // materialized (the old O(1)-memory serial behavior).
        std::unique_ptr<RayTraceBuffer> buf;
        if (parallelThreadCount() > 1)
            buf = std::make_unique<RayTraceBuffer>(
                static_cast<std::size_t>(W) * H, trace);
        out.work = accumulateWorkChunks(
            H, [&](StageWork &w, std::int64_t y0, std::int64_t y1) {
                for (int py = static_cast<int>(y0); py < y1; ++py) {
                    std::uint32_t rayId =
                        static_cast<std::uint32_t>(py) * W;
                    for (int px = 0; px < W; ++px, ++rayId) {
                        Vec3 rgb;
                        float d;
                        BakedPoint *g =
                            wantGBuffer ? &out.gbuffer.at(px, py)
                                        : nullptr;
                        if (buf) {
                            RayTraceBuffer::SlotSink sink =
                                buf->sink(rayId);
                            renderOne(camera, px, py, rayId, rgb, d, w,
                                      &sink, g);
                        } else {
                            renderOne(camera, px, py, rayId, rgb, d, w,
                                      trace, g);
                        }
                        out.image.at(px, py) = rgb;
                        out.depth.at(px, py) = d;
                    }
                }
                if (buf)
                    buf->markCompleted(
                        static_cast<std::size_t>(y0) * W,
                        static_cast<std::size_t>(y1) * W);
            });
        if (buf)
            buf->replay();
        trace->onFlush();
        return out;
    }

    // Tile-parallel: row chunks, per-chunk work accumulators merged in
    // chunk order. Pixels are written to disjoint locations and ray
    // ids are a function of the pixel, so the output is bit-identical
    // to the serial path at any thread count.
    out.work = accumulateWorkChunks(
        H, [&](StageWork &w, std::int64_t y0, std::int64_t y1) {
            for (int py = static_cast<int>(y0); py < y1; ++py) {
                std::uint32_t rayId =
                    static_cast<std::uint32_t>(py) * W;
                for (int px = 0; px < W; ++px, ++rayId) {
                    Vec3 rgb;
                    float d;
                    renderOne(camera, px, py, rayId, rgb, d, w, nullptr,
                              wantGBuffer ? &out.gbuffer.at(px, py)
                                          : nullptr);
                    out.image.at(px, py) = rgb;
                    out.depth.at(px, py) = d;
                }
            }
        });
    return out;
}

StageWork
NerfModel::renderServeRows(const Camera &camera, int rowBegin,
                           int rowEnd, Image &image,
                           DepthMap &depth) const
{
    // Serial pixel walk on the calling thread over [rowBegin, rowEnd),
    // in render()'s traversal order and per-ray math.
    StageWork work;
    const int W = camera.width;
    for (int py = rowBegin; py < rowEnd; ++py) {
        std::uint32_t rayId = static_cast<std::uint32_t>(py) * W;
        for (int px = 0; px < W; ++px, ++rayId) {
            Vec3 rgb;
            float d;
            renderOne(camera, px, py, rayId, rgb, d, work, nullptr);
            image.at(px, py) = rgb;
            depth.at(px, py) = d;
        }
    }
    return work;
}

void
NerfModel::quantizeFp16()
{
    _encoding->quantizeFeaturesFp16();
    _decoder.quantizeWeightsFp16();
}

StageWork
NerfModel::renderPixels(const Camera &camera,
                        const std::vector<std::uint32_t> &pixelIds,
                        Image &image, DepthMap &depth,
                        TraceSink *trace) const
{
    StageWork work;
    if (trace) {
        // Buffered parallel capture over the sparse pixel list; replay
        // follows the list order (the serial emission order), whatever
        // the ids are, with completed chunks prefix-drained as above.
        // One thread emits directly (see render()).
        std::unique_ptr<RayTraceBuffer> buf;
        if (parallelThreadCount() > 1)
            buf = std::make_unique<RayTraceBuffer>(pixelIds.size(),
                                                   trace);
        work = accumulateWorkChunks(
            static_cast<std::int64_t>(pixelIds.size()),
            [&](StageWork &w, std::int64_t b, std::int64_t e) {
                for (std::int64_t k = b; k < e; ++k) {
                    std::uint32_t id = pixelIds[k];
                    int px = id % camera.width;
                    int py = id / camera.width;
                    Vec3 rgb;
                    float d;
                    if (buf) {
                        RayTraceBuffer::SlotSink sink =
                            buf->sink(static_cast<std::size_t>(k));
                        renderOne(camera, px, py, id, rgb, d, w, &sink);
                    } else {
                        renderOne(camera, px, py, id, rgb, d, w, trace);
                    }
                    image.at(px, py) = rgb;
                    depth.at(px, py) = d;
                }
                if (buf)
                    buf->markCompleted(static_cast<std::size_t>(b),
                                       static_cast<std::size_t>(e));
            });
        if (buf)
            buf->replay();
        trace->onFlush();
        return work;
    }

    return accumulateWorkChunks(
        static_cast<std::int64_t>(pixelIds.size()),
        [&](StageWork &w, std::int64_t b, std::int64_t e) {
            for (std::int64_t k = b; k < e; ++k) {
                std::uint32_t id = pixelIds[k];
                int px = id % camera.width;
                int py = id / camera.width;
                Vec3 rgb;
                float d;
                renderOne(camera, px, py, id, rgb, d, w, nullptr);
                image.at(px, py) = rgb;
                depth.at(px, py) = d;
            }
        });
}

void
NerfModel::traceOne(const Camera &camera, int px, int py,
                    std::uint32_t rayId, StageWork &work,
                    TraceSink *trace) const
{
    thread_local std::vector<RaySample> samples;
    thread_local std::vector<MemAccess> accessBuf;
    thread_local std::vector<Vec3> posBuf;

    Ray ray = camera.generateRay(px, py);
    int n = _workloadSampler.sample(ray, samples);

    ++work.rays;
    work.indexOps += static_cast<std::uint64_t>(n) *
                     _encoding->indexOpsPerSample();

    if (trace && n > 0) {
        // Workload mode never early-terminates, so the whole ray's
        // access stream comes from one batched gather (sample-major,
        // identical to the scalar per-sample emission order).
        posBuf.resize(n);
        for (int i = 0; i < n; ++i)
            posBuf[i] = samples[i].pn;
        accessBuf.clear();
        _encoding->gatherAccessesBatch(posBuf.data(), n, rayId,
                                       accessBuf);
        for (const MemAccess &a : accessBuf)
            trace->onAccess(a);
    }

    std::uint64_t shaded = 0;
    for (int i = 0; i < n; ++i) {
        // Only samples in occupied space reach Feature Computation.
        if (_occupancy.occupiedNormalized(samples[i].pn))
            ++shaded;
    }
    if (trace)
        trace->onRayEnd(rayId);

    work.samples += n;
    work.vertexFetches += static_cast<std::uint64_t>(n) *
                          _encoding->fetchesPerSample();
    work.gatherBytes += static_cast<std::uint64_t>(n) *
                        _encoding->fetchesPerSample() *
                        (_encoding->featureDim() * kBytesPerChannel);
    work.interpOps += static_cast<std::uint64_t>(n) *
                      _encoding->interpOpsPerSample();
    work.mlpMacs += shaded * _nominalMlpMacs;
    work.compositeOps += shaded * 12;
}

StageWork
NerfModel::traceWorkload(const Camera &camera, TraceSink *trace) const
{
    StageWork work;
    const int W = camera.width;
    const int H = camera.height;

    if (trace) {
        // Buffered parallel trace: rows run tile-parallel recording
        // into per-ray slots; the replay delivers the canonical
        // (serial) access stream to the sink, prefix-draining
        // completed row chunks while trailing chunks still render.
        // One thread emits directly (see render()).
        std::unique_ptr<RayTraceBuffer> buf;
        if (parallelThreadCount() > 1)
            buf = std::make_unique<RayTraceBuffer>(
                static_cast<std::size_t>(W) * H, trace);
        work = accumulateWorkChunks(
            H, [&](StageWork &w, std::int64_t y0, std::int64_t y1) {
                for (int py = static_cast<int>(y0); py < y1; ++py) {
                    std::uint32_t rayId =
                        static_cast<std::uint32_t>(py) * W;
                    for (int px = 0; px < W; ++px, ++rayId) {
                        if (buf) {
                            RayTraceBuffer::SlotSink sink =
                                buf->sink(rayId);
                            traceOne(camera, px, py, rayId, w, &sink);
                        } else {
                            traceOne(camera, px, py, rayId, w, trace);
                        }
                    }
                }
                if (buf)
                    buf->markCompleted(
                        static_cast<std::size_t>(y0) * W,
                        static_cast<std::size_t>(y1) * W);
            });
        if (buf)
            buf->replay();
        trace->onFlush();
        return work;
    }

    return accumulateWorkChunks(
        H, [&](StageWork &w, std::int64_t y0, std::int64_t y1) {
            for (int py = static_cast<int>(y0); py < y1; ++py) {
                std::uint32_t rayId =
                    static_cast<std::uint32_t>(py) * W;
                for (int px = 0; px < W; ++px, ++rayId)
                    traceOne(camera, px, py, rayId, w, nullptr);
            }
        });
}

StageWork
NerfModel::traceWorkloadPixels(const Camera &camera,
                               const std::vector<std::uint32_t> &pixelIds,
                               TraceSink *trace) const
{
    StageWork work;
    if (trace) {
        std::unique_ptr<RayTraceBuffer> buf;
        if (parallelThreadCount() > 1)
            buf = std::make_unique<RayTraceBuffer>(pixelIds.size(),
                                                   trace);
        work = accumulateWorkChunks(
            static_cast<std::int64_t>(pixelIds.size()),
            [&](StageWork &w, std::int64_t b, std::int64_t e) {
                for (std::int64_t k = b; k < e; ++k) {
                    std::uint32_t id = pixelIds[k];
                    if (buf) {
                        RayTraceBuffer::SlotSink sink =
                            buf->sink(static_cast<std::size_t>(k));
                        traceOne(camera, id % camera.width,
                                 id / camera.width, id, w, &sink);
                    } else {
                        traceOne(camera, id % camera.width,
                                 id / camera.width, id, w, trace);
                    }
                }
                if (buf)
                    buf->markCompleted(static_cast<std::size_t>(b),
                                       static_cast<std::size_t>(e));
            });
        if (buf)
            buf->replay();
        trace->onFlush();
        return work;
    }

    return accumulateWorkChunks(
        static_cast<std::int64_t>(pixelIds.size()),
        [&](StageWork &w, std::int64_t b, std::int64_t e) {
            for (std::int64_t k = b; k < e; ++k) {
                std::uint32_t id = pixelIds[k];
                traceOne(camera, id % camera.width, id / camera.width,
                         id, w, nullptr);
            }
        });
}

std::vector<Vec3>
NerfModel::collectSamplePositions(const Camera &camera) const
{
    const int W = camera.width;
    const int H = camera.height;

    // Per-chunk position lists, concatenated in chunk (= row) order so
    // the result matches the serial traversal exactly.
    return parallelConcatChunks<Vec3>(
        H, [&](std::vector<Vec3> &out, std::int64_t y0,
               std::int64_t y1) {
            thread_local std::vector<RaySample> samples;
            for (int py = static_cast<int>(y0); py < y1; ++py) {
                for (int px = 0; px < W; ++px) {
                    Ray ray = camera.generateRay(px, py);
                    int n = _sampler.sample(ray, samples);
                    for (int i = 0; i < n; ++i)
                        out.push_back(samples[i].pn);
                }
            }
        });
}

std::vector<Vec3>
NerfModel::collectSamplePositionsPixels(
    const Camera &camera,
    const std::vector<std::uint32_t> &pixelIds) const
{
    return parallelConcatChunks<Vec3>(
        static_cast<std::int64_t>(pixelIds.size()),
        [&](std::vector<Vec3> &out, std::int64_t b, std::int64_t e) {
            thread_local std::vector<RaySample> samples;
            for (std::int64_t k = b; k < e; ++k) {
                std::uint32_t id = pixelIds[k];
                Ray ray = camera.generateRay(id % camera.width,
                                             id / camera.width);
                int cnt = _sampler.sample(ray, samples);
                for (int i = 0; i < cnt; ++i)
                    out.push_back(samples[i].pn);
            }
        });
}

RenderResult
renderGroundTruth(const Scene &scene, const Camera &camera,
                  int stepsAcross)
{
    RenderResult out;
    out.image = Image(camera.width, camera.height);
    out.depth = DepthMap(camera.width, camera.height);

    SamplerConfig cfg;
    cfg.stepsAcross = stepsAcross;
    cfg.maxSamplesPerRay = stepsAcross * 2;
    OccupancyGrid occupancy(scene.field, cfg.occupancyRes,
                            cfg.occupancySigma);
    RaySampler sampler(scene.field.bounds(), &occupancy, cfg);

    parallelFor(0, camera.height, -1,
                [&](std::int64_t y0, std::int64_t y1) {
                    thread_local std::vector<RaySample> samples;
                    for (int py = static_cast<int>(y0); py < y1; ++py) {
                        for (int px = 0; px < camera.width; ++px) {
                            Ray ray = camera.generateRay(px, py);
                            int n = sampler.sample(ray, samples);
                            Compositor comp;
                            for (int i = 0; i < n; ++i) {
                                const RaySample &s = samples[i];
                                FieldSample f =
                                    scene.field.sample(s.pos, ray.dir);
                                if (!comp.add(f.sigma, f.rgb, s.t, s.dt))
                                    break;
                            }
                            CompositeResult r =
                                comp.finish(scene.background);
                            out.image.at(px, py) = r.rgb;
                            out.depth.at(px, py) = r.depth;
                        }
                    }
                });
    return out;
}

} // namespace cicero

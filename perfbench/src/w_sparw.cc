/**
 * @file
 * sparw_dvgo: closed loop, one client. DVGO (Fast) runs
 * SparwPipeline::run at 128x128 over 24-frame clips of a seeded
 * hand-held orbit, default window and schedule. Warping and reference
 * scheduling do most of the work (about one reference render per six
 * frames plus ~1% sparse pixels), so a warp or schedule change shows
 * here and nowhere else; psnr_db prices the quality side of the trade.
 *
 * The traced half gives half its time to the serve phases
 * (w_serve.cc), which serve the same DVGO model through the render
 * service, so the serve layer is measured per layer here.
 */

#include "cicero/sparw.hh"
#include "cicero/warp.hh"
#include "harness.hh"
#include "nerf/models.hh"
#include "stats.hh"

using namespace cicero;

namespace perfbench {

namespace {

constexpr int kRes = 128;
constexpr int kClipFrames = 24;
constexpr int kClips = 4; // clips cycle, so references stay cheap

class SparwDvgo : public Workload
{
  public:
    explicit SparwDvgo(const Options &opts) : _opts(opts) {}

    void
    setup() override
    {
        _scene = makeScene("lego");
        _model = buildModel(ModelKind::DirectVoxGO, _scene);
        _intrinsics = Camera::fromFov(kRes, kRes, _scene.fovYDeg);
    }

    void
    prepareChecks() override
    {
        // Clips start evenly around the orbit from a seeded phase.
        Rng rng(_opts.seed);
        float base = static_cast<float>(rng.uniform() * 360.0);
        for (int c = 0; c < kClips; ++c)
            _clips.push_back(jitteredOrbit(_scene,
                                           base + 360.0f * c / kClips,
                                           kClipFrames, rng.next(), 0.01f,
                                           0.3f));
        SparwPipeline pipe(*_model, _intrinsics, SparwConfig{});
        {
            SerialPool serial;
            for (const auto &clip : _clips)
                _refs.push_back(pipe.run(clip));
        }
        // Quality: every SPARW frame against a full render() of its pose.
        double sum = 0.0;
        int n = 0;
        for (int c = 0; c < kClips; ++c)
            for (int f = 0; f < kClipFrames; ++f) {
                RenderResult full = _model->render(camAt(_clips[c][f]));
                sum += psnrCapped(_refs[c].frames[f].image, full.image);
                ++n;
            }
        _psnr = sum / n;
    }

    double psnrDb() const override { return _psnr; }

    Pass
    run(double seconds, SpanRecorder *rec) override
    {
        Pass pass;
        SparwPipeline pipe(*_model, _intrinsics, SparwConfig{});
        SchedulerCounters base = parallelSchedulerCounters();
        StageWork work;
        double overlap = 0.0, rerender = 0.0;
        std::uint64_t nerfRays = 0, marched = 0, shadedOfReplayed = 0;
        const double end = nowS() + (rec ? seconds / 2 : seconds);
        for (std::int64_t i = 0; nowS() < end; ++i) {
            const std::size_t c = static_cast<std::size_t>(i) % kClips;
            SparwRun r;
            bool ok = true;
            double t0 = nowS(), t1 = t0;
            {
                ScopedSpan req(rec, "request", 0, i);
                try {
                    ScopedSpan s(rec, "cicero.sparw_run", req.id(), i);
                    r = pipe.run(_clips[c]);
                } catch (...) {
                    ok = false;
                }
                t1 = nowS();
            }
            ++pass.attempted;
            pass.wallS += t1 - t0;
            pass.latenciesMs.push_back((t1 - t0) * 1e3);
            ok = ok && r.frames.size() == _refs[c].frames.size();
            for (std::size_t f = 0; ok && f < r.frames.size(); ++f)
                ok = sameFrame(r.frames[f].image, r.frames[f].depth,
                               _refs[c].frames[f].image,
                               _refs[c].frames[f].depth);
            if (!ok) {
                ++pass.failed;
                continue;
            }
            pass.frames += r.frames.size();
            StageWork refWork = r.totalReferenceWork();
            StageWork sparse = r.totalSparseWork();
            work += refWork + sparse;
            nerfRays += refWork.rays + sparse.rays;
            overlap += r.meanOverlap() * r.frames.size();
            rerender += r.meanRerender() * r.frames.size();
            if (rec) {
                marched += replay(r, _clips[c], rec, i);
                shadedOfReplayed += r.references.front().work.samples;
            }
        }
        addSchedCounts(pass, parallelSchedulerCountersSince(base),
                       pass.wallS, pass.frames);
        addWorkCounts(pass, work);
        if (pass.frames) {
            double f = static_cast<double>(pass.frames);
            pass.layer["cicero.warped_frac"] = overlap / f;
            pass.layer["cicero.rerender_frac"] = rerender / f;
            pass.layer["cicero.nerf_rays_per_pixel"] =
                nerfRays / (f * kRes * kRes);
        }
        if (marched)
            pass.layer["nerf.shaded_frac"] =
                static_cast<double>(shadedOfReplayed) / marched;
        if (rec)
            runServePhases(seconds / 2, rec, pass);
        return pass;
    }

  private:
    /**
     * The serve phases under @p rec; their serve.* and bench.* values
     * and their request counts join @p pass.
     */
    void
    runServePhases(double seconds, SpanRecorder *rec, Pass &pass)
    {
        if (!_serve) {
            _serve = makeServePhases(_opts);
            _serve->setup();
            _serve->prepareChecks();
        }
        Pass sp = _serve->run(seconds, rec);
        for (const auto &[k, v] : sp.layer)
            if (k.rfind("serve.", 0) == 0 || k.rfind("bench.", 0) == 0)
                pass.layer[k] = v;
        pass.attempted += sp.attempted;
        pass.failed += sp.failed;
        pass.degraded += sp.degraded;
    }

    Camera
    camAt(const Pose &pose) const
    {
        Camera cam = _intrinsics;
        cam.pose = pose;
        return cam;
    }

    /**
     * Serial replay of one clip's layers: a render() at every reference
     * pose, a warpFrame() per displayed frame from its reference, and
     * the stage split of the first reference's NeRF walk. Returns the
     * samples that first reference marched.
     */
    std::uint64_t
    replay(const SparwRun &r, const std::vector<Pose> &clip,
           SpanRecorder *rec, std::int64_t request)
    {
        ScopedSpan top(rec, "cicero.replay", 0, request);
        std::vector<RenderResult> refs;
        for (const SparwReference &ref : r.references) {
            ScopedSpan s(rec, "cicero.ref_render", top.id(), request);
            refs.push_back(_model->render(camAt(ref.pose)));
        }
        for (std::size_t f = 0; f < r.frames.size(); ++f) {
            int k = r.frames[f].referenceIndex;
            if (k < 0 || static_cast<std::size_t>(k) >= refs.size())
                continue;
            ScopedSpan s(rec, "cicero.warp", top.id(), request);
            warpFrame(refs[k].image, refs[k].depth,
                      camAt(r.references[k].pose), camAt(clip[f]),
                      &_model->occupancy(), _scene.background);
        }
        return replayNerfStages(*_model, camAt(r.references.front().pose),
                                rec, top.id(), request);
    }

    Options _opts;
    Scene _scene;
    std::unique_ptr<NerfModel> _model;
    Camera _intrinsics;
    std::vector<std::vector<Pose>> _clips;
    std::vector<SparwRun> _refs;
    double _psnr = 0.0;
    std::unique_ptr<Workload> _serve;
};

} // namespace

std::unique_ptr<Workload>
makeSparwDvgo(const Options &opts)
{
    return std::make_unique<SparwDvgo>(opts);
}

} // namespace perfbench

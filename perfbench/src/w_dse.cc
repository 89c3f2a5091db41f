/**
 * @file
 * dse_dvgo: closed loop, one client. Each request captures one DVGO
 * (Fast) 32x32 frame's trace through liveSource into a TraceFileWriter
 * in a scratch directory, then prices it over a fixed 4-point grid
 * with DseDriver (sharded over the pool). Trace emission, the .ctrace
 * codec and the memory and accelerator models do all the work here and
 * none of the other workloads run them; it is the write-side use of the
 * ray walker, beside sparw_dvgo's read side. DVGO because an NGP point
 * costs seconds.
 */

#include <cstdlib>
#include <filesystem>

#include "dse/corpus.hh"
#include "dse/driver.hh"
#include "harness.hh"
#include "nerf/models.hh"
#include "stats.hh"

using namespace cicero;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr int kRes = 32;
constexpr int kPoses = 4; // poses cycle, so references stay cheap

dse::SweepAxes
grid()
{
    dse::SweepAxes axes;
    axes.cacheMb = {1.0, 2.0};
    axes.guVftKb = {32, 64};
    return axes;
}

class DseDvgo : public Workload
{
  public:
    explicit DseDvgo(const Options &opts) : _opts(opts) {}

    ~DseDvgo() override
    {
        std::error_code ec;
        if (!_dir.empty())
            fs::remove_all(_dir, ec);
    }

    void
    setup() override
    {
        _scene = makeScene("lego");
        _model = buildModel(ModelKind::DirectVoxGO, _scene);
    }

    int pointsPerRequest() const override
    {
        return static_cast<int>(grid().configCount());
    }

    void
    prepareChecks() override
    {
        std::string tmpl = (fs::path(_opts.workDir) / "dse-XXXXXX").string();
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error("dse_dvgo: cannot create " + tmpl);
        _dir = tmpl;

        Rng rng(_opts.seed);
        float start = static_cast<float>(rng.uniform() * 360.0);
        std::vector<Pose> poses =
            ringPoses(_scene, start, kPoses, rng.next(), 0.02f, 0.5f);
        dse::DseDriver driver(grid());
        for (int p = 0; p < kPoses; ++p) {
            _cams.push_back(
                Camera::fromFov(kRes, kRes, _scene.fovYDeg, poses[p]));
            // Reference: replayed stats of every stack equal live ones,
            // and the serial sweep is what each timed sweep must print.
            dse::Corpus corpus = capture(p, "ref" + std::to_string(p));
            TraceFileReader reader(corpus.tracePath(corpus.entries()[0]));
            TraceWorkloadDescriptor live = measureWorkload(*_model, _cams[p]);
            TraceWorkloadDescriptor replayed = workloadFromTrace(reader);
            TraceSourceFn liveSrc = liveSource(*_model, _cams[p]);
            TraceSourceFn fileSrc = fileSource(reader);
            bool same =
                statsJson(runGpuStack(liveSrc, live)) ==
                    statsJson(runGpuStack(fileSrc, replayed)) &&
                statsJson(runNpuStack(liveSrc, live)) ==
                    statsJson(runNpuStack(fileSrc, replayed)) &&
                statsJson(runGuStack(liveSrc, live)) ==
                    statsJson(runGuStack(fileSrc, replayed)) &&
                statsJson(runBaselineStack(liveSrc, live)) ==
                    statsJson(runBaselineStack(fileSrc, replayed));
            _replayMatchesLive.push_back(same);
            _serialJson.push_back(driver.run(corpus, false).json());
        }
    }

    Pass
    run(double seconds, SpanRecorder *rec) override
    {
        Pass pass;
        dse::DseDriver driver(grid());
        SchedulerCounters base = parallelSchedulerCounters();
        double bytesPerAccess = 0.0, hitRate = 0.0;
        std::uint64_t replays = 0;
        const double end = nowS() + seconds;
        for (std::int64_t i = 0; nowS() < end; ++i) {
            const int p = static_cast<int>(i % kPoses);
            std::string json;
            std::unique_ptr<dse::Corpus> corpus;
            bool ok = true;
            double t0 = nowS(), t1 = t0;
            {
                ScopedSpan req(rec, "request", 0, i);
                try {
                    {
                        ScopedSpan s(rec, "memory.capture", req.id(), i);
                        corpus = std::make_unique<dse::Corpus>(
                            capture(p, "run"));
                    }
                    ScopedSpan s(rec, "dse.sweep", req.id(), i);
                    json = driver.run(*corpus, true).json();
                } catch (...) {
                    ok = false;
                }
                t1 = nowS();
            }
            ++pass.attempted;
            pass.wallS += t1 - t0;
            pass.latenciesMs.push_back((t1 - t0) * 1e3);
            ok = ok && _replayMatchesLive[p] && json == _serialJson[p];
            if (!ok) {
                ++pass.failed;
                continue;
            }
            ++pass.frames;
            if (rec) {
                auto [bpa, hit] = replay(*corpus, rec, i);
                bytesPerAccess += bpa;
                hitRate += hit;
                ++replays;
            }
        }
        addSchedCounts(pass, parallelSchedulerCountersSince(base),
                       pass.wallS, pass.frames);
        if (replays) {
            pass.layer["memory.trace_bytes_per_access"] =
                bytesPerAccess / replays;
            pass.layer["memory.cache_hit_rate"] = hitRate / replays;
        }
        return pass;
    }

  private:
    /**
     * Capture pose @p p into @p name.ctrace under its own corpus
     * directory. The entry id is the pose, so the sweep JSON of any
     * capture of that pose is comparable with the reference's.
     */
    dse::Corpus
    capture(int p, const std::string &name)
    {
        fs::path dir = fs::path(_dir) / name;
        fs::create_directories(dir);
        dse::Corpus corpus(dir.string());
        dse::CorpusEntry entry;
        entry.id = "lego_dvgo_" + std::to_string(kRes) + "_p" +
                   std::to_string(p);
        entry.file = entry.id + ".ctrace";
        entry.scene = _scene.name;
        entry.model = "dvgo";
        entry.encoding = _model->encoding().name();
        entry.res = kRes;
        entry.frame = static_cast<std::uint32_t>(p);

        TraceFileMeta meta;
        meta.scene = _scene.name;
        meta.encoding = _model->encoding().name();
        meta.model = "dvgo";
        meta.width = meta.height = kRes;
        meta.threads = static_cast<std::uint32_t>(parallelThreadCount());
        meta.featureBytes = static_cast<std::uint32_t>(
            _model->encoding().featureDim() * kBytesPerChannel);
        meta.storageMode = TraceStorageMode::Fp32;
        TraceFileWriter writer(corpus.tracePath(entry), meta);
        liveSource(*_model, _cams[p])(&writer);
        writer.setWorkloadSummary(
            toSummary(measureWorkload(*_model, _cams[p])));
        writer.close();
        corpus.add(std::move(entry));
        corpus.save();
        return corpus;
    }

    /**
     * Serial replay of the request's trace through each memory and
     * accelerator stack and each grid point. Returns (stored trace bytes
     * per access, LRU cache hit rate).
     */
    std::pair<double, double>
    replay(const dse::Corpus &corpus, SpanRecorder *rec,
           std::int64_t request)
    {
        ScopedSpan top(rec, "dse.replay", 0, request);
        const std::string path = corpus.tracePath(corpus.entries()[0]);
        TraceFileReader reader(path);
        TraceSourceFn src = fileSource(reader);
        TraceWorkloadDescriptor desc = workloadFromTrace(reader);
        CacheStackResult cache;
        {
            ScopedSpan s(rec, "memory.cache_stack", top.id(), request);
            cache = runCacheStack(src);
        }
        {
            ScopedSpan s(rec, "memory.bank_stack", top.id(), request);
            SramBankConfig bank;
            bank.featureBytes = desc.vertexBytes;
            runBankStack(src, bank);
        }
        {
            ScopedSpan s(rec, "memory.dram_stack", top.id(), request);
            runDramStack(src);
        }
        {
            ScopedSpan s(rec, "accel.gpu_stack", top.id(), request);
            runGpuStack(src, desc);
        }
        {
            ScopedSpan s(rec, "accel.npu_stack", top.id(), request);
            runNpuStack(src, desc);
        }
        {
            ScopedSpan s(rec, "accel.gu_stack", top.id(), request);
            runGuStack(src, desc);
        }
        {
            ScopedSpan s(rec, "accel.baseline_stack", top.id(), request);
            runBaselineStack(src, desc);
        }
        for (const dse::DseConfig &cfg : dse::expandGrid(grid())) {
            ScopedSpan s(rec, "dse.point", top.id(), request);
            dse::evaluatePoint(src, desc, corpus.entries()[0].id, cfg);
        }
        std::uintmax_t bytes = fs::file_size(path);
        std::uint64_t accesses = reader.counts().accesses;
        double hit = cache.lru.accesses
                         ? static_cast<double>(cache.lru.hits) /
                               cache.lru.accesses
                         : 0.0;
        return {accesses ? static_cast<double>(bytes) / accesses : 0.0,
                hit};
    }

    Options _opts;
    Scene _scene;
    std::unique_ptr<NerfModel> _model;
    std::string _dir;
    std::vector<Camera> _cams;
    std::vector<bool> _replayMatchesLive;
    std::vector<std::string> _serialJson;
};

} // namespace

std::unique_ptr<Workload>
makeDseDvgo(const Options &opts)
{
    return std::make_unique<DseDvgo>(opts);
}

} // namespace perfbench

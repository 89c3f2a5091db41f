/**
 * @file
 * The serve phases: the default RenderServiceConfig serving DVGO (Fast)
 * sessions of 8 frames at 64x64, start azimuths drawn from a seeded
 * finite set. Small frames put per-task scheduling, ray-block fan-out,
 * decode handoff and admission on the critical path, and concurrent
 * sessions share one model.
 *
 * They are not a gated workload: their timings slow down 1.5-2x
 * whenever the VM's host is contended (2-3x the slowdown of the other
 * workloads), which put their ten-seed spread at 0.2-1.2 of the median
 * in three of four sets. sparw_dvgo runs them in its traced half, so
 * every serve-layer metric is still measured per layer.
 *
 *  - Phase A, open loop: independent clients arrive on a seeded Poisson
 *    schedule at a fixed rate (about half the service's closed-loop
 *    capacity). Each session is timed from its *scheduled* arrival to
 *    wait() returning (serve.open_p50_ms).
 *  - Phase B, closed loop: nproc clients each request their next
 *    session when the last one is delivered (serve.frames_per_s, the
 *    capacity).
 *
 * The phases hold a lease on the served model throughout: the cache
 * evicts on last release, so an unleased service at low load would
 * rebuild the model inside a session's latency.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "harness.hh"
#include "serve/render_service.hh"
#include "stats.hh"

using namespace cicero;

namespace perfbench {

namespace {

constexpr int kRes = 64;
constexpr int kFrames = 8;
constexpr int kAzimuths = 8;
constexpr double kArrivalsPerS = 4.0; // ~half the parent's capacity
constexpr double kOpenLoopShare = 0.5; // of the run; the rest is phase B

/** What the clients accumulate, under one mutex. */
struct Tally
{
    std::mutex mu;
    std::vector<double> openMs; //!< phase A session latencies
    std::uint64_t attempted = 0, failed = 0, degraded = 0;
    std::uint64_t admitted = 0, completed = 0, frames = 0;
    double queueS = 0.0, renderS = 0.0;
    /** Shed sessions, checked after the run against their own size. */
    std::vector<std::pair<int, ServeSessionResult>> shed;
};

class ServePhases : public Workload
{
  public:
    explicit ServePhases(const Options &opts) : _opts(opts)
    {
        _key.scene = "lego";
        _key.kind = ModelKind::DirectVoxGO;
        _key.preset = ModelPreset::Fast;
    }

    void
    setup() override
    {
        _lease.release(); // before the service it points into
        _service = std::make_unique<RenderService>(RenderServiceConfig{});
        _lease = _service->cache().acquire(_key);
    }

    void
    prepareChecks() override
    {
        const NerfModel &model = _lease.model();
        Rng rng(_opts.seed);
        float base = static_cast<float>(rng.uniform() * 360.0);
        // Sessions take the azimuths in a seeded order, each equally
        // often, so every seed serves the same mix of views.
        _order = seededPermutation(rng.next(), kAzimuths);
        for (int k = 0; k < kAzimuths; ++k)
            _trajs.push_back(jitteredOrbit(model.scene(),
                                           base + 45.0f * k, kFrames,
                                           0, 0.0f, 0.0f));
        SerialPool serial;
        for (int k = 0; k < kAzimuths; ++k)
            for (int f = 0; f < kFrames; ++f)
                _refs[{kRes, k, f}] = model.render(camera(kRes, k, f));
    }

    Pass
    run(double seconds, SpanRecorder *rec) override
    {
        Tally tally;
        Pass pass;
        const ServiceCounters c0 = _service->counters();
        const ModelCacheStats m0 = _service->cache().stats();

        openLoop(seconds * kOpenLoopShare, rec, tally, pass);
        const std::uint64_t framesBefore = tally.frames;
        const double closedS =
            closedLoop(seconds * (1.0 - kOpenLoopShare), rec, tally);
        pass.layer["serve.open_p50_ms"] = median(tally.openMs);
        pass.layer["serve.frames_per_s"] =
            closedS > 0 ? (tally.frames - framesBefore) / closedS : 0.0;

        const ServiceCounters c1 = _service->counters();
        checkShed(tally);
        pass.attempted = tally.attempted;
        pass.failed = tally.failed;
        pass.degraded = tally.degraded;
        if (tally.frames) {
            pass.layer["serve.queue_ms"] = tally.queueS * 1e3 / tally.frames;
            pass.layer["serve.frame_render_ms"] =
                tally.renderS * 1e3 / tally.frames;
        }
        pass.layer["serve.retries"] =
            static_cast<double>(c1.frameRetries - c0.frameRetries);
        pass.layer["serve.shed"] =
            static_cast<double>(c1.shedAdmissions - c0.shedAdmissions);
        pass.layer["serve.model_builds"] = static_cast<double>(
            _service->cache().stats().misses - m0.misses);
        return pass;
    }

  private:
    Camera
    camera(int res, int k, int f) const
    {
        return Camera::fromFov(res, res, _lease.model().scene().fovYDeg,
                               _trajs[k][f]);
    }

    ServeSessionConfig
    session(int k) const
    {
        ServeSessionConfig cfg;
        cfg.model = _key;
        cfg.width = cfg.height = kRes;
        cfg.trajectory = _trajs[k];
        return cfg;
    }

    /**
     * Admit a session for azimuth @p k under request span @p reqId.
     * Returns the session id, or -1 when admission threw or refused.
     */
    int
    admit(int k, SpanRecorder *rec, std::int64_t reqId, std::int64_t req)
    {
        ScopedSpan s(rec, "serve.admit", reqId, req);
        try {
            return _service->admit(session(k));
        } catch (...) {
            return -1;
        }
    }

    /**
     * Wait for session @p id, record its latency from @p dueS into
     * @p latencyMs (unless null), and check its frames. Full-size frames
     * are compared now; a shed session is kept for checkShed().
     */
    void
    collect(int id, int k, double dueS, SpanRecorder *rec,
            std::int64_t reqId, std::int64_t req,
            std::vector<double> *latencyMs, Tally &t)
    {
        ServeSessionResult res;
        bool ok = true;
        {
            ScopedSpan s(rec, "serve.wait", reqId, req);
            try {
                res = _service->wait(id);
            } catch (...) {
                ok = false;
            }
        }
        double done = nowS();
        if (rec)
            rec->add("request", dueS, done, 0, req, reqId);
        ok = ok && res.frames.size() == static_cast<std::size_t>(kFrames);
        bool late = false;
        for (std::size_t f = 0; ok && f < res.frames.size(); ++f) {
            const ServeFrame &fr = res.frames[f];
            late = late || fr.deadlineMiss;
            if (!res.downsampled) {
                const RenderResult &ref =
                    _refs.at({kRes, k, static_cast<int>(f)});
                ok = sameFrame(fr.image, fr.depth, ref.image, ref.depth);
            }
        }
        std::lock_guard<std::mutex> lock(t.mu);
        ++t.completed;
        if (!ok) {
            ++t.failed;
            return;
        }
        if (latencyMs)
            latencyMs->push_back((done - dueS) * 1e3);
        t.frames += res.frames.size();
        for (const ServeFrame &fr : res.frames) {
            t.queueS += std::max(0.0, fr.latencyS - fr.renderS);
            t.renderS += fr.renderS;
        }
        if (res.downsampled || late)
            ++t.degraded;
        if (res.downsampled)
            t.shed.emplace_back(k, std::move(res));
    }

    /** Phase A. */
    void
    openLoop(double seconds, SpanRecorder *rec, Tally &t, Pass &pass)
    {
        const int count = std::max(
            12, static_cast<int>(std::lround(kArrivalsPerS * seconds)));
        const std::vector<double> at =
            poissonSchedule(_opts.seed, kArrivalsPerS, count);

        struct Pending
        {
            int id, k;
            double due;
            std::int64_t reqId, req;
        };
        std::mutex qmu;
        std::condition_variable qcv;
        std::deque<Pending> queue;
        bool closed = false;

        // The generator is this thread; nproc - 1 waiters collect.
        const int waiters = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
        std::vector<std::thread> pool;
        for (int w = 0; w < waiters; ++w)
            pool.emplace_back([&] {
                for (;;) {
                    Pending p;
                    {
                        std::unique_lock<std::mutex> lock(qmu);
                        qcv.wait(lock,
                                 [&] { return closed || !queue.empty(); });
                        if (queue.empty())
                            return;
                        p = queue.front();
                        queue.pop_front();
                    }
                    collect(p.id, p.k, p.due, rec, p.reqId, p.req,
                            &t.openMs, t);
                }
            });

        double maxLag = 0.0, backlog = 0.0;
        const double start = nowS();
        for (int i = 0; i < count; ++i) {
            const double due = start + at[i];
            double wait = due - nowS();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            maxLag = std::max(maxLag, nowS() - due);
            const int k = _order[i % kAzimuths];
            std::int64_t reqId = rec ? rec->newId() : 0;
            int id = admit(k, rec, reqId, i);
            {
                std::lock_guard<std::mutex> lock(t.mu);
                ++t.attempted;
                if (id < 0)
                    ++t.failed;
                else
                    ++t.admitted;
                if (i == count - 1)
                    backlog =
                        static_cast<double>(t.admitted - t.completed);
            }
            if (id < 0) {
                if (rec)
                    rec->add("request", due, nowS(), 0, i, reqId);
                continue;
            }
            std::lock_guard<std::mutex> lock(qmu);
            queue.push_back({id, k, due, reqId, i});
            qcv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lock(qmu);
            closed = true;
        }
        qcv.notify_all();
        for (auto &th : pool)
            th.join();
        pass.layer["bench.gen_lag_ms_max"] = maxLag * 1e3;
        pass.layer["bench.backlog_end"] = backlog;
    }

    /** Phase B. Returns its wall seconds. */
    double
    closedLoop(double seconds, SpanRecorder *rec, Tally &t)
    {
        const int clients = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
        const double start = nowS();
        const double end = start + seconds;
        std::atomic<int> next{0};
        std::vector<std::thread> pool;
        for (int c = 0; c < clients; ++c)
            pool.emplace_back([&, c] {
                for (std::int64_t n = 0; nowS() < end; ++n) {
                    const std::int64_t req = (c + 1) * 1000000 + n;
                    const int k = _order[next++ % kAzimuths];
                    const double due = nowS();
                    std::int64_t reqId = rec ? rec->newId() : 0;
                    int id = admit(k, rec, reqId, req);
                    {
                        std::lock_guard<std::mutex> lock(t.mu);
                        ++t.attempted;
                        if (id < 0)
                            ++t.failed;
                        else
                            ++t.admitted;
                    }
                    if (id >= 0)
                        collect(id, k, due, rec, reqId, req, nullptr, t);
                }
            });
        for (auto &th : pool)
            th.join();
        return nowS() - start;
    }

    /** Compare shed sessions against solo renders at their own size. */
    void
    checkShed(Tally &t)
    {
        if (t.shed.empty())
            return;
        const int res = std::max(8, kRes / 2);
        SerialPool serial;
        for (const auto &[k, session] : t.shed)
            for (int f = 0; f < kFrames; ++f) {
                auto key = std::make_tuple(res, k, f);
                if (!_refs.count(key))
                    _refs[key] = _lease.model().render(camera(res, k, f));
                const RenderResult &ref = _refs[key];
                if (!sameFrame(session.frames[f].image,
                               session.frames[f].depth, ref.image,
                               ref.depth)) {
                    ++t.failed;
                    break;
                }
            }
        t.shed.clear();
    }

    Options _opts;
    ModelKey _key;
    std::unique_ptr<RenderService> _service; // outlives _lease
    SharedModelCache::Lease _lease;
    std::vector<std::vector<Pose>> _trajs;
    std::vector<int> _order;
    std::map<std::tuple<int, int, int>, RenderResult> _refs;
};

} // namespace

std::unique_ptr<Workload>
makeServePhases(const Options &opts)
{
    return std::make_unique<ServePhases>(opts);
}

} // namespace perfbench

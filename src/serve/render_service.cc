#include "serve/render_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <stdexcept>
#include <thread>

#include "common/fault.hh"
#include "common/parallel.hh"

namespace cicero {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

/**
 * One admitted session: its config, model lease, frame chain and
 * completion state. Owned by a shared_ptr held by the service map and
 * by waiters; frame tasks deliberately capture only a *raw* pointer —
 * a capture with a destructor could otherwise drop the session (and
 * its model lease) on a pool worker racing service teardown. Lifetime
 * is instead guaranteed structurally: the session leaves the map only
 * after its TaskGroup fully drained (RenderService::wait and the
 * service destructor both drain before releasing their reference), so
 * destruction always happens on the collecting thread while the
 * shared cache is still alive.
 */
struct RenderService::Session
{
    int id = -1;
    ServeSessionConfig cfg;
    int window = 1;
    SharedModelCache::Lease lease;
    TaskGroup group;

    int maxRetries = 0;     //!< resolved per-frame retry budget
    double deadlineS = 0.0; //!< resolved per-frame deadline (0 = none)
    bool downsampled = false; //!< admission was shed to half resolution

    /**
     * Row ranges [first, second) of the frame's ray-block tasks —
     * identical for every frame of the session.
     */
    std::vector<std::pair<int, int>> blocks;

    /**
     * Per-frame aggregation across the frame's ray-block tasks,
     * folded into the ServeFrame by the finalize task. Guarded by mu
     * while blocks run; the finalize task additionally sees all block
     * writes through its scheduler dependency edges.
     */
    struct FrameState
    {
        std::exception_ptr err; //!< first permanently failing block
        bool anySkip = false;   //!< a block observed quarantine
        bool started = false;   //!< startAt is valid
        Clock::time_point startAt; //!< first block's render start
        int retriesMax = 0; //!< max retry rounds over the frame's blocks
    };

    std::mutex mu;
    std::condition_variable cv;
    std::vector<ServeFrame> frames;
    std::vector<FrameState> fstate;
    std::vector<char> done;
    std::vector<char> failed;
    std::vector<char> skipped; //!< failed because quarantine skipped it
    std::vector<Clock::time_point> eligibleAt;
    int completed = 0;
    int failedFrames = 0;    //!< frames that exhausted their retries
    bool quarantined = false;
    bool finished = false;
    std::exception_ptr error;
};

RenderService::RenderService(const RenderServiceConfig &config)
    : _config(config)
{
}

RenderService::~RenderService()
{
    // Drain every session still rendering before members go away:
    // frame tasks touch the service counters and the shared cache.
    // Draining the group (not just waiting on `finished`) is what
    // makes that safe — it returns only after every task body has
    // fully retired, including the post-notify bookkeeping.
    std::vector<std::shared_ptr<Session>> live;
    {
        std::lock_guard<std::mutex> lock(_mu);
        for (auto &kv : _sessions)
            live.push_back(kv.second);
    }
    for (auto &s : live)
        s->group.wait();
}

int
RenderService::admit(const ServeSessionConfig &config)
{
    return admitImpl(config, /*throwOnFull=*/true);
}

int
RenderService::tryAdmit(const ServeSessionConfig &config)
{
    return admitImpl(config, /*throwOnFull=*/false);
}

int
RenderService::admitImpl(const ServeSessionConfig &config,
                         bool throwOnFull)
{
    faultCheck(FaultSite::SessionAdmit);

    if (config.trajectory.empty() || config.width <= 0 ||
        config.height <= 0)
        throw std::runtime_error("RenderService: invalid session config");

    auto s = std::make_shared<Session>();
    bool shed = false;
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_active >= _config.maxSessions) {
            ++_counters.rejected;
            if (throwOnFull)
                throw std::runtime_error(
                    "RenderService: at session capacity");
            return -1;
        }
        // Overload shedding: past the pressure threshold, admit at
        // half resolution instead of full cost. Decided (and fixed) at
        // admission so a session's frames stay mutually consistent —
        // the service never changes resolution mid-session.
        if (_config.shedOnOverload) {
            int pressure = std::max(
                1, static_cast<int>(std::ceil(_config.shedThreshold *
                                              _config.maxSessions)));
            shed = _active >= pressure;
        }
        if (shed)
            ++_counters.shedAdmissions;
        s->id = _nextId++;
        ++_active;
        ++_counters.admitted;
        _sessions.emplace(s->id, s);
    }

    ServeSessionConfig effective = config;
    if (shed) {
        effective.width = std::max(8, config.width / 2);
        effective.height = std::max(8, config.height / 2);
        s->downsampled = true;
    }

    // Heavy setup outside the service lock: model build (on cache
    // miss) and the whole frame-chain submission. On failure (say an
    // unknown scene) the reserved slot must be handed back.
    try {
        setupSession(s, effective);
    } catch (...) {
        std::lock_guard<std::mutex> lock(_mu);
        _sessions.erase(s->id);
        --_active;
        throw;
    }
    return s->id;
}

void
RenderService::setupSession(const std::shared_ptr<Session> &s,
                            const ServeSessionConfig &config)
{
    s->cfg = config;
    s->lease = _cache.acquire(config.model);

    const int n = static_cast<int>(config.trajectory.size());
    int window = config.inflightWindow > 0 ? config.inflightWindow
                                           : _config.defaultInflightWindow;
    window = std::min(std::max(window, 1), n);
    s->window = window;
    s->maxRetries = config.maxFrameRetries >= 0
                        ? config.maxFrameRetries
                        : std::max(0, _config.maxFrameRetries);
    s->deadlineS = config.frameDeadlineS > 0
                       ? config.frameDeadlineS
                       : _config.defaultFrameDeadlineS;
    s->frames.resize(n);
    s->fstate.resize(n);
    s->done.assign(n, 0);
    s->failed.assign(n, 0);
    s->skipped.assign(n, 0);
    s->eligibleAt.resize(n);

    // Intra-frame ray-block decomposition: contiguous row ranges,
    // identical for every frame. Auto-sizing targets ~2x the pool's
    // thread count blocks per frame — enough slack for load balancing
    // without drowning the scheduler in tiny tasks.
    {
        const int H = config.height;
        int rowsPer;
        if (_config.fanOutBlockRows > 0) {
            rowsPer = std::min(_config.fanOutBlockRows, H);
        } else {
            const int targetTasks = std::max(1, 2 * parallelThreadCount());
            rowsPer = std::max(1, (H + targetTasks - 1) / targetTasks);
        }
        s->blocks.clear();
        for (int r0 = 0; r0 < H; r0 += rowsPer)
            s->blocks.emplace_back(r0, std::min(H, r0 + rowsPer));
    }

    const Clock::time_point admitted = Clock::now();
    for (int f = 0; f < window; ++f)
        s->eligibleAt[f] = admitted;

    // Submit the whole graph from this thread (TaskGroup is
    // single-submitter): frame f is its ray-block tasks plus one
    // finalize task that runs after all of them — the finalize handle
    // is what frame f + window chains on, so the per-session
    // in-flight window is preserved under fan-out. The first
    // `window` frames' blocks are immediately runnable. On a
    // one-thread pool runnable tasks execute inline right here in
    // submission order (blocks, then finalize, frame by frame), so
    // admit() of a later session sees earlier sessions already done;
    // with workers one frame's blocks spread across the pool. Lambdas capture the
    // session by raw pointer on purpose: the captures stay trivially
    // destructible, so a worker retiring a task cannot run the
    // session destructor (see the Session doc).
    std::vector<TaskHandle> frameDone(n);
    std::vector<TaskHandle> blockHandles;
    const int nBlocks = static_cast<int>(s->blocks.size());
    for (int f = 0; f < n; ++f) {
        blockHandles.clear();
        blockHandles.reserve(nBlocks);
        for (int b = 0; b < nBlocks; ++b) {
            const int r0 = s->blocks[b].first;
            const int r1 = s->blocks[b].second;
            auto task = [this, sp = s.get(), f, r0, r1] {
                Session *const s = sp;

                // Quarantine short-circuit: the render is skipped but
                // the frame still completes through its finalize task
                // — wait() blocks on `finished`, which only flips
                // inside task bodies, so a quarantined session drains
                // fast instead of deadlocking its waiter. The first
                // non-skipping block stamps the frame's render start
                // and allocates its output surfaces; afterwards
                // sibling blocks write disjoint rows lock-free (the
                // mutexed allocation check gives them a happens-before
                // on the buffers).
                bool skip;
                {
                    std::lock_guard<std::mutex> lock(s->mu);
                    skip = s->quarantined;
                    Session::FrameState &fs = s->fstate[f];
                    if (skip) {
                        fs.anySkip = true;
                    } else {
                        if (!fs.started) {
                            fs.started = true;
                            fs.startAt = Clock::now();
                        }
                        if (s->frames[f].image.pixelCount() == 0) {
                            s->frames[f].image =
                                Image(s->cfg.width, s->cfg.height);
                            s->frames[f].depth =
                                DepthMap(s->cfg.width, s->cfg.height);
                        }
                    }
                }
                if (skip)
                    return;

                // Bounded retry with exponential backoff: transient
                // failures (an injected fault window, a briefly
                // unavailable resource) cost latency, not the frame.
                // Re-rendering is safe — renderServeRows is
                // deterministic and rewrites only this block's rows,
                // so a retried block is bit-identical to an
                // untroubled one.
                StageWork work;
                std::exception_ptr err;
                int retries = 0;
                for (int attempt = 0;; ++attempt) {
                    err = nullptr;
                    try {
                        faultCheck(FaultSite::FrameRender, s->id);
                        Camera cam = Camera::fromFov(
                            s->cfg.width, s->cfg.height,
                            s->lease.model().scene().fovYDeg,
                            s->cfg.trajectory[f]);
                        work = s->lease.model().renderServeRows(
                            cam, r0, r1, s->frames[f].image,
                            s->frames[f].depth);
                        break;
                    } catch (...) {
                        err = std::current_exception();
                    }
                    if (attempt >= s->maxRetries)
                        break;
                    ++retries;
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            _config.retryBackoffS *
                            static_cast<double>(1 << attempt)));
                }

                std::lock_guard<std::mutex> lock(s->mu);
                Session::FrameState &fs = s->fstate[f];
                // Frame retry accounting is the MAX over its blocks —
                // the retry *rounds* the frame needed — so the count
                // is independent of the block decomposition for
                // deterministic faults.
                fs.retriesMax = std::max(fs.retriesMax, retries);
                if (err) {
                    if (!fs.err)
                        fs.err = err;
                } else {
                    s->frames[f].work += work;
                }
            };
            blockHandles.push_back(
                f < window
                    ? s->group.run(task)
                    : s->group.runAfter({frameDone[f - window]}, task));
        }

        auto finalize = [this, sp = s.get(), f] {
            Session *const s = sp;
            const int nFrames = static_cast<int>(s->frames.size());
            const Clock::time_point t1 = Clock::now();

            bool skip;
            bool started;
            std::exception_ptr err;
            int retries;
            Clock::time_point startAt;
            {
                std::lock_guard<std::mutex> lock(s->mu);
                Session::FrameState &fs = s->fstate[f];
                skip = fs.anySkip;
                started = fs.started;
                err = fs.err;
                retries = fs.retriesMax;
                startAt = fs.startAt;
            }

            const double renderS =
                started ? seconds(t1 - startAt) : 0.0;
            bool deadlineMiss =
                !skip && !err &&
                ((s->deadlineS > 0 && renderS > s->deadlineS) ||
                 faultShouldFire(FaultSite::FrameDeadline, s->id));

            bool sessionDone = false;
            bool newlyQuarantined = false;
            {
                std::lock_guard<std::mutex> lock(s->mu);
                ServeFrame &frame = s->frames[f];
                frame.latencyS = seconds(t1 - s->eligibleAt[f]);
                frame.renderS = renderS;
                frame.retries = retries;
                frame.deadlineMiss = deadlineMiss;
                if (skip) {
                    // A skipped frame delivers no pixels, even when
                    // quarantine flipped mid-frame and some blocks
                    // had already rendered.
                    frame.image = Image();
                    frame.depth = DepthMap();
                    frame.work = StageWork{};
                }
                s->done[f] = 1;
                if (skip) {
                    s->failed[f] = 1;
                    s->skipped[f] = 1;
                } else if (err) {
                    s->failed[f] = 1;
                    if (!s->error)
                        s->error = err;
                    if (++s->failedFrames >= _config.quarantineThreshold &&
                        !s->quarantined) {
                        s->quarantined = true;
                        newlyQuarantined = true;
                    }
                }
                if (f + s->window < nFrames)
                    s->eligibleAt[f + s->window] = t1;
                if (++s->completed == nFrames) {
                    s->finished = true;
                    sessionDone = true;
                }
            }
            s->cv.notify_all();

            {
                std::lock_guard<std::mutex> lock(_mu);
                ++_counters.framesCompleted;
                _counters.frameRetries +=
                    static_cast<std::uint64_t>(retries);
                if (skip)
                    ++_counters.framesSkipped;
                else if (err)
                    ++_counters.framesFailed;
                if (deadlineMiss)
                    ++_counters.deadlineMisses;
                if (newlyQuarantined)
                    ++_counters.quarantinedSessions;
                if (sessionDone)
                    --_active;
            }
        };
        frameDone[f] = s->group.runAfter(blockHandles, finalize);
    }
}

std::shared_ptr<RenderService::Session>
RenderService::findSession(int sessionId) const
{
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _sessions.find(sessionId);
    if (it == _sessions.end())
        throw std::runtime_error(
            "RenderService: unknown (or already collected) session id");
    return it->second;
}

ServeFrame
RenderService::waitFrame(int sessionId, int frameIndex)
{
    std::shared_ptr<Session> s = findSession(sessionId);
    if (frameIndex < 0 ||
        frameIndex >= static_cast<int>(s->frames.size()))
        throw std::runtime_error("RenderService: frame index out of range");

    std::unique_lock<std::mutex> lock(s->mu);
    s->cv.wait(lock, [&] { return s->done[frameIndex] != 0; });
    if (s->failed[frameIndex]) {
        if (s->skipped[frameIndex])
            throw SessionQuarantinedError(sessionId);
        std::rethrow_exception(s->error);
    }
    return s->frames[frameIndex];
}

ServeFrame
RenderService::waitFrameFor(int sessionId, int frameIndex,
                            double timeoutS)
{
    std::shared_ptr<Session> s = findSession(sessionId);
    if (frameIndex < 0 ||
        frameIndex >= static_cast<int>(s->frames.size()))
        throw std::runtime_error("RenderService: frame index out of range");

    std::unique_lock<std::mutex> lock(s->mu);
    bool done = s->cv.wait_for(
        lock, std::chrono::duration<double>(timeoutS),
        [&] { return s->done[frameIndex] != 0; });
    if (!done)
        throw WaitTimeoutError(sessionId, frameIndex, timeoutS);
    if (s->failed[frameIndex]) {
        if (s->skipped[frameIndex])
            throw SessionQuarantinedError(sessionId);
        std::rethrow_exception(s->error);
    }
    return s->frames[frameIndex];
}

bool
RenderService::sessionQuarantined(int sessionId) const
{
    std::shared_ptr<Session> s = findSession(sessionId);
    std::lock_guard<std::mutex> lock(s->mu);
    return s->quarantined;
}

ServeSessionResult
RenderService::wait(int sessionId)
{
    std::shared_ptr<Session> s;
    {
        std::lock_guard<std::mutex> lock(_mu);
        auto it = _sessions.find(sessionId);
        if (it == _sessions.end())
            throw std::runtime_error(
                "RenderService: unknown (or already collected) session id");
        s = it->second;
        _sessions.erase(it);
    }

    // Drain the session's group: `finished` flips inside the last
    // frame's task body, so the task (and its post-notify service
    // bookkeeping) may still be retiring on a worker — the group wait
    // returns only once nothing references the session anymore, making
    // it safe to destroy when our reference (the last) goes away.
    s->group.wait();

    ServeSessionResult out;
    out.sessionId = sessionId;
    out.downsampled = s->downsampled;
    {
        std::unique_lock<std::mutex> lock(s->mu);
        s->cv.wait(lock, [&] { return s->finished; });
        if (s->error)
            std::rethrow_exception(s->error);
        out.frames = std::move(s->frames);
    }
    return out;
}

int
RenderService::activeSessions() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _active;
}

ServiceCounters
RenderService::counters() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _counters;
}

} // namespace cicero

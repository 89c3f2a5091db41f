/**
 * @file
 * The multi-session render service: a persistent in-process server
 * admitting many concurrent client sessions and running them over the
 * work-stealing pool.
 *
 * Execution model (the paraLLEl-RDP idiom, adapted): a session's
 * frames are scheduler *tasks* submitted up-front as a dependency
 * chain on the session's own TaskGroup — frame f waits on frame
 * f - window, so each session keeps at most `inflightWindow` frames
 * in flight (the client-side latency/throughput knob). Each frame is
 * itself fanned out into contiguous *ray-block* tasks (row ranges
 * rendered via NerfModel::renderServeRows) plus one finalize task that
 * runs after all of the frame's blocks and carries the frame's
 * bookkeeping; the finalize task is what the next window frame chains
 * on, so window pipelining is preserved. Parallelism therefore comes
 * from two axes: many sessions' frames running concurrently AND one
 * frame's ray blocks spreading across workers, which keeps the pool
 * busy at 1-2 live sessions. `fanOutBlockRows` sets the decomposition
 * (>= the frame height = one block per frame).
 *
 * Fairness: admission control caps concurrent sessions (admit()
 * throws, tryAdmit() declines), and the in-flight window bounds any
 * one session's task-queue share.
 *
 * Correctness contract: a session's frames are bit-identical to the
 * same (scene, model, trajectory, resolution) rendered solo —
 * NerfModel::renderServeRows reproduces render()'s pixel walk and its
 * per-ray decode (Decoder::decodeBatchSoA) exactly on disjoint row
 * ranges, so the row decomposition cannot change bits.
 *
 * Failure semantics (see README "Failure semantics & fault
 * injection"): a transiently failing frame is retried with bounded
 * exponential backoff; a session whose frames keep failing past the
 * retry budget is *quarantined* — its remaining frames short-circuit
 * (skipped, counted) while every other session's output stays
 * bit-identical to its solo render — and surfaces a typed error at
 * wait(). Per-frame deadlines mark (never corrupt) late frames, and
 * under load pressure admissions degrade to the downsampled path
 * (half resolution) instead of growing the queue — the DS-k shape of
 * the paper applied to admission control.
 */

#ifndef CICERO_SERVE_RENDER_SERVICE_HH
#define CICERO_SERVE_RENDER_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/geometry.hh"
#include "serve/model_cache.hh"

namespace cicero {

/**
 * Thrown when a frame is requested from a session the service
 * quarantined after repeated frame failures. Carries the session id;
 * the session's *first real* error is what wait() rethrows.
 */
class SessionQuarantinedError : public std::runtime_error
{
  public:
    explicit SessionQuarantinedError(int sessionId)
        : std::runtime_error("RenderService: session " +
                             std::to_string(sessionId) +
                             " is quarantined after repeated frame "
                             "failures"),
          _sessionId(sessionId)
    {
    }

    int sessionId() const { return _sessionId; }

  private:
    int _sessionId;
};

/** Thrown by waitFrameFor() when the timeout elapses first. */
class WaitTimeoutError : public std::runtime_error
{
  public:
    WaitTimeoutError(int sessionId, int frameIndex, double timeoutS)
        : std::runtime_error(
              "RenderService: frame " + std::to_string(frameIndex) +
              " of session " + std::to_string(sessionId) +
              " not done within " + std::to_string(timeoutS) + " s"),
          _sessionId(sessionId), _frameIndex(frameIndex)
    {
    }

    int sessionId() const { return _sessionId; }
    int frameIndex() const { return _frameIndex; }

  private:
    int _sessionId;
    int _frameIndex;
};

/** One client session's request: model + trajectory + schedule. */
struct ServeSessionConfig
{
    ModelKey model;
    int width = 64;
    int height = 64;
    std::vector<Pose> trajectory; //!< one frame rendered per pose
    /**
     * Frames this session may have in flight at once; 0 takes the
     * service default. 1 = strictly serial frames (lowest latency
     * variance), larger = deeper pipelining (higher throughput).
     */
    int inflightWindow = 0;
    /**
     * Per-frame render deadline in seconds; 0 takes the service
     * default (which defaults to "none"). A frame that renders past
     * its deadline is *marked* (ServeFrame::deadlineMiss, the
     * deadlineMisses counter) but never altered — deadlines inform
     * the client, they do not corrupt output.
     */
    double frameDeadlineS = 0.0;
    /** Retry budget per frame; < 0 takes the service default. */
    int maxFrameRetries = -1;
};

/** Service-wide configuration. */
struct RenderServiceConfig
{
    int maxSessions = 64; //!< admission-control cap
    int defaultInflightWindow = 2;
    /**
     * Rows per intra-frame ray-block task; 0 = auto (size the frame
     * into ~2x the pool's thread count blocks). Smaller blocks = better
     * load balance, more scheduling overhead; a value >= the frame
     * height renders each frame as one task (parallelism then comes
     * only from concurrent frames/sessions).
     */
    int fanOutBlockRows = 0;

    // --- graceful degradation ---
    /** Retry budget for a transiently failing frame. */
    int maxFrameRetries = 2;
    /** Base retry backoff in seconds (doubles per retry). */
    double retryBackoffS = 0.0005;
    /**
     * Frames that may fail (after retries) before the session is
     * quarantined: its remaining frames are skipped instead of
     * rendered, isolating the fault from healthy sessions.
     */
    int quarantineThreshold = 2;
    /** Default per-frame deadline in seconds (0 = none). */
    double defaultFrameDeadlineS = 0.0;
    /**
     * Overload shedding: when active sessions reach
     * shedThreshold x maxSessions, new admissions are downgraded to
     * the downsampled path (half resolution, floor 8) instead of
     * rendered at full cost — predictable degradation, the DS-k
     * fallback applied at admission time.
     */
    bool shedOnOverload = true;
    double shedThreshold = 0.75;
};

/** One completed frame. */
struct ServeFrame
{
    Image image;
    DepthMap depth;
    StageWork work;
    /**
     * Seconds from the frame becoming *eligible* (admission for the
     * first window's frames, completion of frame f - window after) to
     * its completion — the latency a pipelined client observes.
     */
    double latencyS = 0.0;
    double renderS = 0.0; //!< seconds spent rendering on the worker
    int retries = 0;      //!< failed attempts before this frame succeeded
    bool deadlineMiss = false; //!< rendered past its deadline
};

/** Everything a finished session produced. */
struct ServeSessionResult
{
    int sessionId = -1;
    std::vector<ServeFrame> frames;
    /** True when overload shedding downsampled this session. */
    bool downsampled = false;
};

/** Service traffic counters. */
struct ServiceCounters
{
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t framesCompleted = 0;

    // --- robustness ---
    /**
     * Retry rounds across completed frames. With fan-out a frame's
     * blocks retry independently; the frame contributes the *max*
     * retry count over its blocks (the rounds the frame needed), so
     * the counter is decomposition-independent for deterministic
     * faults.
     */
    std::uint64_t frameRetries = 0;
    std::uint64_t framesFailed = 0;   //!< frames that exhausted their retries
    std::uint64_t framesSkipped = 0;  //!< frames short-circuited by quarantine
    std::uint64_t quarantinedSessions = 0;
    std::uint64_t shedAdmissions = 0; //!< admissions downgraded to downsampled
    std::uint64_t deadlineMisses = 0;
};

/**
 * The render service. Thread-safe: sessions may be admitted, polled
 * and collected from any thread.
 */
class RenderService
{
  public:
    explicit RenderService(const RenderServiceConfig &config = {});
    ~RenderService();

    RenderService(const RenderService &) = delete;
    RenderService &operator=(const RenderService &) = delete;

    /**
     * Admit a session and submit its whole frame chain; returns its
     * session id immediately (frames render asynchronously). Throws
     * std::runtime_error when the service is at maxSessions or the
     * config is invalid (empty trajectory, non-positive resolution).
     */
    int admit(const ServeSessionConfig &config);

    /** As admit(), but returns -1 instead of throwing when full. */
    int tryAdmit(const ServeSessionConfig &config);

    /**
     * Block until session @p sessionId's frame @p frameIndex is done
     * and return it (copy; the session keeps its frames until
     * wait()). Rethrows a frame task's exception;
     * SessionQuarantinedError for a frame skipped by quarantine.
     */
    ServeFrame waitFrame(int sessionId, int frameIndex);

    /**
     * As waitFrame(), but gives up after @p timeoutS seconds.
     * @throws WaitTimeoutError when the frame is not done in time (the
     *         frame keeps rendering; the call can be retried).
     */
    ServeFrame waitFrameFor(int sessionId, int frameIndex,
                            double timeoutS);

    /** True when @p sessionId has been quarantined. */
    bool sessionQuarantined(int sessionId) const;

    /**
     * Block until every frame of @p sessionId is done and collect the
     * session's results, retiring the session. Each session id can be
     * waited exactly once; unknown ids throw.
     */
    ServeSessionResult wait(int sessionId);

    /** Sessions admitted and not yet finished rendering. */
    int activeSessions() const;

    ServiceCounters counters() const;

    /** The shared-model cache (stats, live entries). */
    SharedModelCache &cache() { return _cache; }

    const RenderServiceConfig &config() const { return _config; }

  private:
    struct Session;

    std::shared_ptr<Session> findSession(int sessionId) const;
    int admitImpl(const ServeSessionConfig &config, bool throwOnFull);
    void setupSession(const std::shared_ptr<Session> &s,
                      const ServeSessionConfig &config);

    RenderServiceConfig _config;
    SharedModelCache _cache;

    mutable std::mutex _mu;
    std::map<int, std::shared_ptr<Session>> _sessions;
    int _nextId = 0;
    int _active = 0;
    ServiceCounters _counters;
};

} // namespace cicero

#endif // CICERO_SERVE_RENDER_SERVICE_HH

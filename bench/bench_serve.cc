/**
 * @file
 * Render-service bench: aggregate throughput and frame-latency
 * distribution of the multi-session serving layer under synthetic
 * traffic mixes, emitted as one JSON object.
 *
 * Legs:
 *  - solo: every session's trajectory rendered alone through
 *    NerfModel::render (full-pool parallel) — the bit-identity
 *    reference for every serve leg, and a context throughput number.
 *  - serial: the serving baseline — sessions admitted one at a time,
 *    in-flight window 1, one block per frame. This is what a naive
 *    server that serializes clients achieves; the gain gates compare
 *    against it.
 *  - uniform: S identical sessions admitted together for
 *    S in {1,2,4,8,16}; reports p50/p95/p99 frame latency, aggregate
 *    rays/s and scheduler-counter deltas per S.
 *  - fp16: the 8-session uniform mix on the fp16-storage model
 *    variant.
 *  - bursty: half the sessions admitted immediately, the second wave
 *    admitted only after the first wave's first frames completed.
 *  - heavy_tailed: one elephant session (4x the frames, jittered
 *    trajectory) among mice; reports elephant vs mice p95 latency —
 *    the fair-share check.
 *  - gates: legs run in kGatePairs interleaved pairs (ABAB..., the
 *    side that runs first alternating), each gate reading the median
 *    of the per-pair rays/s ratios, because this host's throughput
 *    swings ~3x from run to run and a single A/B is a coin flip:
 *      - aggregate: 8 concurrent sessions over serial, >= 1.5x;
 *      - fanout_2_sessions: 2 concurrent sessions with ray-block
 *        fan-out over serial on the same 2 clients, >= 1.2x;
 *      - fanout_on_vs_off_{1,2}: fan-out over one block per frame at
 *        S concurrent sessions, > 1x. Armed only when
 *        threads > S x window: otherwise window pipelining alone
 *        already fills the pool and fan-out cannot add parallelism.
 *    Gate servers admit enough sessions that overload shedding never
 *    trips, and every gate fails if any of its legs shed an admission
 *    (its "shed_admissions" field), so each gain compares
 *    full-resolution sessions only. The traffic legs above keep the
 *    tighter cap, and their 8-session runs shed by design.
 *
 * Exit code gates on (a) every session of every run bit-identical to
 * its solo render (a session shed to half resolution under overload
 * against a 1-thread solo render at that resolution), and (b) — only
 * when the pool has >= 2 threads AND the machine has >= 2 hardware
 * cores — the gain gates above. On a single-core runner extra
 * software threads only time-slice the one core, so concurrent
 * sessions cannot beat the serial walk and the perf legs are smoke
 * tests there, like the other parallel benches.
 *
 * --quick cuts resolution, frame counts and the session sweep for the
 * CI smoke step; every bit-identity check and gate still runs.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.hh"
#include "serve/render_service.hh"

using namespace cicero;
using namespace cicero::bench;

namespace {

using Clock = std::chrono::steady_clock;

/** Interleaved pairs behind every gain gate. */
constexpr int kGatePairs = 9;

/** fanOutBlockRows value that renders each frame as one block. */
constexpr int kOneBlockPerFrame = INT_MAX;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

bool
identical(const Image &a, const Image &b)
{
    if (a.pixelCount() != b.pixelCount())
        return false;
    for (std::size_t i = 0; i < a.pixelCount(); ++i)
        if (a.at(i).x != b.at(i).x || a.at(i).y != b.at(i).y ||
            a.at(i).z != b.at(i).z)
            return false;
    return true;
}

/** Linearly interpolated quantile @p p of @p v. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double
percentileMs(const std::vector<double> &latencies, double p)
{
    return 1e3 * quantile(latencies, p);
}

/** One client's request in a traffic mix. */
struct ClientSpec
{
    std::vector<Pose> trajectory;
    int width = 0;
    int height = 0;
};

/** Everything one serve leg produced. */
struct LegResult
{
    double wallS = 0.0;
    std::uint64_t rays = 0;
    bool bitIdentical = true;
    std::vector<std::vector<double>> latencyS; //!< per client, per frame
    SchedulerCounters sched;
    ServiceCounters service;

    double raysPerS() const { return wallS > 0.0 ? rays / wallS : 0.0; }
    std::vector<double> allLatencies() const
    {
        std::vector<double> out;
        for (const auto &c : latencyS)
            out.insert(out.end(), c.begin(), c.end());
        return out;
    }
};

/** What a leg's run added to the service's counters. */
ServiceCounters
countersSince(const ServiceCounters &before, const ServiceCounters &now)
{
    ServiceCounters d;
    d.admitted = now.admitted - before.admitted;
    d.rejected = now.rejected - before.rejected;
    d.framesCompleted = now.framesCompleted - before.framesCompleted;
    d.frameRetries = now.frameRetries - before.frameRetries;
    d.framesFailed = now.framesFailed - before.framesFailed;
    d.framesSkipped = now.framesSkipped - before.framesSkipped;
    d.quarantinedSessions =
        now.quarantinedSessions - before.quarantinedSessions;
    d.shedAdmissions = now.shedAdmissions - before.shedAdmissions;
    d.deadlineMisses = now.deadlineMisses - before.deadlineMisses;
    return d;
}

/**
 * Session cap for the traffic legs: one admission slot to spare. With
 * the default shedThreshold an 8-session leg sheds its 8th admission,
 * so those legs exercise (and bit-check) the shed path.
 */
int
legCapacity(std::size_t clients)
{
    return static_cast<int>(clients) + 1;
}

/**
 * Session cap for the gate legs: the service sheds an admission once
 * its active sessions reach ceil(shedThreshold x maxSessions), so this
 * cap keeps @p clients concurrent sessions below that pressure and
 * every gated session renders at full resolution.
 */
int
unshedCapacity(std::size_t clients)
{
    return static_cast<int>(
        std::ceil(clients / RenderServiceConfig{}.shedThreshold));
}

/**
 * A render service admitting up to @p maxSessions sessions, cut into
 * @p blockRows-row ray blocks, with its model pinned so the model
 * builds once (untimed) and every run of a leg on this server reuses
 * it.
 */
struct Server
{
    Server(const ModelKey &key, int blockRows, int maxSessions)
        : svc(config(blockRows, maxSessions)),
          pin(svc.cache().acquire(key))
    {
    }

    RenderService svc;
    SharedModelCache::Lease pin; //!< released before svc is destroyed

  private:
    static RenderServiceConfig
    config(int blockRows, int maxSessions)
    {
        RenderServiceConfig cfg;
        cfg.fanOutBlockRows = blockRows;
        cfg.maxSessions = maxSessions;
        return cfg;
    }
};

/**
 * Run one leg on @p server: admit every client per @p admitWave
 * (clients whose wave is 0 immediately; wave-1 clients after every
 * wave-0 client finished its first frame), wait for all, and check
 * each client's frames against @p solo.
 */
LegResult
runLeg(Server &server, const std::vector<ClientSpec> &clients,
       const std::vector<std::vector<Image>> &solo, int window,
       const std::vector<int> *admitWave = nullptr,
       bool serializeClients = false)
{
    RenderService &svc = server.svc;
    const SharedModelCache::Lease &pin = server.pin;
    const ModelKey &key = pin.key();

    LegResult leg;
    leg.latencyS.resize(clients.size());
    std::vector<ServeSessionResult> results(clients.size());
    std::vector<int> ids(clients.size(), -1);

    auto sessionConfig = [&](std::size_t i) {
        ServeSessionConfig sc;
        sc.model = key;
        sc.width = clients[i].width;
        sc.height = clients[i].height;
        sc.trajectory = clients[i].trajectory;
        sc.inflightWindow = window;
        return sc;
    };

    const SchedulerCounters base = parallelSchedulerCounters();
    const ServiceCounters serviceBase = svc.counters();
    const Clock::time_point t0 = Clock::now();
    if (serializeClients) {
        for (std::size_t i = 0; i < clients.size(); ++i) {
            ids[i] = svc.admit(sessionConfig(i));
            results[i] = svc.wait(ids[i]);
        }
    } else {
        for (std::size_t i = 0; i < clients.size(); ++i)
            if (!admitWave || (*admitWave)[i] == 0)
                ids[i] = svc.admit(sessionConfig(i));
        if (admitWave) {
            for (std::size_t i = 0; i < clients.size(); ++i)
                if ((*admitWave)[i] == 0)
                    svc.waitFrame(ids[i], 0);
            for (std::size_t i = 0; i < clients.size(); ++i)
                if ((*admitWave)[i] != 0)
                    ids[i] = svc.admit(sessionConfig(i));
        }
        for (std::size_t i = 0; i < clients.size(); ++i)
            results[i] = svc.wait(ids[i]);
    }
    leg.wallS = seconds(Clock::now() - t0);
    leg.sched = parallelSchedulerCountersSince(base);
    leg.service = countersSince(serviceBase, svc.counters());

    bool anyShed = false;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const auto &frames = results[i].frames;
        if (frames.size() != clients[i].trajectory.size())
            leg.bitIdentical = false;
        anyShed = anyShed || results[i].downsampled;
        for (std::size_t f = 0; f < frames.size(); ++f) {
            leg.rays += frames[f].work.rays;
            leg.latencyS[i].push_back(frames[f].latencyS);
            if (!results[i].downsampled &&
                !identical(frames[f].image, solo[i][f]))
                leg.bitIdentical = false;
        }
    }
    // A session shed to the downsampled path is compared with a
    // 1-thread solo render at its own (half) resolution, never skipped.
    if (anyShed) {
        setParallelThreadCount(1);
        for (std::size_t i = 0; i < clients.size(); ++i) {
            if (!results[i].downsampled)
                continue;
            const auto &frames = results[i].frames;
            for (std::size_t f = 0; f < frames.size(); ++f) {
                Camera cam = Camera::fromFov(
                    std::max(8, clients[i].width / 2),
                    std::max(8, clients[i].height / 2),
                    pin.model().scene().fovYDeg, clients[i].trajectory[f]);
                if (!identical(frames[f].image,
                               pin.model().render(cam).image))
                    leg.bitIdentical = false;
            }
        }
        setParallelThreadCount(0);
    }
    return leg;
}

/** A gain measured as kGatePairs interleaved pairs of two legs. */
struct PairedGain
{
    std::vector<double> baseRaysPerS; //!< leg A, one per pair
    std::vector<double> raysPerS;     //!< leg B, one per pair
    std::vector<double> ratios;       //!< B over A, one per pair
    bool bitIdentical = true;
    std::uint64_t shedAdmissions = 0; //!< both legs, every pair

    double median() const { return quantile(ratios, 0.5); }
};

/**
 * Run @p runA and @p runB in kGatePairs pairs, alternating which of
 * the two runs first, so drift in the host's speed hits both sides.
 */
template <typename RunA, typename RunB>
PairedGain
interleaved(RunA runA, RunB runB)
{
    PairedGain g;
    for (int p = 0; p < kGatePairs; ++p) {
        LegResult a, b;
        if (p % 2 == 0) {
            a = runA();
            b = runB();
        } else {
            b = runB();
            a = runA();
        }
        g.bitIdentical = g.bitIdentical && a.bitIdentical && b.bitIdentical;
        g.shedAdmissions +=
            a.service.shedAdmissions + b.service.shedAdmissions;
        g.baseRaysPerS.push_back(a.raysPerS());
        g.raysPerS.push_back(b.raysPerS());
        g.ratios.push_back(a.raysPerS() > 0.0 ? b.raysPerS() / a.raysPerS()
                                              : 0.0);
    }
    return g;
}

void
printGain(const char *name, const PairedGain &g, double bound,
          bool armed, bool pass)
{
    std::printf("\"%s\": {\"pairs\": %zu, \"median\": %.3f, "
                "\"q1\": %.3f, \"q3\": %.3f, \"min\": %.3f, "
                "\"ratios\": [",
                name, g.ratios.size(), g.median(),
                quantile(g.ratios, 0.25), quantile(g.ratios, 0.75),
                quantile(g.ratios, 0.0));
    for (std::size_t i = 0; i < g.ratios.size(); ++i)
        std::printf("%s%.3f", i ? ", " : "", g.ratios[i]);
    std::printf("], \"base_rays_per_s_median\": %.1f, "
                "\"rays_per_s_median\": %.1f, \"bound\": %.2f, "
                "\"armed\": %s, \"pass\": %s, \"bit_identical\": %s, "
                "\"shed_admissions\": %llu}",
                quantile(g.baseRaysPerS, 0.5), quantile(g.raysPerS, 0.5),
                bound, armed ? "true" : "false", pass ? "true" : "false",
                g.bitIdentical ? "true" : "false",
                static_cast<unsigned long long>(g.shedAdmissions));
}

void
printSched(const SchedulerCounters &c)
{
    std::printf("\"counters\": {\"steals\": %llu, "
                "\"idle_wakeups\": %llu, \"idle_ms\": %.3f, "
                "\"tasks\": %llu, \"dep_tasks\": %llu, "
                "\"dep_stall_ms\": %.3f}",
                static_cast<unsigned long long>(c.steals),
                static_cast<unsigned long long>(c.idleWakeups),
                c.idleNanos * 1e-6,
                static_cast<unsigned long long>(c.tasksExecuted),
                static_cast<unsigned long long>(c.depTasksSubmitted),
                c.depStallNanos * 1e-6);
}

/**
 * Robustness counters: retries/quarantines/shedding from the service,
 * drained tasks from the scheduler. All zero on a healthy leg except
 * shedding, which the 8-session traffic legs trip by design (the gate
 * legs never shed; see unshedCapacity) — the bench asserts
 * nothing about them, it *surfaces* them so a regression that starts
 * tripping the degradation machinery is visible in the JSON.
 */
void
printRobust(const ServiceCounters &s, const SchedulerCounters &c)
{
    std::printf("\"robustness\": {\"frame_retries\": %llu, "
                "\"frames_failed\": %llu, \"frames_skipped\": %llu, "
                "\"quarantined_sessions\": %llu, "
                "\"shed_admissions\": %llu, \"deadline_misses\": %llu, "
                "\"tasks_drained\": %llu, \"groups_cancelled\": %llu}",
                static_cast<unsigned long long>(s.frameRetries),
                static_cast<unsigned long long>(s.framesFailed),
                static_cast<unsigned long long>(s.framesSkipped),
                static_cast<unsigned long long>(s.quarantinedSessions),
                static_cast<unsigned long long>(s.shedAdmissions),
                static_cast<unsigned long long>(s.deadlineMisses),
                static_cast<unsigned long long>(c.tasksDrained),
                static_cast<unsigned long long>(c.groupsCancelled));
}

void
printLatencies(const std::vector<double> &lat)
{
    std::printf("\"latency_p50_ms\": %.3f, \"latency_p95_ms\": %.3f, "
                "\"latency_p99_ms\": %.3f",
                percentileMs(lat, 0.50), percentileMs(lat, 0.95),
                percentileMs(lat, 0.99));
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;

    const int res = quick ? 48 : 64;
    const int frames = quick ? 3 : 6;
    const int window = 2;
    const std::vector<int> sessionCounts =
        quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
    const int maxSessions =
        *std::max_element(sessionCounts.begin(), sessionCounts.end());

    ModelKey key;
    key.scene = "lego";
    key.kind = ModelKind::DirectVoxGO;
    key.preset = ModelPreset::Fast;

    banner("serve", "multi-session render service");

    const Scene scene = makeScene(key.scene);

    // Every uniform-mix client i gets a stable orbit (startDeg a
    // function of i only), so the solo references computed once for
    // the largest session count serve every leg.
    auto clientOrbit = [&](int i, int numFrames) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = static_cast<float>(i) * (360.0f / 17.0f);
        return orbitTrajectory(orbit, numFrames);
    };

    std::vector<ClientSpec> uniform(maxSessions);
    for (int i = 0; i < maxSessions; ++i)
        uniform[i] = ClientSpec{clientOrbit(i, frames), res, res};

    // Heavy-tailed mix: one elephant (4x the frames, hand-jittered
    // path) among mice.
    const int mice = quick ? 3 : 6;
    std::vector<ClientSpec> heavy(1 + mice);
    {
        heavy[0] = ClientSpec{clientOrbit(100, 4 * frames), res, res};
        JitterParams jitter;
        jitter.posSigma = 0.01f;
        jitter.rotSigmaDeg = 0.5f;
        applyJitter(heavy[0].trajectory, jitter);
        for (int i = 0; i < mice; ++i)
            heavy[1 + i] =
                ClientSpec{clientOrbit(200 + i, frames), res, res};
    }

    // ---- solo references (and context throughput) -------------------
    // One shared cache builds each model variant once; references use
    // the full-pool parallel render (the library-call baseline a
    // single client owning the machine would get).
    SharedModelCache refCache;
    auto soloRender = [&](const ModelKey &k,
                          const std::vector<ClientSpec> &clients,
                          double *wallS) {
        SharedModelCache::Lease lease = refCache.acquire(k);
        std::vector<std::vector<Image>> out(clients.size());
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < clients.size(); ++i)
            for (const Pose &pose : clients[i].trajectory) {
                Camera cam =
                    Camera::fromFov(clients[i].width, clients[i].height,
                                    scene.fovYDeg, pose);
                out[i].push_back(lease.model().render(cam).image);
            }
        if (wallS)
            *wallS = seconds(Clock::now() - t0);
        return out;
    };

    double soloWallS = 0.0;
    const std::vector<std::vector<Image>> soloUniform =
        soloRender(key, uniform, &soloWallS);
    std::uint64_t soloRays = 0;
    for (const auto &c : soloUniform)
        soloRays += static_cast<std::uint64_t>(c.size()) * res * res;

    const std::vector<std::vector<Image>> soloHeavy =
        soloRender(key, heavy, nullptr);

    ModelKey fp16Key = key;
    fp16Key.fp16 = true;
    const int fp16Sessions = std::min(8, maxSessions);
    std::vector<ClientSpec> fp16Clients(uniform.begin(),
                                        uniform.begin() + fp16Sessions);
    const std::vector<std::vector<Image>> soloFp16 =
        soloRender(fp16Key, fp16Clients, nullptr);

    // Low-session gate clients run 4x the frames: one or two sessions
    // of `frames` frames finish in ~10 ms, too short to time against
    // this host's millisecond-scale stalls.
    std::vector<ClientSpec> low(2);
    for (int i = 0; i < 2; ++i)
        low[i] = ClientSpec{clientOrbit(i, 4 * frames), res, res};
    const std::vector<std::vector<Image>> soloLow =
        soloRender(key, low, nullptr);

    // ---- serving legs ----------------------------------------------
    // Each leg, and each gate's pair of legs, gets its own servers, so
    // at most two models are resident at once.
    auto first = [](const auto &v, std::size_t n) {
        return std::decay_t<decltype(v)>(v.begin(), v.begin() + n);
    };
    const int gateSessions = std::min(8, maxSessions);
    const std::vector<ClientSpec> gateClients = first(uniform, gateSessions);
    const std::vector<std::vector<Image>> soloGate =
        first(soloUniform, gateSessions);
    auto freshLeg = [&](const ModelKey &k,
                        const std::vector<ClientSpec> &clients,
                        const std::vector<std::vector<Image>> &solo,
                        const std::vector<int> *admitWave = nullptr) {
        Server srv(k, 0, legCapacity(clients.size()));
        return runLeg(srv, clients, solo, window, admitWave);
    };

    std::vector<LegResult> uniformLegs;
    for (int s : sessionCounts)
        uniformLegs.push_back(
            freshLeg(key, first(uniform, s), first(soloUniform, s)));

    const LegResult fp16Leg = freshLeg(fp16Key, fp16Clients, soloFp16);

    std::vector<int> waves(gateClients.size(), 0);
    for (std::size_t i = waves.size() / 2; i < waves.size(); ++i)
        waves[i] = 1;
    const LegResult bursty = freshLeg(key, gateClients, soloGate, &waves);

    const LegResult heavyLeg = freshLeg(key, heavy, soloHeavy);

    // ---- gates ------------------------------------------------------
    // The serial baseline admits one session at a time with window 1
    // and one block per frame.
    LegResult serial;
    PairedGain aggregate, fanout2;
    {
        Server serialSrv(key, kOneBlockPerFrame,
                         unshedCapacity(gateSessions));
        auto serialLeg = [&](const std::vector<ClientSpec> &clients,
                             const std::vector<std::vector<Image>> &solo) {
            return runLeg(serialSrv, clients, solo, /*window=*/1, nullptr,
                          /*serializeClients=*/true);
        };
        serial = serialLeg(gateClients, soloGate);
        {
            Server srv(key, 0, unshedCapacity(gateClients.size()));
            aggregate = interleaved(
                [&] { return serialLeg(gateClients, soloGate); },
                [&] { return runLeg(srv, gateClients, soloGate, window); });
        }
        Server srv(key, 0, unshedCapacity(low.size()));
        fanout2 = interleaved(
            [&] { return serialLeg(low, soloLow); },
            [&] { return runLeg(srv, low, soloLow, window); });
    }
    const std::vector<int> lowCounts{1, 2};
    std::vector<PairedGain> onVsOff;
    for (int s : lowCounts) {
        const std::vector<ClientSpec> clients = first(low, s);
        const std::vector<std::vector<Image>> solo = first(soloLow, s);
        Server off(key, kOneBlockPerFrame, unshedCapacity(clients.size()));
        Server on(key, 0, unshedCapacity(clients.size()));
        onVsOff.push_back(interleaved(
            [&] { return runLeg(off, clients, solo, window); },
            [&] { return runLeg(on, clients, solo, window); }));
    }

    // ---- verdicts ---------------------------------------------------
    bool allIdentical = serial.bitIdentical && fp16Leg.bitIdentical &&
                        bursty.bitIdentical && heavyLeg.bitIdentical &&
                        aggregate.bitIdentical && fanout2.bitIdentical;
    for (const LegResult &leg : uniformLegs)
        allIdentical = allIdentical && leg.bitIdentical;
    for (const PairedGain &g : onVsOff)
        allIdentical = allIdentical && g.bitIdentical;

    // The gain gates assert a property of parallel hardware: with a
    // single physical core, extra software threads only time-slice it
    // and concurrent sessions cannot beat the serial baseline, so they
    // arm only when both the pool and the machine are >= 2 wide.
    const int threads = parallelThreadCount();
    const unsigned hwCores = std::thread::hardware_concurrency();
    const bool gateActive = threads >= 2 && hwCores >= 2;
    // A gate measured on a shed (half-resolution) session compares
    // unequal work, so any shedding fails it whether or not it is armed.
    const bool gainOk = aggregate.shedAdmissions == 0 &&
                        (!gateActive || aggregate.median() >= 1.5);
    const bool fanout2Ok = fanout2.shedAdmissions == 0 &&
                           (!gateActive || fanout2.median() >= 1.2);
    std::vector<bool> onVsOffArmed, onVsOffOk;
    for (std::size_t i = 0; i < lowCounts.size(); ++i) {
        onVsOffArmed.push_back(gateActive &&
                               threads > lowCounts[i] * window);
        onVsOffOk.push_back(onVsOff[i].shedAdmissions == 0 &&
                            (!onVsOffArmed[i] || onVsOff[i].median() > 1.0));
    }
    const bool fanoutOk =
        fanout2Ok && std::all_of(onVsOffOk.begin(), onVsOffOk.end(),
                                 [](bool ok) { return ok; });

    // ---- JSON -------------------------------------------------------
    std::printf("{\"bench\": \"serve\", \"scheduler\": \"%s\", "
                "\"threads\": %d, \"quick\": %s, "
                "\"scene\": \"%s\", \"model\": \"%s\", "
                "\"resolution\": %d, \"frames\": %d, \"window\": %d, "
                "\"solo_parallel_rays_per_s\": %.1f, ",
                parallelSchedulerName(), threads,
                quick ? "true" : "false", key.scene.c_str(),
                modelName(key.kind), res, frames, window,
                soloWallS > 0.0 ? soloRays / soloWallS : 0.0);

    std::printf("\"serial\": {\"sessions\": %d, "
                "\"wall_s\": %.6f, \"rays_per_s\": %.1f, ",
                gateSessions, serial.wallS, serial.raysPerS());
    printLatencies(serial.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                serial.bitIdentical ? "true" : "false");

    std::printf("\"uniform\": [");
    for (std::size_t i = 0; i < uniformLegs.size(); ++i) {
        const LegResult &leg = uniformLegs[i];
        std::printf("%s{\"sessions\": %d, \"wall_s\": %.6f, "
                    "\"rays_per_s\": %.1f, ",
                    i ? ", " : "", sessionCounts[i], leg.wallS,
                    leg.raysPerS());
        printLatencies(leg.allLatencies());
        std::printf(", \"bit_identical\": %s, ",
                    leg.bitIdentical ? "true" : "false");
        printSched(leg.sched);
        std::printf(", ");
        printRobust(leg.service, leg.sched);
        std::printf("}");
    }
    std::printf("], ");

    std::printf("\"fp16\": {\"sessions\": %d, \"wall_s\": %.6f, "
                "\"rays_per_s\": %.1f, ",
                fp16Sessions, fp16Leg.wallS, fp16Leg.raysPerS());
    printLatencies(fp16Leg.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                fp16Leg.bitIdentical ? "true" : "false");

    std::printf("\"bursty\": {\"sessions\": %d, \"waves\": 2, "
                "\"wall_s\": %.6f, \"rays_per_s\": %.1f, ",
                gateSessions, bursty.wallS, bursty.raysPerS());
    printLatencies(bursty.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                bursty.bitIdentical ? "true" : "false");

    std::printf("\"heavy_tailed\": {\"sessions\": %d, "
                "\"elephant_frames\": %d, \"wall_s\": %.6f, "
                "\"rays_per_s\": %.1f, "
                "\"elephant_p95_ms\": %.3f, \"mice_p95_ms\": %.3f, ",
                1 + mice, 4 * frames, heavyLeg.wallS,
                heavyLeg.raysPerS(),
                percentileMs(heavyLeg.latencyS[0], 0.95), [&] {
                    std::vector<double> miceLat;
                    for (std::size_t i = 1; i < heavyLeg.latencyS.size();
                         ++i)
                        miceLat.insert(miceLat.end(),
                                       heavyLeg.latencyS[i].begin(),
                                       heavyLeg.latencyS[i].end());
                    return percentileMs(miceLat, 0.95);
                }());
    printLatencies(heavyLeg.allLatencies());
    std::printf(", \"bit_identical\": %s}, ",
                heavyLeg.bitIdentical ? "true" : "false");

    std::printf("\"gates\": {");
    printGain("aggregate_8_sessions", aggregate, 1.5, gateActive, gainOk);
    std::printf(", ");
    printGain("fanout_2_sessions", fanout2, 1.2, gateActive, fanout2Ok);
    for (std::size_t i = 0; i < lowCounts.size(); ++i) {
        const std::string name =
            "fanout_on_vs_off_" + std::to_string(lowCounts[i]);
        std::printf(", ");
        printGain(name.c_str(), onVsOff[i], 1.0, onVsOffArmed[i],
                  onVsOffOk[i]);
    }
    std::printf("}, ");

    std::printf("\"aggregate_gain_8_sessions\": %.3f, "
                "\"gain_gate_active\": %s, "
                "\"gain_gate_pass\": %s, "
                "\"fanout_gain_2_sessions\": %.3f, "
                "\"fanout_gate_active\": %s, "
                "\"fanout_gate_pass\": %s, "
                "\"all_bit_identical\": %s}\n",
                aggregate.median(), gateActive ? "true" : "false",
                gainOk ? "true" : "false", fanout2.median(),
                gateActive ? "true" : "false",
                fanoutOk ? "true" : "false",
                allIdentical ? "true" : "false");

    return allIdentical && gainOk && fanoutOk ? 0 : 1;
}

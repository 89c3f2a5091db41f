/**
 * @file
 * cicero_serve — demo CLI for the multi-session render service.
 *
 * Spins up an in-process RenderService, admits N synthetic client
 * sessions (orbit trajectories with per-client phase; optionally
 * bursty or heavy-tailed mixes), waits for all of them, and prints a
 * per-session latency/throughput table plus the service, cache and
 * robustness counters. This is the operational smoke tool — the measured
 * bench with bit-identity gates is bench/bench_serve.
 *
 * Usage:
 *   cicero_serve [--sessions N] [--frames N] [--res N] [--scene NAME]
 *                [--model ngp|dvgo|tensorf|enerf] [--preset fast|full]
 *                [--window N] [--mix uniform|bursty|heavy]
 *                [--fp16] [--threads N] [--faults SPEC]
 *
 * Exit codes: 0 success, 2 usage error, 3 I/O error, 4 parse error,
 * 5 other runtime failure (including injected faults that exhaust the
 * service's retry/quarantine budget).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "scene/trajectory.hh"
#include "serve/render_service.hh"

using namespace cicero;

namespace {

const char *
optValue(int argc, char **argv, const char *name)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return nullptr;
}

const char *
optValueOr(int argc, char **argv, const char *name, const char *fallback)
{
    const char *v = optValue(argc, argv, name);
    return v ? v : fallback;
}

bool
optFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

bool
optUint(int argc, char **argv, const char *name, std::uint32_t fallback,
        std::uint32_t minV, std::uint32_t maxV, std::uint32_t &out)
{
    const char *v = optValue(argc, argv, name);
    if (!v) {
        out = fallback;
        return true;
    }
    char *end = nullptr;
    errno = 0;
    unsigned long parsed = std::strtoul(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE || parsed < minV ||
        parsed > maxV) {
        std::fprintf(stderr,
                     "%s: want an integer in [%u, %u], got \"%s\"\n",
                     name, minV, maxV, v);
        return false;
    }
    out = static_cast<std::uint32_t>(parsed);
    return true;
}

bool
parseModelKind(const std::string &name, ModelKind &kind)
{
    std::string s;
    for (char c : name)
        if (c != '-' && c != '_')
            s += static_cast<char>(std::tolower(c));
    if (s == "ngp" || s == "instantngp")
        kind = ModelKind::InstantNgp;
    else if (s == "dvgo" || s == "directvoxgo")
        kind = ModelKind::DirectVoxGO;
    else if (s == "tensorf")
        kind = ModelKind::TensoRF;
    else if (s == "enerf" || s == "efficientnerf")
        kind = ModelKind::EfficientNeRF;
    else
        return false;
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cicero_serve [--sessions N] [--frames N] [--res N]\n"
        "                    [--scene NAME] [--model KIND]\n"
        "                    [--preset fast|full] [--window N]\n"
        "                    [--mix uniform|bursty|heavy] [--fp16]\n"
        "                    [--threads N] [--faults SPEC]\n"
        "\n"
        "exit codes: 0 ok, 2 usage, 3 I/O error, 4 parse error,\n"
        "            5 other failure\n");
    return 2;
}

/** --threads N, validated like CICERO_THREADS; invalid warns + default. */
void
applyThreadsOption(int argc, char **argv)
{
    const char *v = optValue(argc, argv, "--threads");
    if (!v)
        return;
    int n = parallelParseThreadSpec(v);
    if (n == 0) {
        std::fprintf(stderr,
                     "cicero_serve: ignoring invalid --threads=\"%s\" "
                     "(want an integer in [1, %d]); falling back to "
                     "the automatic default\n",
                     v, kMaxParallelThreads);
        setParallelThreadCount(0);
        return;
    }
    setParallelThreadCount(n);
}

double
percentileMs(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return 1e3 * (v[lo] * (1.0 - frac) + v[hi] * frac);
}

/** --faults SPEC: a malformed CLI spec is a usage error. */
bool
applyFaultsOption(int argc, char **argv)
{
    const char *v = optValue(argc, argv, "--faults");
    if (!v)
        return true;
    try {
        faultArmSpec(v);
    } catch (const FaultSpecError &e) {
        std::fprintf(stderr, "cicero_serve: --faults: %s\n", e.what());
        return false;
    }
    return true;
}

int
run(int argc, char **argv)
{
    applyThreadsOption(argc, argv);
    if (!applyFaultsOption(argc, argv))
        return usage();
    std::uint32_t sessions, frames, res, window;
    if (!optUint(argc, argv, "--sessions", 4, 1, 1024, sessions) ||
        !optUint(argc, argv, "--frames", 8, 1, 100000, frames) ||
        !optUint(argc, argv, "--res", 64, 1, 4096, res) ||
        !optUint(argc, argv, "--window", 2, 1, 1024, window))
        return usage();

    ModelKind kind = ModelKind::DirectVoxGO;
    if (!parseModelKind(optValueOr(argc, argv, "--model", "dvgo"),
                        kind)) {
        std::fprintf(stderr, "unknown --model\n");
        return usage();
    }
    const std::string sceneName = optValueOr(argc, argv, "--scene", "lego");
    const std::string presetStr =
        optValueOr(argc, argv, "--preset", "fast");
    const std::string mix = optValueOr(argc, argv, "--mix", "uniform");
    if (mix != "uniform" && mix != "bursty" && mix != "heavy") {
        std::fprintf(stderr, "unknown --mix\n");
        return usage();
    }

    ModelKey key;
    key.scene = sceneName;
    key.kind = kind;
    key.preset =
        presetStr == "full" ? ModelPreset::Full : ModelPreset::Fast;
    key.fp16 = optFlag(argc, argv, "--fp16");

    RenderServiceConfig cfg;
    cfg.maxSessions = static_cast<int>(sessions) + 1;
    cfg.defaultInflightWindow = static_cast<int>(window);
    RenderService svc(cfg);

    const Scene scene = makeScene(sceneName);
    auto makeClient = [&](int i, int numFrames) {
        OrbitParams orbit;
        orbit.radius = scene.cameraDistance;
        orbit.startDeg = static_cast<float>(i) * (360.0f / 17.0f);
        ServeSessionConfig sc;
        sc.model = key;
        sc.width = static_cast<int>(res);
        sc.height = static_cast<int>(res);
        sc.trajectory = orbitTrajectory(orbit, numFrames);
        if (mix == "heavy" && i == 0) {
            JitterParams jitter;
            jitter.posSigma = 0.01f;
            jitter.rotSigmaDeg = 0.5f;
            applyJitter(sc.trajectory, jitter);
        }
        return sc;
    };

    std::printf("cicero_serve: %u session(s) x %u frame(s) @ %ux%u, "
                "%s/%s, fp16=%s, window=%u, mix=%s, threads=%d\n",
                sessions, frames, res, res, sceneName.c_str(),
                modelName(kind), key.fp16 ? "on" : "off", window,
                mix.c_str(), parallelThreadCount());

    std::vector<int> ids(sessions, -1);
    auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t firstWave =
        mix == "bursty" ? std::max(1u, sessions / 2) : sessions;
    for (std::uint32_t i = 0; i < firstWave; ++i)
        ids[i] = svc.admit(makeClient(
            static_cast<int>(i),
            static_cast<int>(mix == "heavy" && i == 0 ? 4 * frames
                                                      : frames)));
    if (firstWave < sessions) {
        for (std::uint32_t i = 0; i < firstWave; ++i)
            svc.waitFrame(ids[i], 0); // wave 2 arrives mid-flight
        for (std::uint32_t i = firstWave; i < sessions; ++i)
            ids[i] = svc.admit(
                makeClient(static_cast<int>(i), static_cast<int>(frames)));
    }

    std::uint64_t totalRays = 0;
    for (std::uint32_t i = 0; i < sessions; ++i) {
        ServeSessionResult r = svc.wait(ids[i]);
        std::vector<double> lat;
        double renderS = 0.0;
        for (const ServeFrame &f : r.frames) {
            lat.push_back(f.latencyS);
            renderS += f.renderS;
            totalRays += f.work.rays;
        }
        std::printf("  session %-3d %3zu frames  p50 %8.2f ms  "
                    "p95 %8.2f ms  render %7.3f s\n",
                    r.sessionId, r.frames.size(), percentileMs(lat, 0.5),
                    percentileMs(lat, 0.95), renderS);
    }
    const double wallS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    const ServiceCounters sc = svc.counters();
    const ModelCacheStats mc = svc.cache().stats();
    std::printf("total: %.3f s wall, %.1f rays/s aggregate\n", wallS,
                wallS > 0.0 ? totalRays / wallS : 0.0);
    std::printf("service: admitted=%llu rejected=%llu frames=%llu\n",
                static_cast<unsigned long long>(sc.admitted),
                static_cast<unsigned long long>(sc.rejected),
                static_cast<unsigned long long>(sc.framesCompleted));
    std::printf("cache:   hits=%llu misses=%llu evictions=%llu\n",
                static_cast<unsigned long long>(mc.hits),
                static_cast<unsigned long long>(mc.misses),
                static_cast<unsigned long long>(mc.evictions));
    std::printf("robust:  retries=%llu failed=%llu skipped=%llu "
                "quarantined=%llu shed=%llu deadline_miss=%llu\n",
                static_cast<unsigned long long>(sc.frameRetries),
                static_cast<unsigned long long>(sc.framesFailed),
                static_cast<unsigned long long>(sc.framesSkipped),
                static_cast<unsigned long long>(sc.quarantinedSessions),
                static_cast<unsigned long long>(sc.shedAdmissions),
                static_cast<unsigned long long>(sc.deadlineMisses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const IoError &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 3;
    } catch (const ParseError &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cicero_serve: %s\n", e.what());
        return 5;
    }
}

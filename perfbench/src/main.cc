/**
 * @file
 * The benchmark's command-line program. One run = one workload:
 *
 *   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
 *                 [--workdir DIR] [--git-sha SHA]
 *   perfbench_run --list-metrics
 *
 * With --trace 0 it prints the end-to-end metrics, all measured on
 * untraced requests. With --trace 1 it runs the
 * workload untraced for S/2 and traced for S/2 and prints the
 * per-layer metrics: span self times, counters from the library's
 * public result structs, and the tracing overhead. Spans are written
 * to DIR/spans-NAME-seedN.json at exit.
 *
 * The last stdout line is the result JSON; the line before it carries
 * run metadata and the workload-specific figures. Exit code 1 when any
 * request failed or any output check mismatched, 2 on bad usage.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.hh"
#include "harness.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0, on every workload. */
const std::vector<MetricDef> kEndToEnd{
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},
};

/**
 * Printed with --trace 1, on every workload; a layer the workload does
 * not run reads 0. A *_ms metric with a span of the same stem is that
 * span's mean self time per call.
 */
const std::vector<MetricDef> kPerLayer{
    {"nerf.render_ms", "ms"},
    {"nerf.march_ms", "ms"},
    {"nerf.gather_ms", "ms"},
    {"nerf.decode_ms", "ms"},
    {"nerf.samples_per_ray", "count"},
    {"nerf.shaded_frac", "frac"},
    {"nerf.gather_bytes_per_sample", "B"},
    {"cicero.ref_render_ms", "ms"},
    {"cicero.warp_ms", "ms"},
    {"cicero.warped_frac", "frac"},
    {"cicero.rerender_frac", "frac"},
    {"cicero.nerf_rays_per_pixel", "count"},
    {"serve.admit_ms", "ms"},
    {"serve.open_p50_ms", "ms"},
    {"serve.frames_per_s", "1/s"},
    {"serve.queue_ms", "ms"},
    {"serve.frame_render_ms", "ms"},
    {"serve.retries", "count"},
    {"serve.shed", "count"},
    {"serve.model_builds", "count"},
    {"bench.gen_lag_ms_max", "ms"},
    {"bench.backlog_end", "count"},
    {"sched.tasks_per_frame", "count"},
    {"sched.steals_per_frame", "count"},
    {"sched.idle_frac", "frac"},
    {"sched.dep_stall_ms", "ms"},
    {"sched.kernel_items_per_pass", "count"},
    {"memory.capture_ms", "ms"},
    {"memory.trace_bytes_per_access", "B"},
    {"memory.cache_stack_ms", "ms"},
    {"memory.bank_stack_ms", "ms"},
    {"memory.dram_stack_ms", "ms"},
    {"memory.cache_hit_rate", "frac"},
    {"accel.gpu_stack_ms", "ms"},
    {"accel.npu_stack_ms", "ms"},
    {"accel.gu_stack_ms", "ms"},
    {"accel.baseline_stack_ms", "ms"},
    {"dse.point_ms", "ms"},
    {"dse.sweep_ms", "ms"},
    {"bench.noise_cv", "frac"},
    {"bench.trace_overhead_frac", "frac"},
    {"failed_frac", "frac"},
    {"degraded_frac", "frac"},
    {"psnr_db", "dB"},
    {"points_per_s", "1/s"},
};

constexpr int kSetups = 5;      // setup_s is the median of these
constexpr int kNoiseSpins = 5;  // spin-loop timings before and after

double
spinOnce()
{
    double t0 = nowS();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    double t = nowS() - t0;
    // Keep the loop: its result feeds a branch the compiler cannot see.
    return x == 42 ? t + 1.0 : t;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, v, defs[i].unit);
        out += buf;
    }
    return out + "}";
}

/** The workloads, in BENCHMARK.json order. */
const std::vector<std::pair<std::string,
                            std::unique_ptr<Workload> (*)(const Options &)>>
    kWorkloads{
        {"sparw_dvgo", makeSparwDvgo},
        {"dse_dvgo", makeDseDvgo},
    };

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_run: %s\nusage: perfbench_run --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--workdir DIR] "
                 "[--git-sha SHA]\n       perfbench_run --list-metrics\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const auto *defs : {&kEndToEnd, &kPerLayer})
        for (const MetricDef &m : *defs)
            if (!validMetricName(m.name))
                return usage(("bad metric name " +
                              std::string(m.name)).c_str());

    Options o;
    std::string gitSha = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list-metrics") {
            for (const MetricDef &m : kEndToEnd)
                std::printf("end_to_end %s %s\n", m.name, m.unit);
            for (const MetricDef &m : kPerLayer)
                std::printf("per_layer %s %s\n", m.name, m.unit);
            for (const auto &w : kWorkloads)
                std::printf("workload %s\n", w.first.c_str());
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
                haveSeconds = o.seconds > 0;
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                o.trace = v == "1";
                haveTrace = true;
            } else if (a == "--workdir") {
                o.workDir = v;
            } else if (a == "--git-sha") {
                gitSha = v;
            } else {
                return usage(("unknown argument " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    std::unique_ptr<Workload> w;
    for (const auto &[name, make] : kWorkloads)
        if (name == o.workload)
            w = make(o);
    if (!w)
        return usage(("unknown workload " + o.workload).c_str());

    std::vector<double> spins;
    for (int i = 0; i < kNoiseSpins; ++i)
        spins.push_back(spinOnce());

    std::vector<double> setupS;
    SpanRecorder rec;
    Pass untraced, traced;
    try {
        for (int i = 0; i < kSetups; ++i) {
            double t0 = nowS();
            w->setup();
            setupS.push_back(nowS() - t0);
        }
        w->prepareChecks();
        untraced = w->run(o.trace ? o.seconds / 2 : o.seconds, nullptr);
        if (o.trace)
            traced = w->run(o.seconds / 2, &rec);
    } catch (const std::exception &e) {
        // Set-up or reference failure: no request ran, so no result.
        std::fprintf(stderr, "perfbench_run: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }

    for (int i = 0; i < kNoiseSpins; ++i)
        spins.push_back(spinOnce());

    const std::uint64_t attempted = untraced.attempted + traced.attempted;
    const std::uint64_t failed = untraced.failed + traced.failed;
    const std::uint64_t degraded = untraced.degraded + traced.degraded;
    const double failedFrac =
        attempted ? static_cast<double>(failed) / attempted : 1.0;
    const double degradedFrac =
        attempted ? static_cast<double>(degraded) / attempted : 0.0;
    const double fps =
        untraced.wallS > 0 ? untraced.frames / untraced.wallS : 0.0;
    const Tail tail = windowedTail(untraced.latenciesMs);

    std::map<std::string, double> values;
    if (!o.trace) {
        values["setup_s"] = median(setupS);
        values["frames_per_s"] = fps;
        values["latency_ms_p50"] = median(untraced.latenciesMs);
        values["latency_ms_tail"] = tail.value;
        values["peak_rss_mb"] = peakRssMb();
    } else {
        values = traced.layer;
        // Scheduler counters come from the untraced half: the serial
        // replays of the traced half leave the pool idle.
        for (const auto &[k, v] : untraced.layer)
            if (k.rfind("sched.", 0) == 0)
                values[k] = v;
        for (const auto &[name, t] : selfTimes(rec.spans()))
            if (t.count)
                values[name + "_ms"] = t.selfS * 1e3 / t.count;
        double u = median(untraced.latenciesMs);
        values["bench.trace_overhead_frac"] =
            u > 0 ? median(traced.latenciesMs) / u - 1.0 : 0.0;
        values["bench.noise_cv"] = coefficientOfVariation(spins);
        values["failed_frac"] = failedFrac;
        values["degraded_frac"] = degradedFrac;
        values["psnr_db"] = w->psnrDb();
        values["points_per_s"] = fps * w->pointsPerRequest();
        std::string path = o.workDir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
        if (!rec.writeChromeJson(path))
            std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                         path.c_str());
    }

    // The traced run's untraced half is too short to owe a tail.
    const bool correct =
        failed == 0 && attempted > 0 && (o.trace || tail.valid);
    std::printf(
        "{\"info\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"git_sha\": %s, \"cpu\": %s, \"nproc\": %u, "
        "\"pool_threads\": %d, \"simd\": %s, \"requests\": %zu, "
        "\"tail_percentile\": %.2f, \"tail_samples\": %zu, "
        "\"failed_frac\": %.6g, \"degraded_frac\": %.6g, "
        "\"psnr_db\": %.6g, \"points_per_s\": %.6g, "
        "\"noise_cv\": %.6g}}\n",
        jsonString(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed), o.seconds,
        o.trace ? 1 : 0, jsonString(gitSha).c_str(),
        jsonString(cpuModel()).c_str(),
        std::thread::hardware_concurrency(),
        cicero::parallelThreadCount(),
        jsonString(cicero::simd::backendName(
                       cicero::simd::activeBackend()))
            .c_str(),
        untraced.latenciesMs.size(), tail.percentile, tail.samples,
        failedFrac, degradedFrac, w->psnrDb(),
        fps * w->pointsPerRequest(), coefficientOfVariation(spins));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(o.trace ? kPerLayer : kEndToEnd, values)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/**
 * @file
 * `cicero_trace` — trace-file workbench for the capture-once /
 * replay-many workflow:
 *
 *   cicero_trace capture --scene lego --model dvgo --res 64 -o t.ctrace
 *       Render (workload-trace) a scene frame and persist the gather
 *       access stream as a compressed .ctrace file.
 *
 *   cicero_trace replay t.ctrace --stack cache
 *       Stream a persisted trace through a memory-model stack (cache,
 *       bank or dram) and print its stats JSON. Replaying a capture
 *       reproduces the live-render statistics bit-identically.
 *
 *   cicero_trace capture-set -o DIR --scenes lego,chair --models dvgo
 *       Capture a corpus: one trace per scene x model x frame, plus a
 *       corpus.json manifest the DSE driver consumes.
 *
 *   cicero_trace stats t.ctrace
 *       Ray/access counts, per-event-type payload breakdown, address
 *       histogram, compression ratio.
 *
 *   cicero_trace diff a.ctrace b.ctrace
 *       Event-level comparison of two traces; exit 1 on mismatch.
 *
 *   cicero_trace recover damaged.ctrace -o salvaged.ctrace
 *       Salvage the longest checksum-valid event prefix of a truncated
 *       or corrupted trace and (optionally) rewrite it as a clean
 *       container.
 *
 * All commands accept --threads N (validated like CICERO_THREADS) and
 * --faults SPEC (arm fault-injection sites; same grammar as
 * CICERO_FAULTS).
 *
 * Exit codes: 0 success, 1 comparison mismatch / check failure,
 * 2 usage error, 3 I/O error, 4 parse error (malformed trace or
 * manifest), 5 other runtime failure (including injected faults).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/errors.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "dse/accel_replay.hh"
#include "dse/corpus.hh"
#include "memory/replay.hh"
#include "memory/tracefile.hh"
#include "nerf/models.hh"
#include "scene/trajectory.hh"

using namespace cicero;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cicero_trace <command> [options]\n"
        "\n"
        "commands:\n"
        "  capture -o FILE [--scene NAME] [--model ngp|dvgo|tensorf|enerf]\n"
        "          [--res N] [--frame K] [--preset fast|full]\n"
        "          [--layout linear|mvoxel] [--codec rans|varint]\n"
        "          [--mode workload|render] [--fp16]\n"
        "      render one frame and persist its gather access stream;\n"
        "      --fp16 quantizes feature storage first, so the trace's\n"
        "      2 B/channel featureBytes accounting matches the run\n"
        "  capture-set -o DIR [--scenes A,B] [--models A,B] [--res N]\n"
        "          [--frames K] [--preset fast|full] [--layout ...]\n"
        "          [--codec ...] [--mode workload|render] [--fp16]\n"
        "      capture one trace per scene x model x frame into DIR and\n"
        "      write a corpus.json manifest (DSE corpus input)\n"
        "  replay FILE [--stack cache|bank|dram|gpu|npu|gu|accels]\n"
        "          [--ways N] [--capacity-mb N] [--banks N] [--rays N]\n"
        "          [--sram-layout feature|channel] [--salvage]\n"
        "      run a persisted trace through a memory-model or\n"
        "      accelerator stack, print stats JSON\n"
        "  stats FILE [--salvage]\n"
        "      counts, event breakdown, address histogram, ratio\n"
        "  diff FILE_A FILE_B\n"
        "      compare two traces event by event; exit 1 if they differ\n"
        "  recover FILE [-o OUT]\n"
        "      salvage the longest checksum-valid event prefix of a\n"
        "      damaged trace; with -o, rewrite it as a clean container\n"
        "\n"
        "global: --threads N    set worker count (like CICERO_THREADS)\n"
        "        --faults SPEC  arm fault injection (CICERO_FAULTS "
        "grammar)\n"
        "\n"
        "exit codes: 0 ok, 1 mismatch, 2 usage, 3 I/O error,\n"
        "            4 parse error, 5 other failure\n");
    return 2;
}

/** Value of option --name in argv, or nullptr. */
const char *
optValue(int argc, char **argv, const char *name)
{
    for (int i = 2; i + 1 < argc; ++i)
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

/** True when valueless flag --name appears in argv. */
bool
optFlag(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

/**
 * Strict numeric option: absent -> @p fallback; present -> must parse
 * as a decimal integer in [@p minV, @p maxV] (atoi-style silent
 * garbage = 0 is exactly the failure mode the memory-model configs
 * cannot tolerate: 0 banks is a division by zero, 0 rays a livelock).
 */
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

/**
 * Strict enumerated option: absent -> @p choices[0]; present -> must
 * be one of @p choices, else prints the valid values and fails (a
 * typo must not silently select the default).
 */
bool
optChoice(int argc, char **argv, const char *name,
          const std::vector<std::string> &choices, std::string &out)
{
    const char *v = optValue(argc, argv, name);
    if (!v) {
        out = choices.front();
        return true;
    }
    if (std::find(choices.begin(), choices.end(), v) != choices.end()) {
        out = v;
        return true;
    }
    std::string valid;
    for (const std::string &c : choices)
        valid += (valid.empty() ? "" : "|") + c;
    std::fprintf(stderr, "%s: want one of %s, got \"%s\"\n", name,
                 valid.c_str(), v);
    return false;
}

/** Options that take no value (everything else is --name VALUE). */
bool
optIsValueless(const char *name)
{
    return std::strcmp(name, "--fp16") == 0 ||
           std::strcmp(name, "--salvage") == 0;
}

/** First non-option argument after the command, or nullptr. */
const char *
positional(int argc, char **argv, int index)
{
    int seen = 0;
    for (int i = 2; i < argc; ++i) {
        if (argv[i][0] == '-') {
            if (!optIsValueless(argv[i]))
                ++i; // skip the option's value
            continue;
        }
        if (seen++ == index)
            return argv[i];
    }
    return nullptr;
}

/**
 * Apply --threads N: validated with the CICERO_THREADS parser; an
 * invalid spec warns and falls back to the automatic default instead
 * of silently running with a garbage count.
 */
void
applyThreadsOption(int argc, char **argv)
{
    const char *v = optValue(argc, argv, "--threads");
    if (!v)
        return;
    int n = parallelParseThreadSpec(v);
    if (n == 0) {
        std::fprintf(stderr,
                     "cicero_trace: ignoring invalid --threads=\"%s\" "
                     "(want an integer in [1, %d]); falling back to "
                     "the automatic default\n",
                     v, kMaxParallelThreads);
        setParallelThreadCount(0);
        return;
    }
    setParallelThreadCount(n);
}

/**
 * Apply --faults SPEC. Unlike the CICERO_FAULTS env (operator typo →
 * warn and ignore), an explicit CLI spec that fails to parse is a
 * usage error.
 */
bool
applyFaultsOption(int argc, char **argv)
{
    const char *v = optValue(argc, argv, "--faults");
    if (!v)
        return true;
    try {
        faultArmSpec(v);
    } catch (const FaultSpecError &e) {
        std::fprintf(stderr, "cicero_trace: --faults: %s\n", e.what());
        return false;
    }
    return true;
}

/** Read mode for commands accepting --salvage. */
TraceReadMode
readMode(int argc, char **argv)
{
    return optFlag(argc, argv, "--salvage") ? TraceReadMode::Salvage
                                            : TraceReadMode::Strict;
}

/** Report what a salvage-mode read had to recover (stderr). */
void
reportRecovery(const char *file, const TraceFileReader &reader)
{
    const TraceRecoveryInfo &r = reader.recovery();
    if (!r.salvaged)
        return;
    std::fprintf(stderr,
                 "cicero_trace: %s was damaged; salvaged %llu events "
                 "(%llu checkpoint(s) verified, %llu payload bytes "
                 "dropped)\n",
                 file, static_cast<unsigned long long>(r.keptEvents),
                 static_cast<unsigned long long>(r.checkpointsVerified),
                 static_cast<unsigned long long>(r.droppedPayloadBytes));
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

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
metaJson(const TraceFileReader &reader)
{
    const TraceFileMeta &m = reader.meta();
    const TraceFileCounts &c = reader.counts();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "\"codec\": \"%s\", "
                  "\"width\": %u, \"height\": %u, \"threads\": %u, "
                  "\"feature_bytes\": %u, \"storage\": \"%s\", "
                  "\"storage_consistent\": %s, \"accesses\": %llu, "
                  "\"ray_ends\": %llu, \"flushes\": %llu",
                  traceCodecName(reader.codec()), m.width, m.height,
                  m.threads, m.featureBytes,
                  traceStorageModeName(m.storageMode),
                  traceMetaStorageConsistent(m) ? "true" : "false",
                  static_cast<unsigned long long>(c.accesses),
                  static_cast<unsigned long long>(c.rayEnds),
                  static_cast<unsigned long long>(c.flushes));
    return "{\"scene\": \"" + jsonEscape(m.scene) + "\", \"encoding\": \"" +
           jsonEscape(m.encoding) + "\", \"model\": \"" +
           jsonEscape(m.model) + "\", " + buf + "}";
}

// ---------------------------------------------------------------------
// capture
// ---------------------------------------------------------------------

/** One capture's parameters, shared by capture and capture-set. */
struct CaptureSpec
{
    ModelKind kind = ModelKind::DirectVoxGO;
    std::string sceneName = "lego";
    std::uint32_t res = 64;
    std::uint32_t frame = 0;
    ModelBuildOptions opts;
    TraceCodec codec = TraceCodec::Rans;
    bool fp16 = false;
    bool renderMode = false; //!< full render instead of workload trace
};

/**
 * Capture one trace to @p outPath: builds the model, renders the frame
 * into a TraceFileWriter, and embeds the workload summary (StageWork +
 * streaming footprint + vertex size) that replay-driven accelerator
 * runs read back.
 */
void
captureOne(const CaptureSpec &spec, const NerfModel &model,
           const Scene &scene, const std::string &outPath)
{
    OrbitParams orbit;
    orbit.radius = scene.cameraDistance;
    std::vector<Pose> traj = orbitTrajectory(orbit, spec.frame + 1);
    Camera cam = Camera::fromFov(spec.res, spec.res, scene.fovYDeg,
                                 traj[spec.frame]);

    TraceFileMeta meta;
    meta.scene = scene.name;
    meta.encoding = model.encoding().name();
    meta.model = modelName(spec.kind);
    meta.width = spec.res;
    meta.height = spec.res;
    meta.threads = static_cast<std::uint32_t>(parallelThreadCount());
    meta.featureBytes = static_cast<std::uint32_t>(
        model.encoding().featureDim() * kBytesPerChannel);
    meta.storageMode = model.encoding().featuresFp16()
                           ? TraceStorageMode::Fp16
                           : TraceStorageMode::Fp32;

    TraceFileWriter writer(outPath, meta, spec.codec);
    TraceWorkloadDescriptor desc;
    if (spec.renderMode) {
        RenderResult result = model.render(cam, &writer);
        desc.work = result.work;
    } else {
        desc.work = model.traceWorkload(cam, &writer);
    }
    desc.plan = model.encoding().streamingFootprint(
        model.collectSamplePositions(cam));
    desc.vertexBytes = meta.featureBytes;
    writer.setWorkloadSummary(toSummary(desc));
    writer.close();

    double ratio =
        writer.counts().rawStreamBytes()
            ? static_cast<double>(writer.fileBytes()) /
                  writer.counts().rawStreamBytes()
            : 0.0;
    std::printf("captured %s: %llu accesses, %llu rays, %llu bytes "
                "(%.1f%% of raw %llu-byte stream)\n",
                outPath.c_str(),
                static_cast<unsigned long long>(writer.counts().accesses),
                static_cast<unsigned long long>(writer.counts().rayEnds),
                static_cast<unsigned long long>(writer.fileBytes()),
                100.0 * ratio,
                static_cast<unsigned long long>(
                    writer.counts().rawStreamBytes()));
}

/** Parse shared capture options into @p spec. */
bool
parseCaptureOpts(int argc, char **argv, CaptureSpec &spec)
{
    if (!optUint(argc, argv, "--res", 64, 1, 4096, spec.res) ||
        !optUint(argc, argv, "--frame", 0, 0, 100000, spec.frame))
        return false;
    std::string presetStr, layoutStr, codecStr, mode;
    if (!optChoice(argc, argv, "--preset", {"fast", "full"}, presetStr) ||
        !optChoice(argc, argv, "--layout", {"linear", "mvoxel"},
                   layoutStr) ||
        !optChoice(argc, argv, "--codec", {"rans", "varint"}, codecStr) ||
        !optChoice(argc, argv, "--mode", {"workload", "render"}, mode))
        return false;
    spec.opts.preset =
        presetStr == "full" ? ModelPreset::Full : ModelPreset::Fast;
    spec.opts.gridLayout = layoutStr == "mvoxel"
                               ? GridLayout::MVoxelBlocked
                               : GridLayout::Linear;
    spec.codec =
        codecStr == "varint" ? TraceCodec::Varint : TraceCodec::Rans;
    spec.fp16 = optFlag(argc, argv, "--fp16");
    spec.renderMode = mode == "render";
    return true;
}

int
cmdCapture(int argc, char **argv)
{
    const char *out = optValue(argc, argv, "-o");
    if (!out)
        out = optValue(argc, argv, "--out");
    if (!out) {
        std::fprintf(stderr, "capture: missing -o FILE\n");
        return usage();
    }

    CaptureSpec spec;
    if (!parseModelKind(optValueOr(argc, argv, "--model", "dvgo"),
                        spec.kind)) {
        std::fprintf(stderr, "capture: unknown --model\n");
        return usage();
    }
    spec.sceneName = optValueOr(argc, argv, "--scene", "lego");
    if (!parseCaptureOpts(argc, argv, spec))
        return usage();

    Scene scene = makeScene(spec.sceneName);
    auto model = buildModel(spec.kind, scene, spec.opts);
    if (spec.fp16)
        model->encoding().quantizeFeaturesFp16();
    captureOne(spec, *model, scene, out);
    return 0;
}

// ---------------------------------------------------------------------
// capture-set
// ---------------------------------------------------------------------

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

int
cmdCaptureSet(int argc, char **argv)
{
    const char *dir = optValue(argc, argv, "-o");
    if (!dir)
        dir = optValue(argc, argv, "--out");
    if (!dir) {
        std::fprintf(stderr, "capture-set: missing -o DIR\n");
        return usage();
    }

    std::vector<std::string> scenes =
        splitCsv(optValueOr(argc, argv, "--scenes", "lego"));
    std::vector<std::string> models =
        splitCsv(optValueOr(argc, argv, "--models", "dvgo"));
    std::uint32_t frames;
    CaptureSpec base;
    if (!optUint(argc, argv, "--frames", 1, 1, 1000, frames) ||
        !parseCaptureOpts(argc, argv, base))
        return usage();
    if (scenes.empty() || models.empty()) {
        std::fprintf(stderr, "capture-set: empty --scenes/--models\n");
        return usage();
    }

    if (::mkdir(dir, 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "capture-set: cannot create %s: %s\n", dir,
                     std::strerror(errno));
        return 3;
    }

    dse::Corpus corpus(dir);
    for (const std::string &sceneName : scenes) {
        for (const std::string &modelName : models) {
            CaptureSpec spec = base;
            spec.sceneName = sceneName;
            if (!parseModelKind(modelName, spec.kind)) {
                std::fprintf(stderr, "capture-set: unknown model '%s'\n",
                             modelName.c_str());
                return usage();
            }
            // One model build serves every frame of the orbit.
            Scene scene = makeScene(sceneName);
            auto model = buildModel(spec.kind, scene, spec.opts);
            if (spec.fp16)
                model->encoding().quantizeFeaturesFp16();
            for (std::uint32_t f = 0; f < frames; ++f) {
                spec.frame = f;
                dse::CorpusEntry entry;
                entry.id = sceneName + "_" + modelName + "_" +
                           std::to_string(spec.res) + "_f" +
                           std::to_string(f);
                entry.file = entry.id + ".ctrace";
                entry.scene = sceneName;
                entry.model = modelName;
                entry.encoding = model->encoding().name();
                entry.res = spec.res;
                entry.frame = f;
                entry.preset = spec.opts.preset == ModelPreset::Full
                                   ? "full"
                                   : "fast";
                entry.layout =
                    spec.opts.gridLayout == GridLayout::MVoxelBlocked
                        ? "mvoxel"
                        : "linear";
                entry.fp16 = spec.fp16;
                captureOne(spec, *model, scene,
                           corpus.tracePath(entry));
                corpus.add(std::move(entry));
            }
        }
    }
    corpus.save();
    std::printf("corpus %s: %llu traces, manifest corpus.json\n", dir,
                static_cast<unsigned long long>(corpus.size()));
    return 0;
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

int
cmdReplay(int argc, char **argv)
{
    const char *file = positional(argc, argv, 0);
    if (!file) {
        std::fprintf(stderr, "replay: missing trace file\n");
        return usage();
    }
    std::string stack = optValueOr(argc, argv, "--stack", "cache");
    if (stack != "cache" && stack != "bank" && stack != "dram" &&
        stack != "gpu" && stack != "npu" && stack != "gu" &&
        stack != "accels") {
        std::fprintf(stderr, "replay: unknown --stack '%s'\n",
                     stack.c_str());
        return usage();
    }

    TraceFileReader reader(file, readMode(argc, argv));
    reportRecovery(file, reader);
    if (!traceMetaStorageConsistent(reader.meta()))
        std::fprintf(stderr,
                     "cicero_trace: warning: %s was captured with %s "
                     "feature storage but its featureBytes accounting "
                     "assumes fp16-class 2 B/channel — replayed byte "
                     "counts under-count the functional run\n",
                     file,
                     traceStorageModeName(reader.meta().storageMode));

    // Validate everything and run the stack *before* printing, so
    // stdout carries either one complete JSON object or nothing.
    std::string stats;
    if (stack == "cache") {
        CacheStackConfig cfg;
        std::uint32_t capacityMb;
        if (!optUint(argc, argv, "--ways", 32, 1, 4096, cfg.warpWays) ||
            !optUint(argc, argv, "--capacity-mb", 2, 1, 65536,
                     capacityMb))
            return usage();
        cfg.cache.capacityBytes = static_cast<std::uint64_t>(capacityMb)
                                  << 20;
        stats = statsJson(runCacheStack(fileSource(reader), cfg));
    } else if (stack == "bank") {
        SramBankConfig cfg;
        std::string layout;
        if (!optUint(argc, argv, "--banks", 16, 1, 65536, cfg.numBanks) ||
            !optUint(argc, argv, "--rays", 16, 1, 65536,
                     cfg.concurrentRays) ||
            !optChoice(argc, argv, "--sram-layout", {"feature", "channel"},
                       layout))
            return usage();
        cfg.featureBytes = reader.meta().featureBytes
                               ? reader.meta().featureBytes
                               : cfg.featureBytes;
        cfg.layout = layout == "channel" ? SramLayout::ChannelMajor
                                         : SramLayout::FeatureMajor;
        stats = statsJson(runBankStack(fileSource(reader), cfg));
    } else if (stack == "dram") {
        stats = statsJson(runDramStack(fileSource(reader)));
    } else {
        // Accelerator stacks need the capture-time workload summary
        // (version-2 containers); workloadFromTrace throws otherwise.
        TraceWorkloadDescriptor desc = workloadFromTrace(reader);
        if (stack == "gpu") {
            GpuStackConfig cfg;
            std::uint32_t capacityMb;
            if (!optUint(argc, argv, "--ways", 32, 1, 4096,
                         cfg.warpWays) ||
                !optUint(argc, argv, "--capacity-mb", 2, 1, 65536,
                         capacityMb))
                return usage();
            cfg.cache.capacityBytes =
                static_cast<std::uint64_t>(capacityMb) << 20;
            stats = statsJson(runGpuStack(fileSource(reader), desc, cfg));
        } else if (stack == "npu") {
            stats = statsJson(runNpuStack(fileSource(reader), desc));
        } else if (stack == "gu") {
            GuStackConfig cfg;
            if (!optUint(argc, argv, "--banks", 32, 1, 65536,
                         cfg.gu.banks) ||
                !optUint(argc, argv, "--rays", 16, 1, 65536,
                         cfg.concurrentRays))
                return usage();
            stats = statsJson(runGuStack(fileSource(reader), desc, cfg));
        } else { // accels: the NeuRex/NGPC baselines
            BaselineStackConfig cfg;
            if (!optUint(argc, argv, "--banks", 16, 1, 65536,
                         cfg.bank.numBanks) ||
                !optUint(argc, argv, "--rays", 16, 1, 65536,
                         cfg.bank.concurrentRays))
                return usage();
            stats = statsJson(
                runBaselineStack(fileSource(reader), desc, cfg));
        }
    }

    std::printf("{\"meta\": %s,\n \"stats\": %s}\n",
                metaJson(reader).c_str(), stats.c_str());
    return 0;
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

/** Streaming min/max/bytes scan — never materializes the trace. */
struct RangeScan : public TraceSink
{
    std::uint64_t minAddr = ~0ull;
    std::uint64_t maxAddr = 0;
    std::uint64_t bytes = 0;
    std::uint64_t accesses = 0;

    void
    onAccess(const MemAccess &a) override
    {
        minAddr = std::min(minAddr, a.addr);
        maxAddr = std::max(maxAddr, a.addr);
        bytes += a.bytes;
        ++accesses;
    }
};

/** Streaming fixed-bucket address histogram (second pass). */
struct HistogramScan : public TraceSink
{
    static constexpr int kBuckets = 16;
    std::uint64_t base = 0;
    std::uint64_t bucketWidth = 1;
    std::uint64_t hist[kBuckets] = {};

    void
    onAccess(const MemAccess &a) override
    {
        ++hist[(a.addr - base) / bucketWidth];
    }
};

int
cmdStats(int argc, char **argv)
{
    const char *file = positional(argc, argv, 0);
    if (!file) {
        std::fprintf(stderr, "stats: missing trace file\n");
        return usage();
    }
    TraceFileReader reader(file, readMode(argc, argv));
    reportRecovery(file, reader);

    // Two streaming replays (range, then histogram) keep memory O(1)
    // however long the trace is — the whole point of sink plumbing.
    RangeScan range;
    reader.replay(&range);
    std::uint64_t minAddr = range.minAddr, maxAddr = range.maxAddr,
                  bytes = range.bytes;

    const TraceFileMeta &m = reader.meta();
    std::printf("trace %s\n", file);
    std::printf("  scene=%s encoding=%s model=%s %ux%u threads=%u\n",
                m.scene.c_str(), m.encoding.c_str(), m.model.c_str(),
                m.width, m.height, m.threads);
    // featureBytes distinguishes capture-time feature storage at a
    // glance: fp16-class 2 B/channel captures decompose cleanly.
    if (m.featureBytes % kBytesPerChannel == 0)
        std::printf("  featureBytes=%u (%u channels x %u B, "
                    "fp16-class storage) storage=%s\n",
                    m.featureBytes, m.featureBytes / kBytesPerChannel,
                    kBytesPerChannel,
                    traceStorageModeName(m.storageMode));
    else
        std::printf("  featureBytes=%u (not %u B/channel) storage=%s\n",
                    m.featureBytes, kBytesPerChannel,
                    traceStorageModeName(m.storageMode));
    if (!traceMetaStorageConsistent(m)) {
        if (m.storageMode == TraceStorageMode::Fp32)
            std::printf("  STORAGE MISMATCH: featureBytes assumes "
                        "%u B/channel but the capture-time encoding "
                        "stored fp32 features (featuresFp16() not set) "
                        "— byte accounting under-counts; recapture "
                        "with --fp16 to quantize storage to match\n",
                        kBytesPerChannel);
        else
            std::printf("  STORAGE MISMATCH: storage recorded as %s "
                        "but featureBytes=%u does not decompose into "
                        "%u B channels\n",
                        traceStorageModeName(m.storageMode),
                        m.featureBytes, kBytesPerChannel);
    }
    std::printf("  codec=%s\n", traceCodecName(reader.codec()));
    std::printf("  accesses=%llu rayEnds=%llu flushes=%llu "
                "bytesAccessed=%llu\n",
                static_cast<unsigned long long>(reader.counts().accesses),
                static_cast<unsigned long long>(reader.counts().rayEnds),
                static_cast<unsigned long long>(reader.counts().flushes),
                static_cast<unsigned long long>(bytes));
    std::printf("  file=%llu B payload=%llu B raw-stream=%llu B "
                "ratio=%.1f%%\n",
                static_cast<unsigned long long>(reader.fileBytes()),
                static_cast<unsigned long long>(reader.payloadBytes()),
                static_cast<unsigned long long>(
                    reader.counts().rawStreamBytes()),
                100.0 * reader.compressionRatio());

    // Per-event-type payload accounting (varint stage): where the
    // encoded bytes go, and how often the writer's elisions fired.
    TraceEventBreakdown ev = reader.eventBreakdown();
    std::printf("  events: access=%llu (%llu B) rayEnd=%llu (%llu B) "
                "flush=%llu (%llu B) end=%llu B\n",
                static_cast<unsigned long long>(ev.accessEvents),
                static_cast<unsigned long long>(ev.accessBytes),
                static_cast<unsigned long long>(ev.rayEndEvents),
                static_cast<unsigned long long>(ev.rayEndBytes),
                static_cast<unsigned long long>(ev.flushEvents),
                static_cast<unsigned long long>(ev.flushBytes),
                static_cast<unsigned long long>(ev.terminatorBytes));
    std::printf("  elisions: same-bytes=%llu same-ray=%llu\n",
                static_cast<unsigned long long>(ev.sameBytesElisions),
                static_cast<unsigned long long>(ev.sameRayElisions));

    std::printf("  version=%u workload-summary=%s\n", reader.version(),
                reader.hasWorkloadSummary() ? "yes" : "no");
    if (reader.hasWorkloadSummary()) {
        const TraceWorkloadSummary &w = reader.workloadSummary();
        std::printf("  workload: rays=%llu samples=%llu "
                    "vertexFetches=%llu mlpMacs=%llu\n",
                    static_cast<unsigned long long>(w.rays),
                    static_cast<unsigned long long>(w.samples),
                    static_cast<unsigned long long>(w.vertexFetches),
                    static_cast<unsigned long long>(w.mlpMacs));
        std::printf("  stream-plan: streamed=%llu B random=%llu B "
                    "ritEntries=%llu vertexBytes=%u\n",
                    static_cast<unsigned long long>(w.streamedBytes),
                    static_cast<unsigned long long>(w.randomBytes),
                    static_cast<unsigned long long>(w.ritEntries),
                    w.vertexBytes);
    }

    if (range.accesses > 0) {
        HistogramScan histo;
        histo.base = minAddr;
        std::uint64_t span = maxAddr - minAddr + 1;
        histo.bucketWidth =
            (span + HistogramScan::kBuckets - 1) / HistogramScan::kBuckets;
        reader.replay(&histo);
        std::uint64_t peak = *std::max_element(
            histo.hist, histo.hist + HistogramScan::kBuckets);
        std::printf("  address histogram [0x%llx .. 0x%llx], %llu B "
                    "buckets:\n",
                    static_cast<unsigned long long>(minAddr),
                    static_cast<unsigned long long>(maxAddr),
                    static_cast<unsigned long long>(histo.bucketWidth));
        for (int b = 0; b < HistogramScan::kBuckets; ++b) {
            int bars =
                peak ? static_cast<int>(40 * histo.hist[b] / peak) : 0;
            std::printf("    [%2d] %10llu %.*s\n", b,
                        static_cast<unsigned long long>(histo.hist[b]),
                        bars,
                        "########################################");
        }
    }
    return 0;
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

/** Flattens a replay into a comparable event list. */
struct EventLog : public TraceSink
{
    struct Event
    {
        std::uint8_t kind; // 0 access, 1 rayEnd, 2 flush
        MemAccess access;
        std::uint32_t rayId = 0;

        bool
        operator==(const Event &o) const
        {
            if (kind != o.kind)
                return false;
            if (kind == 0)
                return access.addr == o.access.addr &&
                       access.bytes == o.access.bytes &&
                       access.rayId == o.access.rayId;
            if (kind == 1)
                return rayId == o.rayId;
            return true;
        }
    };

    std::vector<Event> events;

    void
    onAccess(const MemAccess &a) override
    {
        events.push_back(Event{0, a, 0});
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back(Event{1, MemAccess{}, rayId});
    }
    void onFlush() override { events.push_back(Event{2, MemAccess{}, 0}); }
};

std::string
describe(const EventLog::Event &e)
{
    char buf[96];
    if (e.kind == 0)
        std::snprintf(buf, sizeof(buf),
                      "access addr=0x%llx bytes=%u ray=%u",
                      static_cast<unsigned long long>(e.access.addr),
                      e.access.bytes, e.access.rayId);
    else if (e.kind == 1)
        std::snprintf(buf, sizeof(buf), "rayEnd ray=%u", e.rayId);
    else
        std::snprintf(buf, sizeof(buf), "flush");
    return buf;
}

int
cmdDiff(int argc, char **argv)
{
    const char *fileA = positional(argc, argv, 0);
    const char *fileB = positional(argc, argv, 1);
    if (!fileA || !fileB) {
        std::fprintf(stderr, "diff: need two trace files\n");
        return usage();
    }

    TraceFileReader readerA(fileA), readerB(fileB);
    EventLog a, b;
    readerA.replay(&a);
    readerB.replay(&b);

    std::size_t n = std::min(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(a.events[i] == b.events[i])) {
            std::printf("traces differ at event %llu:\n  %s: %s\n  %s: "
                        "%s\n",
                        static_cast<unsigned long long>(i), fileA,
                        describe(a.events[i]).c_str(), fileB,
                        describe(b.events[i]).c_str());
            return 1;
        }
    }
    if (a.events.size() != b.events.size()) {
        std::printf("traces differ in length: %s has %llu events, %s has "
                    "%llu\n",
                    fileA,
                    static_cast<unsigned long long>(a.events.size()),
                    fileB,
                    static_cast<unsigned long long>(b.events.size()));
        return 1;
    }
    std::printf("traces identical: %llu events\n",
                static_cast<unsigned long long>(a.events.size()));
    return 0;
}

// ---------------------------------------------------------------------
// recover
// ---------------------------------------------------------------------

int
cmdRecover(int argc, char **argv)
{
    const char *file = positional(argc, argv, 0);
    if (!file) {
        std::fprintf(stderr, "recover: missing trace file\n");
        return usage();
    }
    const char *out = optValue(argc, argv, "-o");
    if (!out)
        out = optValue(argc, argv, "--out");

    TraceFileReader reader(file, TraceReadMode::Salvage);
    const TraceRecoveryInfo &r = reader.recovery();
    std::printf("recover %s: %s\n", file,
                r.salvaged ? "damage found, tail dropped"
                           : "file intact, nothing to do");
    std::printf("  kept: accesses=%llu rayEnds=%llu flushes=%llu\n",
                static_cast<unsigned long long>(reader.counts().accesses),
                static_cast<unsigned long long>(reader.counts().rayEnds),
                static_cast<unsigned long long>(reader.counts().flushes));
    if (r.salvaged)
        std::printf("  salvage: events=%llu checkpointsVerified=%llu "
                    "droppedPayloadBytes=%llu\n",
                    static_cast<unsigned long long>(r.keptEvents),
                    static_cast<unsigned long long>(r.checkpointsVerified),
                    static_cast<unsigned long long>(
                        r.droppedPayloadBytes));

    if (out) {
        // Re-encode the recovered prefix as a fresh, clean container
        // (checkpoints and checksums rebuilt by the writer). Legacy
        // range-coded input comes out as rans: codec 1 is read-only.
        TraceFileWriter writer(out, reader.meta(),
                               reader.codec() == TraceCodec::Range
                                   ? TraceCodec::Rans
                                   : reader.codec());
        reader.replay(&writer);
        if (reader.hasWorkloadSummary())
            writer.setWorkloadSummary(reader.workloadSummary());
        writer.close();
        std::printf("  rewrote %s: %llu bytes\n", out,
                    static_cast<unsigned long long>(writer.fileBytes()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    applyThreadsOption(argc, argv);
    if (!applyFaultsOption(argc, argv))
        return usage();
    try {
        if (cmd == "capture")
            return cmdCapture(argc, argv);
        if (cmd == "capture-set")
            return cmdCaptureSet(argc, argv);
        if (cmd == "replay")
            return cmdReplay(argc, argv);
        if (cmd == "stats")
            return cmdStats(argc, argv);
        if (cmd == "diff")
            return cmdDiff(argc, argv);
        if (cmd == "recover")
            return cmdRecover(argc, argv);
    } catch (const IoError &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 3;
    } catch (const ParseError &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cicero_trace: %s\n", e.what());
        return 5;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
}

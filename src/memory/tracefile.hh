/**
 * @file
 * Persistent trace files: capture a gather access stream once, replay
 * it many times.
 *
 * Every memory-model experiment in this repo is a function of the
 * access stream a functional render emits into a TraceSink. A
 * TraceFileWriter is itself a TraceSink, so it drops into any existing
 * capture path (including the parallel RayTraceBuffer replay) and
 * persists the stream into a versioned `.ctrace` container; a
 * TraceFileReader replays a container into any TraceSink — so the
 * cache, DRAM, SRAM-bank and energy models consume persisted traces
 * with zero changes. One expensive render becomes a reusable artifact:
 * sweep N memory configs from one capture.
 *
 * On-disk format (all integers little-endian):
 *
 *   "CTRC"  u16 version  u8 codec  u8 storageMode
 *   str scene  str encoding  str model        (u32 length + bytes)
 *   u32 width  u32 height  u32 threads  u32 featureBytes
 *   u64 accesses  u64 rayEnds  u64 flushes
 *   u8 hasWorkload  [12 x u64 + u32 summary]      (version >= 2)
 *   u64 storedPayloadBytes  u64 rawPayloadBytes
 *   u32 headerCrc32                               (version >= 3)
 *   payload
 *
 * Version 2 adds the optional workload-summary block: the StageWork
 * and StreamPlan counters of the captured frame. The accel models
 * (GPU/NPU/GU/baselines) price *derived* workload quantities — MLP
 * MACs depend on occupancy, the streaming footprint on sample
 * positions — which cannot be re-derived from the access stream alone,
 * so replay-driven accelerator runs read them from the header instead
 * of re-rendering. Version-1 files still parse (summary absent).
 *
 * Version 3 adds crash-safety checksums. The header is covered by a
 * trailing CRC32 (over every header byte before the CRC field), and
 * the varint-stage payload embeds *checkpoint events* (tag 7): every
 * ~kTraceCheckpointInterval events, and once more right before the
 * terminator, the writer records the cumulative event count and the
 * CRC32 of the payload section since the previous checkpoint. Strict
 * reads verify every checkpoint at parse time; the salvage read mode
 * (TraceReadMode::Salvage) uses them to recover the longest
 * checksum-valid event prefix of a truncated or corrupted capture —
 * a capture process killed mid-run loses one trace's tail, not the
 * corpus. The file-backed writer additionally finalizes via temp file
 * + atomic rename, so a completed `.ctrace` path is always a complete
 * container.
 *
 * The payload is an event stream framed to mirror the TraceSink
 * interface exactly (onAccess / onRayEnd / onFlush), encoded with
 * delta-of-address + zigzag varints: gather addresses are locally
 * correlated (neighbouring grid vertices), so deltas are short, and
 * ray ids / access sizes rarely change between events, so both are
 * elided when repeated. This varint stage is what the checkpoints
 * cover; the codec byte says how it is stored:
 *
 *   0 Varint  stored as is.
 *   1 Range   an adaptive order-0 bit-tree range coder. Read-only:
 *             this build decodes codec-1 files but no longer writes
 *             them.
 *   2 Rans    static order-0 rANS (the default), laid out as
 *
 *     frequency table   for each symbol s = 0..255 in order: varint
 *                       freq[s] (<= 4096); after a zero frequency one
 *                       byte r = how many following symbols are also
 *                       zero, which are skipped. The frequencies of
 *                       a valid table sum to exactly 4096 (2^12).
 *     u32 x0..x3        the four interleaved decoder states,
 *                       little-endian, each in [2^23, 2^31)
 *     renorm bytes      read front to back
 *
 *   Varint-stage byte i is decoded by state i % 4: slot = x & 4095
 *   picks the symbol s whose cumulative range [start, start + freq)
 *   holds it, x becomes freq * (x >> 12) + slot - start, and while x
 *   < 2^23 (at most twice) x = x << 8 | next byte. rawPayloadBytes
 *   says how many symbols to decode.
 *
 * Salvage reads work on every codec the same way: a truncated stored
 * payload decodes its intact prefix (rANS and range-coder reads past
 * the end pad with zero), and the checkpoint CRCs cut the varint stage
 * back to the last section they vouch for. A codec-2 table that does
 * not parse throws in Strict mode and salvages an empty prefix.
 */

#ifndef CICERO_MEMORY_TRACEFILE_HH
#define CICERO_MEMORY_TRACEFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "memory/trace.hh"

namespace cicero {

/**
 * A `.ctrace` container that does not parse: bad magic, unsupported
 * version, corrupt or truncated payload, checksum mismatch. Derives
 * ParseError (itself a runtime_error), so the CLI tools map it to the
 * parse-failure exit code.
 */
class TraceFileError : public ParseError
{
  public:
    using ParseError::ParseError;
};

/** Payload compression stage. */
enum class TraceCodec : std::uint8_t
{
    Varint = 0, //!< delta + zigzag-varint event stream only
    Range = 1,  //!< legacy adaptive bit-tree range coder (read-only)
    Rans = 2,   //!< varint stream re-coded by static order-0 rANS
};

/** Name of a codec ("varint", "range", "rans"; "unknown" otherwise). */
const char *traceCodecName(TraceCodec codec);

/** Trace-file container version this build writes. */
constexpr std::uint16_t kTraceFileVersion = 3;

/** Oldest container version this build still reads. */
constexpr std::uint16_t kTraceFileMinVersion = 1;

/** Events between embedded payload checkpoints (version >= 3). */
constexpr std::uint64_t kTraceCheckpointInterval = 1024;

/** How strictly TraceFileReader treats a damaged container. */
enum class TraceReadMode
{
    /** Any truncation or corruption throws TraceFileError (default). */
    Strict,
    /**
     * Recover what the checksums vouch for: keep the longest
     * checkpoint-valid event prefix of a truncated/corrupted payload
     * and recompute the counts from it. A file damaged *in the header*
     * still throws — there is nothing trustworthy to salvage without
     * the header.
     */
    Salvage,
};

/** What a salvage-mode read had to do (all zeros for a clean file). */
struct TraceRecoveryInfo
{
    bool salvaged = false;          //!< tail was dropped
    std::uint64_t keptEvents = 0;   //!< events in the recovered prefix
    //! Varint-stage bytes the header promised that were not kept.
    std::uint64_t droppedPayloadBytes = 0;
    std::uint64_t checkpointsVerified = 0; //!< CRC-valid checkpoints
};

/**
 * Capture-time feature storage of the traced encoding. Occupies the
 * byte that was reserved in the original version-1 header, so legacy
 * files read back as Unknown and new files stay readable by old
 * builds.
 */
enum class TraceStorageMode : std::uint8_t
{
    Unknown = 0, //!< legacy capture; storage mode not recorded
    Fp32 = 1,    //!< functional arrays held 4-byte floats
    Fp16 = 2,    //!< quantizeFeaturesFp16() storage (2-byte values)
};

/** Human-readable name of a storage mode ("fp32", "fp16", "unknown"). */
const char *traceStorageModeName(TraceStorageMode mode);

/** Capture metadata recorded in the trace-file header. */
struct TraceFileMeta
{
    std::string scene;    //!< scene name ("lego", ...)
    std::string encoding; //!< Encoding::name() of the traced model
    std::string model;    //!< modelName() of the traced model
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint32_t threads = 0;      //!< parallelThreadCount() at capture
    std::uint32_t featureBytes = 0; //!< featureDim * kBytesPerChannel
    TraceStorageMode storageMode = TraceStorageMode::Unknown;
};

/**
 * Whether @p meta's featureBytes accounting is consistent with its
 * recorded capture-time storage mode. featureBytes is written as
 * featureDim x kBytesPerChannel — the 2-byte-per-channel DRAM model of
 * the paper — which is only faithful to the functional run when the
 * encoding's storage really was fp16 (featuresFp16() set) at capture:
 * an Fp32 capture moved 4-byte channels the trace under-counts.
 * Unknown (legacy files) is vacuously consistent. `cicero_trace
 * stats`/`replay` flag inconsistent captures.
 */
bool traceMetaStorageConsistent(const TraceFileMeta &meta);

/**
 * Workload summary persisted in a version-2 container: the StageWork
 * counters of the captured frame plus its fully-streaming StreamPlan
 * and vertex size. Kept as plain integers (mirroring
 * nerf/workload.hh's StageWork and nerf/encoding.hh's StreamPlan) so
 * the memory layer does not depend on the nerf layer; src/dse converts
 * both ways. These are exact capture-time integers, which is what
 * makes replayed accelerator stats bit-identical to live runs.
 */
struct TraceWorkloadSummary
{
    // StageWork mirror.
    std::uint64_t rays = 0;
    std::uint64_t samples = 0;
    std::uint64_t indexOps = 0;
    std::uint64_t vertexFetches = 0;
    std::uint64_t gatherBytes = 0;
    std::uint64_t interpOps = 0;
    std::uint64_t mlpMacs = 0;
    std::uint64_t compositeOps = 0;
    // StreamPlan mirror.
    std::uint64_t streamedBytes = 0;
    std::uint64_t randomBytes = 0;
    std::uint64_t ritEntries = 0;
    std::uint64_t ritBytes = 0;
    // Bytes of one vertex feature vector (featureDim x channel bytes).
    std::uint32_t vertexBytes = 0;
};

/**
 * Per-event-type accounting of a container's encoded payload — how
 * many events of each kind the stream holds and how many varint-stage
 * bytes each kind costs, plus how often the writer's same-bytes /
 * same-ray elisions fired. Observability groundwork for the
 * per-field-context codec work: it shows where the encoded bytes go.
 */
struct TraceEventBreakdown
{
    std::uint64_t accessEvents = 0;
    std::uint64_t accessBytes = 0; //!< varint-stage bytes of access events
    std::uint64_t rayEndEvents = 0;
    std::uint64_t rayEndBytes = 0;
    std::uint64_t flushEvents = 0;
    std::uint64_t flushBytes = 0;
    std::uint64_t checkpointEvents = 0; //!< embedded v3 checkpoints
    std::uint64_t checkpointBytes = 0;
    std::uint64_t terminatorBytes = 0;
    std::uint64_t sameBytesElisions = 0; //!< access size repeated, elided
    std::uint64_t sameRayElisions = 0;   //!< ray id repeated, elided
};

/** Event counts recorded in the trace-file header. */
struct TraceFileCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t rayEnds = 0;
    std::uint64_t flushes = 0;

    /** Bytes of the equivalent raw in-memory MemAccess stream. */
    std::uint64_t
    rawStreamBytes() const
    {
        return accesses * sizeof(MemAccess);
    }
};

/**
 * TraceSink that persists the observed event stream into a `.ctrace`
 * container (file or memory buffer).
 *
 * The encoded payload is buffered in memory (a few bytes per access —
 * far smaller than the live stream) and finalized by close(): the
 * optional rANS stage runs, then header + payload are written
 * in one pass. close() is idempotent and called by the destructor;
 * call it explicitly to observe counts/sizes or write failures.
 *
 * The file backend is crash-safe: close() writes to `<path>.tmp` and
 * atomically renames onto @p path, so the destination either holds the
 * previous content or a complete container — never a torn write. A
 * process killed mid-close leaves at worst a stale `.tmp` beside it.
 *
 * @throws std::invalid_argument (at construction) for a codec this
 *         build does not write: only Varint and Rans are writable.
 * @throws IoError if the output file cannot be opened, written, or
 *         renamed into place.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /** Write to @p path. */
    TraceFileWriter(const std::string &path, const TraceFileMeta &meta,
                    TraceCodec codec = TraceCodec::Rans);

    /** Write into @p buffer (cleared first); no filesystem involved. */
    TraceFileWriter(std::vector<std::uint8_t> &buffer,
                    const TraceFileMeta &meta,
                    TraceCodec codec = TraceCodec::Rans);

    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void onAccess(const MemAccess &access) override;
    void onRayEnd(std::uint32_t rayId) override;
    void onFlush() override;

    /**
     * Attach the captured frame's workload summary; must be called
     * before close(). Capture paths fill it from the StageWork the
     * traced render returned plus the encoding's streaming footprint.
     */
    void
    setWorkloadSummary(const TraceWorkloadSummary &summary)
    {
        _workload = summary;
        _hasWorkload = true;
    }

    /** Finalize the container. Idempotent. */
    void close();

    const TraceFileCounts &counts() const { return _counts; }

    /** Container size in bytes (valid after close()). */
    std::uint64_t fileBytes() const { return _fileBytes; }

    /** Stored (post-codec) payload size in bytes (after close()). */
    std::uint64_t payloadBytes() const { return _storedPayloadBytes; }

  private:
    void putVarint(std::uint64_t v);
    void putSignedDelta(std::int64_t d);
    void noteEvent();
    void emitCheckpoint();

    TraceFileMeta _meta;
    TraceCodec _codec;
    TraceFileCounts _counts;
    TraceWorkloadSummary _workload;
    bool _hasWorkload = false;

    std::string _path;                     //!< empty => memory backend
    std::vector<std::uint8_t> *_memoryOut = nullptr;

    std::vector<std::uint8_t> _payload; //!< varint event stream
    std::uint64_t _lastAddr = 0;
    std::uint32_t _lastBytes = 0;
    std::uint32_t _lastRay = 0;
    bool _haveBytes = false;

    std::uint64_t _eventCount = 0;          //!< events emitted so far
    std::uint64_t _eventsSinceCheckpoint = 0;
    std::size_t _checkpointStart = 0; //!< payload offset the next CRC covers from

    bool _closed = false;
    std::uint64_t _fileBytes = 0;
    std::uint64_t _storedPayloadBytes = 0;
};

/**
 * Parses a `.ctrace` container and replays it into TraceSinks.
 *
 * The payload is decoded to the varint stage once at construction and
 * fully validated — every event parses, every version-3 checkpoint
 * CRC matches, the walked counts agree with the header; replay() then
 * re-walks that stream, so a reader replays any number of times (the
 * capture-once / replay-many pattern).
 *
 * @throws IoError on I/O failure; TraceFileError on bad magic,
 *         unsupported version or codec, and truncated or corrupt
 *         containers (in Strict mode — Salvage mode instead recovers
 *         the longest checksum-valid event prefix; see recovery()).
 */
class TraceFileReader
{
  public:
    explicit TraceFileReader(const std::string &path,
                             TraceReadMode mode = TraceReadMode::Strict);

    /** Parse an in-memory container (the bytes are not retained). */
    TraceFileReader(const std::uint8_t *data, std::size_t size,
                    TraceReadMode mode = TraceReadMode::Strict);
    explicit TraceFileReader(const std::vector<std::uint8_t> &buffer,
                             TraceReadMode mode = TraceReadMode::Strict);

    const TraceFileMeta &meta() const { return _meta; }
    const TraceFileCounts &counts() const { return _counts; }
    TraceCodec codec() const { return _codec; }

    /** Container version the file was written with (1, 2, or 3). */
    std::uint16_t version() const { return _version; }

    /** What a Salvage-mode read recovered (all zeros when clean). */
    const TraceRecoveryInfo &recovery() const { return _recovery; }

    /** True when a workload summary was captured (version >= 2). */
    bool hasWorkloadSummary() const { return _hasWorkload; }

    /** The captured workload summary; zeros when absent. */
    const TraceWorkloadSummary &workloadSummary() const
    {
        return _workload;
    }

    /**
     * Per-event-type byte accounting of the decoded varint payload —
     * one extra walk over the in-memory event stream, no replay sink
     * involved.
     */
    TraceEventBreakdown eventBreakdown() const;

    /** Total container size in bytes. */
    std::uint64_t fileBytes() const { return _fileBytes; }

    /** Stored (post-codec) payload size in bytes. */
    std::uint64_t payloadBytes() const { return _storedPayloadBytes; }

    /**
     * Compression ratio: container size over the raw
     * sizeof(MemAccess)-stream size (smaller is better).
     */
    double
    compressionRatio() const
    {
        std::uint64_t raw = _counts.rawStreamBytes();
        return raw ? static_cast<double>(_fileBytes) / raw : 0.0;
    }

    /**
     * Replay the recorded stream into @p sink: every onAccess,
     * onRayEnd and onFlush event exactly as captured, in order.
     * Callable any number of times.
     */
    void replay(TraceSink *sink) const;

  private:
    void parse(const std::uint8_t *data, std::size_t size,
               TraceReadMode mode);
    void validatePayload(TraceReadMode mode, std::uint64_t rawPayloadBytes);

    TraceFileMeta _meta;
    TraceFileCounts _counts;
    TraceCodec _codec = TraceCodec::Varint;
    std::uint16_t _version = kTraceFileVersion;
    TraceWorkloadSummary _workload;
    bool _hasWorkload = false;
    std::uint64_t _fileBytes = 0;
    std::uint64_t _storedPayloadBytes = 0;
    TraceRecoveryInfo _recovery;
    std::vector<std::uint8_t> _events; //!< decoded varint event stream
};

} // namespace cicero

#endif // CICERO_MEMORY_TRACEFILE_HH

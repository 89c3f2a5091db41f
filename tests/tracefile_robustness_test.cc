/**
 * @file
 * Robustness tests for the .ctrace container: checkpointed payloads,
 * strict-vs-salvage reads of truncated and corrupted files in every
 * codec (legacy codec-1 files built with the reference encoder in
 * range_codec_reference.hh), deterministic byte-mutation fuzzing of the
 * parser (typed errors only, never a crash or hang), forged rANS
 * frequency tables and states, golden container bytes, the file
 * backend's atomic-rename guarantee, and the trace read/write
 * fault-injection sites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/fault.hh"
#include "memory/tracefile.hh"
#include "range_codec_reference.hh"

namespace cicero {
namespace {

TraceFileMeta
syntheticMeta()
{
    TraceFileMeta meta;
    meta.scene = "synthetic";
    meta.encoding = "test-encoding";
    meta.model = "test-model";
    meta.width = 8;
    meta.height = 8;
    meta.threads = 1;
    meta.featureBytes = 32;
    return meta;
}

/** Feed @p events deterministic pseudo-random events into @p sink. */
void
emitEvents(TraceSink &sink, int events)
{
    std::uint64_t addr = 0x10000;
    std::uint32_t ray = 0;
    for (int i = 0; i < events; ++i) {
        MemAccess a;
        a.addr = addr;
        a.bytes = 16u + 16u * (static_cast<std::uint32_t>(i) % 3u);
        a.rayId = ray;
        sink.onAccess(a);
        addr += 64 * ((static_cast<std::uint64_t>(i) * 2654435761ull) %
                          977 +
                      1);
        if (i % 9 == 8) {
            sink.onRayEnd(ray);
            ++ray;
        }
        if (i % 101 == 100)
            sink.onFlush();
    }
}

/**
 * Every codec a reader accepts. Range containers come from the
 * reference encoder, since the library no longer writes codec 1.
 */
constexpr TraceCodec kAllCodecs[] = {TraceCodec::Varint, TraceCodec::Range,
                                     TraceCodec::Rans};

std::vector<std::uint8_t>
buildTrace(int events, TraceCodec codec)
{
    std::vector<std::uint8_t> buf;
    TraceFileWriter writer(
        buf, syntheticMeta(),
        codec == TraceCodec::Range ? TraceCodec::Varint : codec);
    emitEvents(writer, events);
    writer.close();
    return codec == TraceCodec::Range ? test::rangeContainerFrom(buf) : buf;
}

/** Flattened replay for prefix comparison. */
struct EventLog : public TraceSink
{
    struct Event
    {
        int kind; // 0 access, 1 rayEnd, 2 flush
        std::uint64_t addr = 0;
        std::uint32_t bytes = 0;
        std::uint32_t ray = 0;

        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && addr == o.addr && bytes == o.bytes &&
                   ray == o.ray;
        }
    };

    std::vector<Event> events;

    void
    onAccess(const MemAccess &a) override
    {
        events.push_back(Event{0, a.addr, a.bytes, a.rayId});
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back(Event{1, 0, 0, rayId});
    }
    void onFlush() override { events.push_back(Event{2, 0, 0, 0}); }
};

TEST(TraceRobustnessTest, CleanFileRoundTripsWithCheckpoints)
{
    for (TraceCodec codec : kAllCodecs) {
        std::vector<std::uint8_t> buf = buildTrace(3000, codec);
        TraceFileReader reader(buf);
        EXPECT_EQ(reader.codec(), codec);
        EXPECT_FALSE(reader.recovery().salvaged);
        EXPECT_EQ(reader.version(), kTraceFileVersion);
        EXPECT_EQ(reader.counts().accesses, 3000u);

        // ~3000 access events plus rayEnds/flushes at interval 1024
        // means at least the final checkpoint plus two periodic ones.
        TraceEventBreakdown ev = reader.eventBreakdown();
        EXPECT_GE(ev.checkpointEvents, 3u);
        EXPECT_GT(ev.checkpointBytes, 0u);

        EventLog log;
        reader.replay(&log);
        EXPECT_EQ(log.events.size(),
                  reader.counts().accesses + reader.counts().rayEnds +
                      reader.counts().flushes);
    }
}

TEST(TraceRobustnessTest, TruncationStrictThrowsSalvageRecoversPrefix)
{
    for (TraceCodec codec : kAllCodecs) {
        std::vector<std::uint8_t> buf = buildTrace(3000, codec);
        EventLog full;
        TraceFileReader(buf).replay(&full);

        // Cut points across the whole file, including deep payload
        // truncations and near-complete files: every byte for the
        // default codec, every 37th for the others.
        const std::ptrdiff_t stride = codec == TraceCodec::Rans ? 1 : 37;
        for (std::ptrdiff_t keep = static_cast<std::ptrdiff_t>(buf.size()) - 1;
             keep > 16; keep -= stride) {
            std::vector<std::uint8_t> cut(buf.begin(),
                                          buf.begin() + keep);
            // Strict: always a typed error, never garbage events.
            EXPECT_THROW(TraceFileReader{cut}, TraceFileError)
                << "codec " << static_cast<int>(codec) << " keep "
                << keep;

            // Salvage: either the header itself is gone (typed error)
            // or we get a checksum-valid prefix that replays clean.
            try {
                TraceFileReader reader(cut, TraceReadMode::Salvage);
                EXPECT_TRUE(reader.recovery().salvaged);
                EventLog part;
                reader.replay(&part);
                ASSERT_LE(part.events.size(), full.events.size());
                for (std::size_t i = 0; i < part.events.size(); ++i)
                    ASSERT_TRUE(part.events[i] == full.events[i])
                        << "keep " << keep << " event " << i;
            } catch (const TraceFileError &) {
                // Header truncation: salvage cannot help, typed throw.
            }
        }

        // A deep cut that still holds several checkpoints recovers a
        // non-empty prefix — the whole point of salvage mode.
        std::vector<std::uint8_t> half(buf.begin(),
                                       buf.begin() + buf.size() / 2);
        TraceFileReader reader(half, TraceReadMode::Salvage);
        EXPECT_TRUE(reader.recovery().salvaged);
        EXPECT_GT(reader.recovery().keptEvents, 0u);
        EXPECT_GT(reader.recovery().checkpointsVerified, 0u);
        // The dropped count covers the whole lost tail, however far the
        // decoder got: half the file keeps at most the events before
        // the second of the three periodic checkpoints.
        const std::uint64_t raw =
            TraceFileReader(buildTrace(3000, TraceCodec::Varint))
                .payloadBytes();
        EXPECT_GE(reader.recovery().droppedPayloadBytes, raw / 3)
            << "codec " << static_cast<int>(codec);
        EXPECT_LT(reader.recovery().droppedPayloadBytes, raw);
    }
}

TEST(TraceRobustnessTest, ByteMutationFuzzThrowsTypedOrParsesClean)
{
    // Deterministic fuzz: every iteration derives its mutations from a
    // seeded LCG, so a failure reproduces exactly. Any outcome is
    // acceptable except a crash, a hang, or an untyped exception.
    for (TraceCodec codec : kAllCodecs) {
        const std::vector<std::uint8_t> clean = buildTrace(1500, codec);
        std::uint64_t rng = 0x9e3779b97f4a7c15ull ^
                            static_cast<std::uint64_t>(codec);
        auto next = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return rng >> 33;
        };

        for (int iter = 0; iter < 300; ++iter) {
            std::vector<std::uint8_t> fuzzed = clean;
            const int flips = 1 + static_cast<int>(next() % 4);
            for (int f = 0; f < flips; ++f) {
                std::size_t pos = next() % fuzzed.size();
                fuzzed[pos] ^= static_cast<std::uint8_t>(1 + next() % 255);
            }

            for (TraceReadMode mode :
                 {TraceReadMode::Strict, TraceReadMode::Salvage}) {
                try {
                    TraceFileReader reader(fuzzed, mode);
                    EventLog log; // survived parsing => must replay
                    reader.replay(&log);
                } catch (const TraceFileError &) {
                    // The typed rejection path — always acceptable.
                }
                // Anything else escapes and fails the test.
            }
        }
    }
}

TEST(TraceRobustnessTest, HeaderCorruptionThrowsInBothModes)
{
    std::vector<std::uint8_t> buf = buildTrace(200, TraceCodec::Varint);
    // Flip a byte inside the header proper (past the 4-byte magic):
    // the header CRC rejects it in strict AND salvage mode — salvage
    // needs trustworthy counts and sizes to cut against.
    buf[9] ^= 0x40;
    EXPECT_THROW(TraceFileReader{buf}, TraceFileError);
    EXPECT_THROW(TraceFileReader(buf, TraceReadMode::Salvage),
                 TraceFileError);
}

// ---------------------------------------------------------------------
// Pinned bytes and legacy files
// ---------------------------------------------------------------------

/** A fixed stream with every header field set, for byte pinning. */
std::vector<std::uint8_t>
goldenContainer(TraceCodec codec)
{
    TraceFileMeta meta = syntheticMeta();
    meta.storageMode = TraceStorageMode::Fp16;
    std::vector<std::uint8_t> buf;
    TraceFileWriter writer(buf, meta, codec);
    emitEvents(writer, 3000);
    TraceWorkloadSummary summary;
    summary.rays = 1;
    summary.samples = 2;
    summary.indexOps = 3;
    summary.vertexFetches = 4;
    summary.gatherBytes = 5;
    summary.interpOps = 6;
    summary.mlpMacs = 7;
    summary.compositeOps = 8;
    summary.streamedBytes = 9;
    summary.randomBytes = 10;
    summary.ritEntries = 11;
    summary.ritBytes = 12;
    summary.vertexBytes = 13;
    writer.setWorkloadSummary(summary);
    writer.close();
    return buf;
}

std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(TraceRobustnessTest, VarintContainerBytesArePinned)
{
    // The Varint container of a fixed stream, as written before the
    // CRC moved to slicing-by-8: header CRC, checkpoint CRCs and the
    // varint stage must not change by a single byte.
    const std::vector<std::uint8_t> varint =
        goldenContainer(TraceCodec::Varint);
    EXPECT_EQ(varint.size(), 15882u);
    EXPECT_EQ(fnv1a64(varint), 0x63d5121301aaf410ull);

    // The reference encoder rebuilds the codec-1 container the old
    // writer produced for the same stream, byte for byte.
    const std::vector<std::uint8_t> range = test::rangeContainerFrom(varint);
    EXPECT_EQ(range.size(), 9903u);
    EXPECT_EQ(fnv1a64(range), 0x5989dc43fadcd88eull);

    // The header CRC agrees with the byte-at-a-time reference for
    // headers of every length mod 8 the slicing loop can leave over
    // (the scene name sets the length).
    for (std::size_t len = 0; len < 24; ++len) {
        TraceFileMeta meta = syntheticMeta();
        meta.scene.clear();
        for (std::size_t i = 0; i < len; ++i)
            meta.scene.push_back(static_cast<char>(0x20 + (i * 37) % 95));
        std::vector<std::uint8_t> buf;
        TraceFileWriter writer(buf, meta, TraceCodec::Varint);
        writer.onAccess(MemAccess{4096, 16, 0});
        writer.close();
        const std::size_t headerBytes =
            buf.size() - TraceFileReader(buf).payloadBytes();
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<std::uint32_t>(buf[headerBytes - 4 + i])
                      << (8 * i);
        EXPECT_EQ(stored, test::crc32(buf.data(), headerBytes - 4))
            << "scene length " << len;
    }
}

TEST(TraceRobustnessTest, LegacyRangeFilesReplayLikeRansAndVarint)
{
    // Existing codec-1 captures keep opening: a Range container replays
    // the same events as the Rans and Varint containers of the stream,
    // in both read modes, with no salvage needed.
    const std::vector<std::uint8_t> varint =
        goldenContainer(TraceCodec::Varint);
    const std::vector<std::uint8_t> rans = goldenContainer(TraceCodec::Rans);
    const std::vector<std::uint8_t> range = test::rangeContainerFrom(varint);

    EventLog expect;
    TraceFileReader(varint).replay(&expect);
    ASSERT_FALSE(expect.events.empty());
    for (TraceReadMode mode :
         {TraceReadMode::Strict, TraceReadMode::Salvage}) {
        for (const auto *buf : {&varint, &rans, &range}) {
            TraceFileReader reader(*buf, mode);
            EXPECT_FALSE(reader.recovery().salvaged);
            EXPECT_TRUE(reader.hasWorkloadSummary());
            EXPECT_EQ(reader.workloadSummary().vertexBytes, 13u);
            EventLog log;
            reader.replay(&log);
            EXPECT_TRUE(log.events == expect.events)
                << traceCodecName(reader.codec());
        }
    }
    EXPECT_EQ(TraceFileReader(range).codec(), TraceCodec::Range);
    EXPECT_EQ(TraceFileReader(rans).codec(), TraceCodec::Rans);
    // Static rANS stores the stream smaller than the adaptive coder.
    EXPECT_LT(rans.size(), range.size());
}

TEST(TraceRobustnessTest, WriterRejectsCodecsItCannotWrite)
{
    std::vector<std::uint8_t> buf;
    EXPECT_THROW(TraceFileWriter(buf, syntheticMeta(), TraceCodec::Range),
                 std::invalid_argument);
    EXPECT_THROW(TraceFileWriter(buf, syntheticMeta(),
                                 static_cast<TraceCodec>(3)),
                 std::invalid_argument);
    EXPECT_STREQ(traceCodecName(TraceCodec::Varint), "varint");
    EXPECT_STREQ(traceCodecName(TraceCodec::Range), "range");
    EXPECT_STREQ(traceCodecName(TraceCodec::Rans), "rans");
    EXPECT_STREQ(traceCodecName(static_cast<TraceCodec>(3)), "unknown");

    // An old build's view of a newer codec: a typed rejection naming it.
    std::vector<std::uint8_t> future = buildTrace(10, TraceCodec::Rans);
    future[6] = 3;
    try {
        TraceFileReader reader(future);
        FAIL() << "expected TraceFileError";
    } catch (const TraceFileError &e) {
        // The codec byte is checked before the header CRC.
        EXPECT_NE(std::string(e.what()).find("unknown trace-file codec 3"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Forged rANS payloads
// ---------------------------------------------------------------------

/** Codec-2 table bytes for @p freq, in the documented layout. */
std::vector<std::uint8_t>
ransTable(const std::vector<std::uint32_t> &freq)
{
    std::vector<std::uint8_t> out;
    for (std::size_t s = 0; s < 256; ++s) {
        std::uint32_t f = s < freq.size() ? freq[s] : 0;
        do {
            out.push_back(static_cast<std::uint8_t>((f & 0x7F) |
                                                    (f >= 0x80 ? 0x80 : 0)));
            f >>= 7;
        } while (f);
        if ((s < freq.size() ? freq[s] : 0) != 0)
            continue;
        std::uint8_t run = 0;
        while (s + 1 < 256 && (s + 1 >= freq.size() || freq[s + 1] == 0)) {
            ++s;
            ++run;
        }
        out.push_back(run);
    }
    return out;
}

/** Length of the codec-2 table at the front of @p stored. */
std::size_t
ransTableBytes(const std::vector<std::uint8_t> &stored)
{
    std::size_t pos = 0;
    for (int s = 0; s < 256; ++s) {
        std::uint32_t f = 0;
        for (int shift = 0;; shift += 7) {
            std::uint8_t b = stored.at(pos++);
            f |= static_cast<std::uint32_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
        }
        if (f == 0)
            s += stored.at(pos++);
    }
    return pos;
}

/**
 * Read @p forged in both modes: Strict must throw TraceFileError;
 * Salvage must throw it or hand back a salvaged prefix that replays.
 * Returning at all proves the decoder did not spin.
 */
void
expectRejectedOrSalvaged(const std::vector<std::uint8_t> &forged,
                         const char *what)
{
    EXPECT_THROW(TraceFileReader{forged}, TraceFileError) << what;
    try {
        TraceFileReader reader(forged, TraceReadMode::Salvage);
        EXPECT_TRUE(reader.recovery().salvaged) << what;
        EventLog log;
        reader.replay(&log);
        EXPECT_EQ(log.events.size(), reader.recovery().keptEvents) << what;
    } catch (const TraceFileError &) {
    }
}

TEST(TraceRobustnessTest, ForgedRansTablesAndStatesAreRejectedOrSalvaged)
{
    const std::vector<std::uint8_t> clean = buildTrace(1500, TraceCodec::Rans);
    const std::size_t storedBytes = TraceFileReader(clean).payloadBytes();
    const std::vector<std::uint8_t> stored(clean.end() - storedBytes,
                                           clean.end());
    auto forge = [&](const std::vector<std::uint8_t> &payload) {
        return test::withStoredPayload(clean, TraceCodec::Rans, payload);
    };
    auto cat = [](std::vector<std::uint8_t> a,
                  const std::vector<std::uint8_t> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    const std::vector<std::uint8_t> zeros(64, 0);

    // The helper itself round-trips: the clean payload re-forged parses.
    EXPECT_NO_THROW(TraceFileReader{forge(stored)});

    // Frequencies that do not sum to 2^12, short and long.
    expectRejectedOrSalvaged(forge(cat(ransTable({4095}), zeros)),
                             "sum 4095");
    expectRejectedOrSalvaged(forge(cat(ransTable({4096, 1}), zeros)),
                             "sum 4097");
    expectRejectedOrSalvaged(forge(cat(ransTable({5000}), zeros)),
                             "frequency above 4096");
    // An all-zero table.
    expectRejectedOrSalvaged(forge(cat(ransTable({}), zeros)), "all zero");
    // A table longer than the stored bytes: every proper prefix of a
    // valid table.
    const std::vector<std::uint8_t> table = ransTable({1000, 3000, 96});
    for (std::size_t keep = 0; keep < table.size(); ++keep)
        expectRejectedOrSalvaged(
            forge(std::vector<std::uint8_t>(table.begin(),
                                            table.begin() + keep)),
            "truncated table");
    // A zero-run byte that runs past symbol 255.
    expectRejectedOrSalvaged(forge({0x00, 0xFF, 0x00}), "run past 255");
    // A valid table with zero initial states over an all-zero payload,
    // with one symbol and with several: the states never climb out of
    // zero, and the decode must still stop.
    expectRejectedOrSalvaged(forge(cat(ransTable({4096}), zeros)),
                             "zero states, one symbol");
    expectRejectedOrSalvaged(forge(cat(table, zeros)),
                             "zero states, three symbols");
    // The real table with its states and stream zeroed.
    const std::size_t realTable = ransTableBytes(stored);
    ASSERT_LT(realTable, stored.size());
    std::vector<std::uint8_t> zeroed = stored;
    std::fill(zeroed.begin() + realTable, zeroed.end(), 0);
    expectRejectedOrSalvaged(forge(zeroed), "zero states, real table");
    // The real table and states with the last quarter of the stream
    // zeroed: salvage keeps the checkpoint-valid front (the first
    // checkpoint sits ~60% into this stream).
    std::vector<std::uint8_t> tailZeroed = stored;
    std::fill(tailZeroed.begin() + stored.size() * 3 / 4, tailZeroed.end(),
              0);
    expectRejectedOrSalvaged(forge(tailZeroed), "zeroed tail");
    TraceFileReader salvaged(forge(tailZeroed), TraceReadMode::Salvage);
    EXPECT_GT(salvaged.recovery().checkpointsVerified, 0u);
}

TEST(TraceRobustnessTest, FileBackendFinalizesAtomically)
{
    const std::string path =
        testing::TempDir() + "cicero_atomic_test.ctrace";
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmp.c_str());

    {
        TraceFileWriter writer(path, syntheticMeta());
        emitEvents(writer, 500);
        // Mid-write: the destination must not exist yet (a path that
        // exists is the contract for "complete container").
        std::FILE *probe = std::fopen(path.c_str(), "rb");
        EXPECT_EQ(probe, nullptr);
        if (probe)
            std::fclose(probe);
        writer.close();
    }

    // Closed: destination parses, no .tmp litter.
    TraceFileReader reader(path);
    EXPECT_EQ(reader.counts().accesses, 500u);
    std::FILE *left = std::fopen(tmp.c_str(), "rb");
    EXPECT_EQ(left, nullptr);
    if (left)
        std::fclose(left);
    std::remove(path.c_str());
}

TEST(TraceRobustnessTest, InjectedWriteFaultLeavesNoFile)
{
    const std::string path =
        testing::TempDir() + "cicero_write_fault.ctrace";
    std::remove(path.c_str());

    FaultScope scope("trace_write:count=1");
    {
        TraceFileWriter writer(path, syntheticMeta());
        emitEvents(writer, 100);
        EXPECT_THROW(writer.close(), FaultInjectedError);
        // close() is idempotent even after the fault: the destructor's
        // implicit close must not retry (and must not throw).
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "a failed close must not publish a file";
    if (f)
        std::fclose(f);
    std::FILE *t = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(t, nullptr);
    if (t)
        std::fclose(t);
}

TEST(TraceRobustnessTest, InjectedReadAndFlushFaultsAreTyped)
{
    std::vector<std::uint8_t> buf = buildTrace(50, TraceCodec::Varint);
    {
        FaultScope scope("trace_read:count=1");
        EXPECT_THROW(TraceFileReader{buf}, FaultInjectedError);
        // Window exhausted: the very next read succeeds.
        EXPECT_NO_THROW(TraceFileReader{buf});
    }
    {
        FaultScope scope("trace_flush:count=1");
        std::vector<std::uint8_t> out;
        TraceFileWriter writer(out, syntheticMeta());
        EXPECT_THROW(writer.onFlush(), FaultInjectedError);
    }
}

TEST(TraceRobustnessTest, MissingFileIsAnIoErrorWithPath)
{
    const std::string path = testing::TempDir() + "cicero_no_such.ctrace";
    std::remove(path.c_str());
    try {
        TraceFileReader reader(path);
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_EQ(e.path(), path);
        EXPECT_NE(e.errnum(), 0);
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
}

} // namespace
} // namespace cicero

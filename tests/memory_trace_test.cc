/**
 * @file
 * Unit tests for the trace-plumbing layer: TraceTee fan-out,
 * WarpInterleaver interleaving/ray-id integrity, and RayTraceBuffer's
 * ordered replay (the deterministic parallel trace-capture contract).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hh"
#include "memory/trace.hh"

namespace cicero {
namespace {

MemAccess
acc(std::uint64_t addr, std::uint32_t bytes = 64, std::uint32_t ray = 0)
{
    return MemAccess{addr, bytes, ray};
}

/** Records the full event stream, not just the accesses. */
struct EventRecorder : public TraceSink
{
    std::vector<std::string> events;
    std::vector<MemAccess> accesses;

    void
    onAccess(const MemAccess &a) override
    {
        accesses.push_back(a);
        events.push_back("A" + std::to_string(a.addr) + ":r" +
                         std::to_string(a.rayId));
    }
    void
    onRayEnd(std::uint32_t rayId) override
    {
        events.push_back("E" + std::to_string(rayId));
    }
    void onFlush() override { events.push_back("F"); }
};

// ---------------------------------------------------------------------
// TraceTee
// ---------------------------------------------------------------------

TEST(TraceTeeTest, FansOutAllEventKinds)
{
    EventRecorder a, b, c;
    TraceTee tee;
    tee.addSink(&a);
    tee.addSink(&b);
    tee.addSink(&c);

    tee.onAccess(acc(0, 64, 3));
    tee.onRayEnd(3);
    tee.onAccess(acc(128, 32, 4));
    tee.onRayEnd(4);
    tee.onFlush();

    std::vector<std::string> expect = {"A0:r3", "E3", "A128:r4", "E4",
                                       "F"};
    EXPECT_EQ(a.events, expect);
    EXPECT_EQ(b.events, expect);
    EXPECT_EQ(c.events, expect);
}

// ---------------------------------------------------------------------
// WarpInterleaver
// ---------------------------------------------------------------------

TEST(WarpInterleaverTest, RoundRobinWithUnequalRayLengths)
{
    // Rays of lengths 3, 1, 2: the round-robin keeps pulling from the
    // rays that still have accesses once the short ones are exhausted.
    EventRecorder rec;
    WarpInterleaver il(3);
    il.addSink(&rec);

    for (int i = 0; i < 3; ++i)
        il.onAccess(acc(100 + i, 64, 10));
    il.onRayEnd(10);
    il.onAccess(acc(200, 64, 11));
    il.onRayEnd(11);
    for (int i = 0; i < 2; ++i)
        il.onAccess(acc(300 + i, 64, 12));
    il.onRayEnd(12);

    // 3 pending groups == ways: drained eagerly, no flush needed.
    std::vector<std::string> expect = {
        "A100:r10", "A200:r11", "A300:r12", // round 0
        "A101:r10", "A301:r12",             // round 1 (ray 11 done)
        "A102:r10",                         // round 2
        "E10", "E11", "E12"};
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, RayEndCarriesRealIdNotSynthetic)
{
    // Regression: drain() used to emit onRayEnd(0) with a fabricated
    // id. Downstream sinks must only ever see the ids that issued
    // accesses.
    EventRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 77));
    il.onRayEnd(77);
    il.onAccess(acc(64, 64, 99));
    il.onRayEnd(99);

    ASSERT_EQ(rec.events.size(), 4u);
    EXPECT_EQ(rec.events[2], "E77");
    EXPECT_EQ(rec.events[3], "E99");
}

TEST(WarpInterleaverTest, MidRayFlushDrainsCurrentGroup)
{
    // A flush while a ray is still open must close that ray first,
    // keep its id, and then drain everything downstream.
    EventRecorder rec;
    WarpInterleaver il(8);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 5));
    il.onRayEnd(5);
    il.onAccess(acc(64, 64, 6)); // ray 6 left open...
    il.onFlush();                // ...and closed by the flush

    std::vector<std::string> expect = {"A0:r5", "A64:r6", "E5", "E6",
                                       "F"};
    EXPECT_EQ(rec.events, expect);
}

TEST(WarpInterleaverTest, ImplicitRayBoundaryOnIdChange)
{
    // Back-to-back accesses with different ray ids imply a boundary
    // even without an explicit onRayEnd.
    EventRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);

    il.onAccess(acc(0, 64, 1));
    il.onAccess(acc(64, 64, 2)); // implicit end of ray 1
    il.onFlush();

    std::vector<std::string> expect = {"A0:r1", "A64:r2", "E1", "E2",
                                       "F"};
    EXPECT_EQ(rec.events, expect);
}

// ---------------------------------------------------------------------
// RayTraceBuffer
// ---------------------------------------------------------------------

TEST(RayTraceBufferTest, ReplaysSlotsInCanonicalOrder)
{
    EventRecorder rec;
    RayTraceBuffer buf(3, &rec);

    // Record out of order (as parallel workers would).
    {
        RayTraceBuffer::SlotSink s2 = buf.sink(2);
        s2.onAccess(acc(200, 64, 2));
        s2.onRayEnd(2);
    }
    {
        RayTraceBuffer::SlotSink s0 = buf.sink(0);
        s0.onAccess(acc(0, 64, 0));
        s0.onAccess(acc(64, 64, 0));
        s0.onRayEnd(0);
    }
    {
        RayTraceBuffer::SlotSink s1 = buf.sink(1); // empty ray
        s1.onRayEnd(1);
    }

    buf.replay();
    rec.onFlush();

    std::vector<std::string> expect = {"A0:r0", "A64:r0", "E0", "E1",
                                       "A200:r2", "E2", "F"};
    EXPECT_EQ(rec.events, expect);
}

TEST(RayTraceBufferTest, SerialAndParallelCaptureAreByteIdentical)
{
    // The core contract: recording under a parallel loop replays a
    // stream byte-identical to the serial emission.
    const int numRays = 64;
    const int accessesOf[4] = {3, 0, 7, 1}; // cycle of ray lengths

    auto emitRay = [&](std::uint32_t ray, TraceSink *sink) {
        int n = accessesOf[ray % 4];
        for (int i = 0; i < n; ++i)
            sink->onAccess(acc(ray * 1000ull + i * 64, 64, ray));
        sink->onRayEnd(ray);
    };

    // Serial reference stream.
    EventRecorder serial;
    for (std::uint32_t r = 0; r < numRays; ++r)
        emitRay(r, &serial);
    serial.onFlush();

    // Parallel capture through the buffer.
    setParallelThreadCount(4);
    EventRecorder parallel;
    {
        RayTraceBuffer buf(numRays, &parallel);
        parallelFor(0, numRays, 1, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t r = b; r < e; ++r) {
                RayTraceBuffer::SlotSink sink =
                    buf.sink(static_cast<std::size_t>(r));
                emitRay(static_cast<std::uint32_t>(r), &sink);
            }
        });
        buf.replay();
        parallel.onFlush();
    }
    setParallelThreadCount(0);

    EXPECT_EQ(serial.events, parallel.events);
    ASSERT_EQ(serial.accesses.size(), parallel.accesses.size());
    for (std::size_t i = 0; i < serial.accesses.size(); ++i) {
        EXPECT_EQ(serial.accesses[i].addr, parallel.accesses[i].addr);
        EXPECT_EQ(serial.accesses[i].bytes, parallel.accesses[i].bytes);
        EXPECT_EQ(serial.accesses[i].rayId, parallel.accesses[i].rayId);
    }
}

TEST(RayTraceBufferTest, WindowedPrefixDrainMatchesFullBufferReplay)
{
    // The windowed drain (markCompleted) must deliver a stream
    // byte-identical to the full-buffer replay no matter how chunk
    // completions interleave with slot order.
    const int numRays = 96;
    const int accessesOf[5] = {2, 0, 5, 1, 3};

    auto record = [&](RayTraceBuffer &buf, std::uint32_t ray) {
        RayTraceBuffer::SlotSink sink = buf.sink(ray);
        int n = accessesOf[ray % 5];
        for (int i = 0; i < n; ++i)
            sink.onAccess(acc(ray * 500ull + i * 64, 64, ray));
        sink.onRayEnd(ray);
    };

    // Reference: full-buffer replay, no windowing.
    EventRecorder full;
    {
        RayTraceBuffer buf(numRays, &full);
        for (std::uint32_t r = 0; r < numRays; ++r)
            record(buf, r);
        buf.replay();
        full.onFlush();
    }

    // Windowed: chunks complete out of order (middle, tail, head...),
    // so some marks extend no drainable prefix and the final replay
    // has to pick up the remainder.
    EventRecorder windowed;
    {
        RayTraceBuffer buf(numRays, &windowed);
        for (std::uint32_t r = 0; r < numRays; ++r)
            record(buf, r);
        buf.markCompleted(32, 64); // no prefix yet — nothing drains
        buf.markCompleted(80, 96);
        buf.markCompleted(0, 32);  // prefix [0, 64) becomes drainable
        buf.replay();              // delivers [64, 96)
        windowed.onFlush();
    }
    EXPECT_EQ(full.events, windowed.events);
}

TEST(RayTraceBufferTest, WindowedDrainBoundsPeakBufferedAccesses)
{
    // In-order completion drains as it goes: the high-water mark stays
    // near one chunk's worth of accesses instead of the whole trace.
    const std::uint32_t numRays = 64;
    const std::uint32_t chunk = 8;
    const int perRay = 4;

    EventRecorder rec;
    RayTraceBuffer buf(numRays, &rec);
    for (std::uint32_t c = 0; c < numRays / chunk; ++c) {
        for (std::uint32_t r = c * chunk; r < (c + 1) * chunk; ++r) {
            RayTraceBuffer::SlotSink sink = buf.sink(r);
            for (int i = 0; i < perRay; ++i)
                sink.onAccess(acc(r * 100ull + i, 64, r));
            sink.onRayEnd(r);
        }
        buf.markCompleted(c * chunk, (c + 1) * chunk);
    }
    buf.replay();
    rec.onFlush();

    EXPECT_EQ(rec.accesses.size(), std::size_t(numRays) * perRay);
    // Every chunk drained before the next recorded: peak == one chunk.
    EXPECT_EQ(buf.peakBufferedAccesses(),
              std::uint64_t(chunk) * perRay);
}

TEST(RayTraceBufferTest, DuplicateCompletionMarksNeverReplayDrainedSlots)
{
    // Regression: a markCompleted covering already-drained slots must
    // not rewind the drained prefix and re-deliver events.
    EventRecorder rec;
    RayTraceBuffer buf(8, &rec);
    for (std::uint32_t r = 0; r < 8; ++r) {
        RayTraceBuffer::SlotSink sink = buf.sink(r);
        sink.onAccess(acc(r * 64, 64, r));
        sink.onRayEnd(r);
    }
    buf.markCompleted(0, 8); // drains everything
    std::size_t drainedEvents = rec.events.size();
    buf.markCompleted(0, 4); // stray duplicate — must be a no-op
    buf.markCompleted(2, 6);
    buf.replay();
    rec.onFlush();
    EXPECT_EQ(rec.events.size(), drainedEvents + 1); // just the flush
}

TEST(RayTraceBufferTest, ReplayOfUncountedSlotsKeepsPeakExact)
{
    // replay() delivers slots no markCompleted counted; the buffered
    // total must not wrap below zero, or a later stray mark would
    // report a wrapped high-water mark.
    EventRecorder rec;
    RayTraceBuffer buf(8, &rec);
    for (std::uint32_t r = 0; r < 8; ++r) {
        RayTraceBuffer::SlotSink sink = buf.sink(r);
        sink.onAccess(acc(r * 64, 64, r));
        sink.onAccess(acc(r * 64 + 32, 64, r));
        sink.onRayEnd(r);
    }
    buf.markCompleted(4, 8); // counted, not a prefix: nothing drains
    EXPECT_EQ(buf.peakBufferedAccesses(), 8u);
    buf.replay();            // delivers all 16 accesses
    buf.markCompleted(0, 2); // stray mark of drained slots
    rec.onFlush();
    EXPECT_EQ(rec.accesses.size(), 16u);
    EXPECT_EQ(buf.peakBufferedAccesses(), 8u);
}

TEST(RayTraceBufferTest, WindowedDrainUnderParallelRecordingIsIdentical)
{
    // Full contract under a real parallel loop: concurrent recording +
    // concurrent markCompleted calls still reproduce the serial stream.
    const int numRays = 256;
    const int accessesOf[4] = {3, 0, 7, 1};

    auto emitRay = [&](std::uint32_t ray, TraceSink *sink) {
        int n = accessesOf[ray % 4];
        for (int i = 0; i < n; ++i)
            sink->onAccess(acc(ray * 1000ull + i * 64, 64, ray));
        sink->onRayEnd(ray);
    };

    EventRecorder serial;
    for (std::uint32_t r = 0; r < numRays; ++r)
        emitRay(r, &serial);
    serial.onFlush();

    setParallelThreadCount(4);
    EventRecorder windowed;
    {
        RayTraceBuffer buf(numRays, &windowed);
        parallelFor(0, numRays, 16,
                    [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t r = b; r < e; ++r) {
                            RayTraceBuffer::SlotSink sink =
                                buf.sink(static_cast<std::size_t>(r));
                            emitRay(static_cast<std::uint32_t>(r),
                                    &sink);
                        }
                        buf.markCompleted(
                            static_cast<std::size_t>(b),
                            static_cast<std::size_t>(e));
                    });
        buf.replay();
        windowed.onFlush();
    }
    setParallelThreadCount(0);

    EXPECT_EQ(serial.events, windowed.events);
}

TEST(RayTraceBufferTest, FeedsBufferingSinksCorrectly)
{
    // Replay through a WarpInterleaver: the interleaver must see the
    // canonical stream and therefore produce its usual round-robin.
    EventRecorder direct;
    {
        WarpInterleaver il(2);
        il.addSink(&direct);
        for (std::uint32_t r = 0; r < 4; ++r) {
            for (int i = 0; i < 2; ++i)
                il.onAccess(acc(r * 100ull + i, 64, r));
            il.onRayEnd(r);
        }
        il.onFlush();
    }

    EventRecorder buffered;
    {
        WarpInterleaver il(2);
        il.addSink(&buffered);
        RayTraceBuffer buf(4, &il);
        for (std::uint32_t r = 0; r < 4; ++r) { // any order works
            std::uint32_t slot = 3 - r;
            RayTraceBuffer::SlotSink sink = buf.sink(slot);
            for (int i = 0; i < 2; ++i)
                sink.onAccess(acc(slot * 100ull + i, 64, slot));
            sink.onRayEnd(slot);
        }
        buf.replay();
        il.onFlush();
    }

    EXPECT_EQ(direct.events, buffered.events);
}

} // namespace
} // namespace cicero

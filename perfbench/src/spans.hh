/**
 * @file
 * The benchmark's span recorder. Spans are recorded around calls into
 * the library (never inside it): name, start, end, parent span and
 * request id. They are kept in memory and written out once, at exit,
 * as Chrome trace-event JSON (chrome://tracing, Perfetto).
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (selfTimes()).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since the first call in this process. */
double nowS();

/** One recorded interval. Times are nowS() seconds. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = 0; //!< 0 = root
    std::int64_t request = -1;
};

/** Per-name aggregate of self time. */
struct SelfTime
{
    std::uint64_t count = 0;
    double selfS = 0.0; //!< summed self time
};

/**
 * Self time per span name: each span's duration minus the union of its
 * direct children's intervals clipped to its own interval.
 */
std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &spans);

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder() = default;
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** A fresh span id (never 0). */
    std::int64_t newId() { return _nextId.fetch_add(1) + 1; }

    /** Record a finished span; returns its id (@p id, or a fresh one). */
    std::int64_t add(const std::string &name, double start, double end,
                     std::int64_t parent, std::int64_t request,
                     std::int64_t id = 0);

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON to @p path. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::atomic<std::int64_t> _nextId{0};
    mutable std::mutex _mu;
    std::vector<Span> _spans; //!< guarded by _mu
};

/**
 * RAII span around one call. With a null recorder it records nothing
 * and reads no clock.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::int64_t parent,
               std::int64_t request)
        : _rec(rec), _name(name), _parent(parent), _request(request)
    {
        if (_rec) {
            _id = _rec->newId();
            _start = nowS();
        }
    }
    ~ScopedSpan()
    {
        if (_rec)
            _rec->add(_name, _start, nowS(), _parent, _request, _id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id, for children (0 when not recording). */
    std::int64_t id() const { return _id; }

  private:
    SpanRecorder *_rec;
    const char *_name;
    std::int64_t _parent;
    std::int64_t _request;
    std::int64_t _id = 0;
    double _start = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

/**
 * @file
 * On-chip buffer (cache) models for the Fig. 5 characterization:
 * an LRU set-associative cache and a Belady (oracle replacement) cache,
 * matching the paper's "2 MB on-chip buffer with oracle replacement".
 */

#ifndef CICERO_MEMORY_CACHE_MODEL_HH
#define CICERO_MEMORY_CACHE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memory/trace.hh"

namespace cicero {

/** Shared cache geometry. */
struct CacheConfig
{
    std::uint64_t capacityBytes = 2ull << 20; //!< 2 MB as in the paper
    std::uint32_t lineBytes = 64;
    /**
     * Associativity: lines per set. 0 (the default) = fully
     * associative, the paper's generous baseline assumption; a real
     * design point sets e.g. 4/8/16 ways and pays extra conflict
     * misses — the DSE sweeps this axis to price that gap.
     */
    std::uint32_t ways = 0;

    std::uint64_t numLines() const { return capacityBytes / lineBytes; }

    /** Sets at the configured associativity (1 when fully assoc). */
    std::uint64_t numSets() const
    {
        if (ways == 0)
            return 1;
        return std::max<std::uint64_t>(1, numLines() / ways);
    }
};

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }
};

/**
 * LRU cache simulated as a TraceSink.
 *
 * With CacheConfig::ways == 0 (the default) it is fully associative —
 * the generous assumption for the baseline: real caches only do
 * worse, so the measured inefficiency is a lower bound. With ways set
 * it models a set-associative cache (set = line mod numSets, LRU
 * within the set), which adds the conflict misses a real design point
 * pays; the DSE sweeps associativity through this path.
 *
 * The fully associative path is flat: numLines() slots linked into an
 * intrusive recency list by index, found through an open-addressed
 * table of slot indices (linear probing, at most half full, backward-
 * shift deletion so no tombstones build up). Its storage is sized once,
 * on the first touch — about 24 bytes per cache line — and a hit only
 * relinks two indices, so the replay of a frame allocates nothing per
 * access. A cache smaller than one line misses every access.
 */
class LruCache : public TraceSink
{
  public:
    /**
     * @throws std::invalid_argument when a fully associative cache has
     *         2^32 - 1 lines or more (slots are 32-bit indices).
     */
    explicit LruCache(const CacheConfig &config = CacheConfig{});

    void onAccess(const MemAccess &access) override;

    const CacheStats &stats() const { return _stats; }
    void reset();

    /**
     * Fully associative probe geometry, public so tests can build key
     * sets that collide: a cache of @p lines lines probes a table of
     * tableSize(lines) buckets (the smallest power of two >= 2 x lines,
     * at least 2), and @p line's probe starts at homeBucket(line,
     * tableSize).
     */
    static std::size_t tableSize(std::uint64_t lines);
    static std::size_t homeBucket(std::uint64_t line, std::size_t tableSize);

  private:
    static constexpr std::uint32_t kNone = ~0u;

    /** Fibonacci hashing: the top 64 - @p shift bits of the product
     *  mix every bit of the line, high address bits included. */
    static std::size_t
    bucket(std::uint64_t line, unsigned shift)
    {
        return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >>
                                        shift);
    }

    /** A fully associative line slot, linked MRU to LRU by index. */
    struct Slot
    {
        std::uint64_t line = 0;
        std::uint32_t prev = kNone; //!< toward the MRU end
        std::uint32_t next = kNone; //!< toward the LRU end
    };

    void touch(std::uint64_t line);
    void touchSetAssoc(std::uint64_t line);
    std::size_t findFree(std::uint64_t line) const;
    void eraseFromTable(std::uint64_t line);
    void unlink(std::uint32_t slot);
    void pushFront(std::uint32_t slot);

    CacheConfig _config;
    CacheStats _stats;
    std::vector<Slot> _slots;          //!< [0, _used) hold lines
    std::vector<std::uint32_t> _table; //!< slot index or kNone
    unsigned _shift = 63;              //!< 64 - log2(_table.size())
    std::uint32_t _used = 0;
    std::uint32_t _head = kNone; //!< most recently used slot
    std::uint32_t _tail = kNone; //!< least recently used slot
    /**
     * Set-associative mode only: per-set resident lines, most
     * recently used at the front. Sets are at most `ways` long, so a
     * linear scan matches real hardware cost models and beats a
     * per-set map at these sizes.
     */
    std::vector<std::vector<std::uint64_t>> _sets;
};

/**
 * Belady/oracle-replacement cache. Because the oracle needs the future,
 * this is a two-pass simulator: record the line-ID sequence as the trace
 * streams in, then simulate() computes the optimal-replacement miss rate.
 */
class BeladyCache : public TraceSink
{
  public:
    explicit BeladyCache(const CacheConfig &config = CacheConfig{});

    void onAccess(const MemAccess &access) override;

    /** Run the oracle simulation over the recorded sequence. */
    CacheStats simulate() const;

    std::size_t recordedAccesses() const { return _sequence.size(); }
    void reset();

  private:
    CacheConfig _config;
    std::vector<std::uint32_t> _sequence; //!< compressed line IDs
    std::unordered_map<std::uint64_t, std::uint32_t> _lineId;
};

} // namespace cicero

#endif // CICERO_MEMORY_CACHE_MODEL_HH

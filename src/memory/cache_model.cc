#include "memory/cache_model.hh"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

namespace cicero {

namespace {

/** 64 - log2(@p tableSize) for a power-of-two table size. */
unsigned
hashShift(std::size_t tableSize)
{
    unsigned shift = 64;
    while ((std::size_t(1) << (64 - shift)) < tableSize)
        --shift;
    return shift;
}

} // namespace

LruCache::LruCache(const CacheConfig &config) : _config(config)
{
    if (_config.ways == 0 && _config.numLines() >= kNone)
        throw std::invalid_argument(
            "LruCache: a fully associative cache needs fewer than "
            "2^32 - 1 lines");
}

std::size_t
LruCache::tableSize(std::uint64_t lines)
{
    std::size_t size = 2;
    while (size < 2 * lines)
        size *= 2;
    return size;
}

std::size_t
LruCache::homeBucket(std::uint64_t line, std::size_t tableSize)
{
    return bucket(line, hashShift(tableSize));
}

void
LruCache::touchSetAssoc(std::uint64_t line)
{
    ++_stats.accesses;
    if (_sets.empty())
        _sets.resize(_config.numSets());
    std::vector<std::uint64_t> &set = _sets[line % _sets.size()];
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
        ++_stats.hits;
        set.erase(it);
        set.insert(set.begin(), line); // move to MRU
        return;
    }
    ++_stats.misses;
    if (set.size() >= _config.ways)
        set.pop_back(); // evict the set's LRU line
    set.insert(set.begin(), line);
}

std::size_t
LruCache::findFree(std::uint64_t line) const
{
    const std::size_t mask = _table.size() - 1;
    std::size_t pos = bucket(line, _shift);
    while (_table[pos] != kNone)
        pos = (pos + 1) & mask;
    return pos;
}

void
LruCache::eraseFromTable(std::uint64_t line)
{
    const std::size_t mask = _table.size() - 1;
    std::size_t hole = bucket(line, _shift);
    while (_slots[_table[hole]].line != line) {
        hole = (hole + 1) & mask;
        assert(_table[hole] != kNone); // the line is resident
    }
    // Backward-shift deletion: pull each later entry of the cluster
    // into the hole when the hole lies on its probe path (between its
    // home bucket and where it sits, wrapping at the table end).
    for (std::size_t j = (hole + 1) & mask; _table[j] != kNone;
         j = (j + 1) & mask) {
        std::size_t home = bucket(_slots[_table[j]].line, _shift);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            _table[hole] = _table[j];
            hole = j;
        }
    }
    _table[hole] = kNone;
}

void
LruCache::unlink(std::uint32_t slot)
{
    const Slot &s = _slots[slot];
    if (s.prev != kNone)
        _slots[s.prev].next = s.next;
    else
        _head = s.next;
    if (s.next != kNone)
        _slots[s.next].prev = s.prev;
    else
        _tail = s.prev;
}

void
LruCache::pushFront(std::uint32_t slot)
{
    _slots[slot].prev = kNone;
    _slots[slot].next = _head;
    if (_head != kNone)
        _slots[_head].prev = slot;
    else
        _tail = slot;
    _head = slot;
}

void
LruCache::touch(std::uint64_t line)
{
    if (_config.ways != 0) {
        touchSetAssoc(line);
        return;
    }
    ++_stats.accesses;
    const std::uint64_t capacity = _config.numLines();
    if (capacity == 0) {
        ++_stats.misses;
        return;
    }
    if (_table.empty()) {
        _slots.resize(capacity);
        _table.assign(tableSize(capacity), kNone);
        _shift = hashShift(_table.size());
    }

    const std::size_t mask = _table.size() - 1;
    std::size_t pos = bucket(line, _shift);
    for (; _table[pos] != kNone; pos = (pos + 1) & mask) {
        std::uint32_t slot = _table[pos];
        if (_slots[slot].line == line) {
            ++_stats.hits;
            if (slot != _head) { // move to MRU
                unlink(slot);
                pushFront(slot);
            }
            return;
        }
    }
    ++_stats.misses;
    std::uint32_t slot;
    if (_used < capacity) {
        slot = _used++;
    } else {
        // Evict the LRU line and reuse its slot. The deletion can shift
        // entries back into this line's probe path, so probe again.
        slot = _tail;
        eraseFromTable(_slots[slot].line);
        unlink(slot);
        pos = findFree(line);
    }
    _slots[slot].line = line;
    _table[pos] = slot;
    pushFront(slot);
}

void
LruCache::onAccess(const MemAccess &access)
{
    std::uint64_t first = access.addr / _config.lineBytes;
    std::uint64_t last = (access.addr + std::max(access.bytes, 1u) - 1) /
                         _config.lineBytes;
    for (std::uint64_t l = first; l <= last; ++l)
        touch(l);
}

void
LruCache::reset()
{
    _stats = CacheStats{};
    std::fill(_table.begin(), _table.end(), kNone);
    _used = 0;
    _head = _tail = kNone;
    _sets.clear();
}

BeladyCache::BeladyCache(const CacheConfig &config) : _config(config)
{
}

void
BeladyCache::onAccess(const MemAccess &access)
{
    std::uint64_t first = access.addr / _config.lineBytes;
    std::uint64_t last = (access.addr + std::max(access.bytes, 1u) - 1) /
                         _config.lineBytes;
    for (std::uint64_t l = first; l <= last; ++l) {
        auto [it, inserted] = _lineId.try_emplace(
            l, static_cast<std::uint32_t>(_lineId.size()));
        _sequence.push_back(it->second);
    }
}

CacheStats
BeladyCache::simulate() const
{
    CacheStats stats;
    const std::size_t n = _sequence.size();
    if (n == 0)
        return stats;

    // next[i]: position of the next access to the same line after i.
    constexpr std::uint64_t kNever = ~0ull;
    std::vector<std::uint64_t> next(n, kNever);
    std::vector<std::uint64_t> lastSeen(_lineId.size(), kNever);
    for (std::size_t i = n; i-- > 0;) {
        std::uint32_t line = _sequence[i];
        next[i] = lastSeen[line];
        lastSeen[line] = i;
    }

    // Max-heap of (nextUse, line) identifies the Belady victim: the
    // resident line whose next use is farthest away. Entries are lazily
    // invalidated via residentNext.
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry> heap;
    std::vector<std::uint64_t> residentNext(_lineId.size(), kNever);
    std::vector<char> resident(_lineId.size(), 0);
    std::uint64_t used = 0;
    const std::uint64_t capacity = _config.numLines();

    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t line = _sequence[i];
        ++stats.accesses;
        if (resident[line]) {
            ++stats.hits;
        } else {
            ++stats.misses;
            if (used >= capacity) {
                // Evict the farthest-next-use resident line.
                while (true) {
                    auto [nu, victim] = heap.top();
                    heap.pop();
                    if (resident[victim] && residentNext[victim] == nu) {
                        resident[victim] = 0;
                        --used;
                        break;
                    }
                }
            }
            resident[line] = 1;
            ++used;
        }
        residentNext[line] = next[i];
        heap.emplace(next[i], line);
    }
    return stats;
}

void
BeladyCache::reset()
{
    _sequence.clear();
    _lineId.clear();
}

} // namespace cicero

/**
 * @file
 * Slow reference LRU cache for differential tests: the std::list +
 * std::unordered_map LruCache the cache model used before its fully
 * associative path moved to a flat probe table, copied verbatim apart
 * from the class name and being header-only. The flat model must
 * report the same statistics after every access.
 */

#ifndef CICERO_TESTS_LRU_REFERENCE_HH
#define CICERO_TESTS_LRU_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "memory/cache_model.hh"

namespace cicero::test {

class ReferenceLruCache : public TraceSink
{
  public:
    explicit ReferenceLruCache(const CacheConfig &config = CacheConfig{})
        : _config(config)
    {
    }

    void
    onAccess(const MemAccess &access) override
    {
        std::uint64_t first = access.addr / _config.lineBytes;
        std::uint64_t last =
            (access.addr + std::max(access.bytes, 1u) - 1) /
            _config.lineBytes;
        for (std::uint64_t l = first; l <= last; ++l)
            touch(l);
    }

    const CacheStats &stats() const { return _stats; }

    void
    reset()
    {
        _stats = CacheStats{};
        _lru.clear();
        _where.clear();
        _sets.clear();
    }

  private:
    void
    touchSetAssoc(std::uint64_t line)
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

    void
    touch(std::uint64_t line)
    {
        if (_config.ways != 0) {
            touchSetAssoc(line);
            return;
        }
        ++_stats.accesses;
        auto it = _where.find(line);
        if (it != _where.end()) {
            ++_stats.hits;
            _lru.erase(it->second);
            _lru.push_front(line);
            it->second = _lru.begin();
            return;
        }
        ++_stats.misses;
        if (_lru.size() >= _config.numLines()) {
            std::uint64_t victim = _lru.back();
            _lru.pop_back();
            _where.erase(victim);
        }
        _lru.push_front(line);
        _where[line] = _lru.begin();
    }

    CacheConfig _config;
    CacheStats _stats;
    std::list<std::uint64_t> _lru; //!< front = most recent (fully assoc)
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        _where;
    std::vector<std::vector<std::uint64_t>> _sets;
};

} // namespace cicero::test

#endif // CICERO_TESTS_LRU_REFERENCE_HH

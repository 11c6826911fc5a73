/**
 * @file
 * On-disk memoization cache for completed simulation runs.
 *
 * Layout: one file per entry, `<dir>/<job-key>.json`, holding the
 * run-record JSON exactly as the server will return it — a cache hit
 * is therefore byte-identical to the run that populated it. Writes
 * go through a temp file + rename so a crashed daemon never leaves a
 * truncated entry behind; foreign files in the directory are
 * ignored, and an entry the server finds unreadable is erase()d.
 *
 * Eviction is LRU by a byte budget over the stored record sizes. The
 * recency order is kept in memory (a monotonic use counter) and
 * seeded from file mtimes when an existing directory is adopted, so
 * the order survives daemon restarts approximately and exactly while
 * one daemon owns the directory. All methods are thread-safe.
 */

#ifndef CARVE_SERVICE_RESULT_CACHE_HH
#define CARVE_SERVICE_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace carve {
namespace service {

class ResultCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t evictions = 0;
        std::uint64_t bytes = 0;    ///< current resident bytes
        std::uint64_t entries = 0;  ///< current entry count
    };

    /**
     * Adopt (creating if needed) @p dir as the cache directory.
     * @p byte_budget bounds the sum of stored record sizes; 0 means
     * unlimited. An empty @p dir disables the cache entirely (get
     * always misses, put is a no-op).
     */
    ResultCache(std::string dir, std::uint64_t byte_budget);

    /** Stored record bytes for @p key, or nullopt. Bumps recency. */
    std::optional<std::string> get(const std::string &key);

    /**
     * Store @p record_json under @p key (most-recently-used), then
     * evict least-recently-used entries until the budget holds. The
     * entry being stored is never evicted by its own put, even when
     * it exceeds the whole budget on its own.
     */
    void put(const std::string &key, const std::string &record_json);

    /** Drop @p key's entry and its file (a record found unreadable). */
    void erase(const std::string &key);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    Stats stats() const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        std::uint64_t last_use = 0;
    };

    std::string path(const std::string &key) const;
    /** Delete @p it's file and forget the entry (mu_ held). */
    void removeLocked(std::map<std::string, Entry>::iterator it);
    void evictLocked(const std::string &keep);

    const std::string dir_;
    const std::uint64_t budget_;

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_RESULT_CACHE_HH

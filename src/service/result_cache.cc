#include "service/result_cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "service/job_key.hh"

namespace fs = std::filesystem;

namespace carve {
namespace service {

ResultCache::ResultCache(std::string dir, std::uint64_t byte_budget)
    : dir_(std::move(dir)), budget_(byte_budget)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        fatal("result cache: cannot create directory '%s': %s",
              dir_.c_str(), ec.message().c_str());
    }

    // Adopt existing entries, oldest mtime == least recently used.
    struct Found
    {
        std::string key;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (ec)
            break;
        if (!de.is_regular_file(ec))
            continue;
        const fs::path &p = de.path();
        if (p.extension() != ".json")
            continue;
        const std::string key = p.stem().string();
        if (!isJobKey(key))
            continue;  // foreign file; leave it alone
        std::error_code fec;
        const std::uint64_t sz = de.file_size(fec);
        const auto mt = fs::last_write_time(p, fec);
        if (fec)
            continue;
        found.push_back({key, sz, mt});
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime < b.mtime;
              });
    for (const Found &f : found) {
        entries_[f.key] = Entry{f.bytes, ++clock_};
        bytes_ += f.bytes;
    }
    // An adopted directory may exceed a newly shrunk budget.
    std::lock_guard lock(mu_);
    evictLocked(std::string());
}

std::string
ResultCache::path(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

std::optional<std::string>
ResultCache::get(const std::string &key)
{
    if (!enabled())
        return std::nullopt;
    std::lock_guard lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    std::ifstream is(path(key), std::ios::binary);
    if (!is) {
        // Entry vanished underneath us (manual delete); forget it.
        removeLocked(it);
        ++misses_;
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    it->second.last_use = ++clock_;
    ++hits_;
    return ss.str();
}

void
ResultCache::put(const std::string &key,
                 const std::string &record_json)
{
    if (!enabled())
        return;
    std::lock_guard lock(mu_);

    // Temp-write + rename: readers (and crash recovery) only ever
    // see complete records.
    const std::string tmp = path(key) + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os || !(os << record_json).good()) {
            warn("result cache: write to '%s' failed; entry dropped",
                 tmp.c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path(key), ec);
    if (ec) {
        warn("result cache: rename into '%s' failed: %s",
             path(key).c_str(), ec.message().c_str());
        fs::remove(tmp, ec);
        return;
    }

    const auto it = entries_.find(key);
    if (it != entries_.end())
        bytes_ -= it->second.bytes;
    entries_[key] = Entry{record_json.size(), ++clock_};
    bytes_ += record_json.size();
    ++stores_;
    evictLocked(key);
}

void
ResultCache::erase(const std::string &key)
{
    std::lock_guard lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end())
        removeLocked(it);
}

void
ResultCache::removeLocked(std::map<std::string, Entry>::iterator it)
{
    std::error_code ec;
    fs::remove(path(it->first), ec);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
}

void
ResultCache::evictLocked(const std::string &keep)
{
    if (budget_ == 0)
        return;
    while (bytes_ > budget_ && entries_.size() > (keep.empty() ? 0 : 1)) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first == keep)
                continue;
            if (victim == entries_.end() ||
                it->second.last_use < victim->second.last_use) {
                victim = it;
            }
        }
        if (victim == entries_.end())
            return;
        removeLocked(victim);
        ++evictions_;
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.stores = stores_;
    s.evictions = evictions_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

} // namespace service
} // namespace carve

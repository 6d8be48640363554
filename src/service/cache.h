/**
 * @file
 * Compiled-pipeline cache for the phloemd service.
 *
 * A request's dominant cost is frontend -> passes -> flatten; the
 * pipeline it produces is immutable and re-runnable (see
 * driver/compile_service.h), so the daemon keeps an LRU of
 * CompiledPipelinePtr keyed by everything that determines the
 * compilation:
 *
 *   key = configFingerprint(SysConfig)        (FNV-1a, Table III knobs)
 *       + FNV-1a(source text)
 *       + FNV-1a(kernel name + compile options)
 *
 * The SysConfig fingerprint is part of the key because the machine
 * configuration feeds queue depths and run behavior: the same source
 * compiled for a different machine must miss and recompile (the
 * service tests pin this down).
 *
 * Concurrency: all operations are serialized on one mutex; compilation
 * itself runs outside the lock. getOrCompile() is single-flight — when
 * N workers request the same cold key at once, one compiles while the
 * rest wait on a condition variable and then share the result, so a
 * thundering herd of identical requests costs one compile.
 */

#ifndef PHLOEM_SERVICE_CACHE_H
#define PHLOEM_SERVICE_CACHE_H

#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "driver/compile_service.h"
#include "sim/config.h"

namespace phloem::svc {

/** Cache key for one (machine config, source, options) compilation. */
std::string cacheKey(const sim::SysConfig& cfg,
                     const driver::CompileSpec& spec);

class PipelineCache
{
  public:
    /** capacity = max cached pipelines; 0 disables caching entirely. */
    explicit PipelineCache(size_t capacity) : capacity_(capacity) {}

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t insertions = 0;
        size_t entries = 0;
        size_t capacity = 0;
    };

    /**
     * Look up a key, bumping it to most-recently-used. Counts a hit or
     * a miss. Null when absent.
     */
    driver::CompiledPipelinePtr lookup(const std::string& key);

    /**
     * Insert (or replace) an entry, evicting the least-recently-used
     * entry when over capacity. Null pipelines are never cached.
     */
    void insert(const std::string& key, driver::CompiledPipelinePtr cp);

    /**
     * lookup(), and on a miss call `compile` (outside the lock) and
     * insert the result. Single-flight per key: concurrent callers of
     * the same cold key wait for the first compile instead of
     * duplicating it. `*hit` reports whether the caller was served
     * from cache (including waiting on another caller's compile).
     */
    driver::CompiledPipelinePtr getOrCompile(
        const std::string& key,
        const std::function<driver::CompiledPipelinePtr()>& compile,
        bool* hit);

    Stats stats() const;

  private:
    using LruList =
        std::list<std::pair<std::string, driver::CompiledPipelinePtr>>;

    /** mu_ held. Returns null when absent; bumps LRU order on hit. */
    driver::CompiledPipelinePtr lookupLocked(const std::string& key);
    /** mu_ held. */
    void insertLocked(const std::string& key,
                      driver::CompiledPipelinePtr cp);

    mutable std::mutex mu_;
    std::condition_variable inflightCv_;
    size_t capacity_;
    LruList lru_;  ///< front = most recently used
    std::unordered_map<std::string, LruList::iterator> index_;
    std::set<std::string> inflight_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t insertions_ = 0;
};

} // namespace phloem::svc

#endif // PHLOEM_SERVICE_CACHE_H

#include "service/cache.h"

#include <cstdio>

#include "base/hash.h"
#include "base/logging.h"
#include "metrics/collect.h"

namespace phloem::svc {

namespace {

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** FNV-1a of the CompileOptions fields that change what gets built. */
uint64_t
hashOptions(const std::string& kernel_name, const comp::CompileOptions& o)
{
    std::string s = kernel_name;
    s += '\0';
    auto num = [&s](long long v) {
        s += std::to_string(v);
        s += ',';
    };
    num(o.numStages);
    num(o.recompute);
    num(o.referenceAccelerators);
    num(o.controlValues);
    num(o.dce);
    num(o.handlers);
    num(o.prefetchMovedLoads);
    num(o.maxRAs);
    num(o.maxQueues);
    num(o.shrinkToFit);
    num(o.replicas);
    num(o.distributeBoundaryOp);
    s += '|';
    for (int c : o.explicitCuts) num(c);
    s += '|';
    for (int c : o.forcedCuts) num(c);
    return fnv1a(s);
}

} // namespace

std::string
cacheKey(const sim::SysConfig& cfg, const driver::CompileSpec& spec)
{
    return metrics::configFingerprint(cfg) + ":" +
           hex(fnv1a(spec.source)) + ":" +
           hex(hashOptions(spec.kernelName, spec.opts));
}

driver::CompiledPipelinePtr
PipelineCache::lookupLocked(const std::string& key)
{
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
PipelineCache::insertLocked(const std::string& key,
                            driver::CompiledPipelinePtr cp)
{
    if (capacity_ == 0 || cp == nullptr) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(cp);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(cp));
    index_[key] = lru_.begin();
    ++insertions_;
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

driver::CompiledPipelinePtr
PipelineCache::lookup(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto cp = lookupLocked(key);
    if (cp != nullptr) {
        ++hits_;
    } else {
        ++misses_;
    }
    return cp;
}

void
PipelineCache::insert(const std::string& key, driver::CompiledPipelinePtr cp)
{
    std::lock_guard<std::mutex> lock(mu_);
    insertLocked(key, std::move(cp));
}

driver::CompiledPipelinePtr
PipelineCache::getOrCompile(
    const std::string& key,
    const std::function<driver::CompiledPipelinePtr()>& compile, bool* hit)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            auto cp = lookupLocked(key);
            if (cp != nullptr) {
                ++hits_;
                if (hit != nullptr) *hit = true;
                return cp;
            }
            if (inflight_.count(key) == 0) break;
            // Another worker is compiling this key; wait for it rather
            // than duplicating the compile.
            inflightCv_.wait(lock);
        }
        ++misses_;
        inflight_.insert(key);
    }

    if (hit != nullptr) *hit = false;
    driver::CompiledPipelinePtr cp;
    try {
        cp = compile();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
        inflightCv_.notify_all();
        throw;
    }

    std::lock_guard<std::mutex> lock(mu_);
    // Failed compiles are not cached: the error goes back to the one
    // caller, and a later (possibly fixed) request retries cleanly.
    if (cp != nullptr && cp->ok()) insertLocked(key, cp);
    inflight_.erase(key);
    inflightCv_.notify_all();
    return cp;
}

PipelineCache::Stats
PipelineCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.insertions = insertions_;
    s.entries = lru_.size();
    s.capacity = capacity_;
    return s;
}

} // namespace phloem::svc

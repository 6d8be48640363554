#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<double>
selfTimesNs(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const auto& s : spans) {
        if (s.parent < 0)
            continue;
        const Span& p = spans[static_cast<size_t>(s.parent)];
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs -
                                      covered);
    }
    return self;
}

std::map<std::string, double>
selfNsByModule(const std::vector<const SpanLog*>& logs)
{
    std::map<std::string, double> out;
    for (const SpanLog* log : logs) {
        const auto& spans = log->spans();
        std::vector<double> self = selfTimesNs(spans);
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].rep < 0)
                continue; // set-up spans: not part of the measured window
            std::string name = spans[i].name;
            out[name.substr(0, name.find('.'))] += self[i];
        }
    }
    return out;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<const SpanLog*>& logs)
{
    std::map<std::string, SpanTotals> out;
    for (const SpanLog* log : logs) {
        for (const auto& s : log->spans()) {
            auto& t = out[s.name];
            t.ns += static_cast<double>(s.endNs - s.startNs);
            ++t.count;
        }
    }
    return out;
}

bool
writeChromeTrace(const std::string& path,
                 const std::vector<const SpanLog*>& logs, std::string* err)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        *err = "cannot open " + path;
        return false;
    }
    int64_t epoch = INT64_MAX;
    for (const SpanLog* log : logs)
        for (const auto& s : log->spans())
            epoch = std::min(epoch, s.startNs);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (size_t tid = 0; tid < logs.size(); ++tid) {
        const auto& spans = logs[tid]->spans();
        std::vector<double> self = selfTimesNs(spans);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%zu,\"parent\":%d,\"rep\":%lld,"
                         "\"self_us\":%.3f}}",
                         first ? "" : ",", s.name, tid,
                         static_cast<double>(s.startNs - epoch) / 1e3,
                         static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                         s.parent, static_cast<long long>(s.rep),
                         self[i] / 1e3);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0) {
        *err = "write failed: " + path;
        return false;
    }
    return true;
}

} // namespace perfbench

/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * The benchmark wraps every call it makes into a layer's public function
 * in a Timed scope. The scope always returns the call's duration (the
 * untraced run needs it for the end-to-end metrics); when the log is
 * enabled it also records a span: name ("<module>.<function>"), start,
 * end, the enclosing span, and a rep/request id. Spans stay in memory
 * and are written once, as Chrome trace JSON, when the run ends.
 *
 * A SpanLog is single-threaded: each thread that records (the main
 * thread, each service client) owns one.
 */

#ifndef PHLOEM_PERFBENCH_SPANS_H
#define PHLOEM_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char* name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span in the same log, or -1. */
    int parent = -1;
    /** Rep (native, sim) or request (service) the span belongs to. */
    int64_t rep = -1;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    const std::vector<Span>& spans() const { return spans_; }

    /** Open a span; returns its index, or -1 when disabled. */
    int
    open(const char* name, int64_t rep, int64_t start_ns)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.startNs = start_ns;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.rep = rep;
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id, int64_t end_ns)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].endNs = end_ns;
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Times one call. Construct right before the call, stop() right after;
 * stop() returns the elapsed nanoseconds. A scope left without stop()
 * (an exception) still closes its span.
 */
class Timed
{
  public:
    Timed(SpanLog& log, const char* name, int64_t rep = -1)
        : log_(log), start_(nowNs()), id_(log.open(name, rep, start_))
    {
    }
    ~Timed()
    {
        if (!stopped_)
            stop();
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    double
    stop()
    {
        int64_t end = nowNs();
        if (!stopped_)
            log_.close(id_, end);
        stopped_ = true;
        return static_cast<double>(end - start_);
    }

  private:
    SpanLog& log_;
    int64_t start_;
    int id_;
    bool stopped_ = false;
};

/**
 * Self time of every span in one log: its duration minus the part of
 * its interval that its direct children cover (overlapping children are
 * merged, children are clipped to the parent).
 */
std::vector<double> selfTimesNs(const std::vector<Span>& spans);

/** Total self time per module (the name up to its first '.'). */
std::map<std::string, double> selfNsByModule(
    const std::vector<const SpanLog*>& logs);

/** Total duration and count of spans per full span name. */
struct SpanTotals
{
    double ns = 0.0;
    int64_t count = 0;
};
std::map<std::string, SpanTotals> totalsByName(
    const std::vector<const SpanLog*>& logs);

/**
 * Write every log as one Chrome trace JSON file (one tid per log).
 * False + *err on I/O failure.
 */
bool writeChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      std::string* err);

} // namespace perfbench

#endif // PHLOEM_PERFBENCH_SPANS_H

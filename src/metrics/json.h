/**
 * @file
 * Minimal JSON value, parser, and serializer for the metrics subsystem.
 *
 * The one JSON parser in the repo: reports, phloemd frames, and the
 * trace tests (which parse the tracer's output with it). Report readers
 * and writers share it so escaping bugs cannot hide in a producer the
 * consumer never exercises. The tracer (runtime/trace.cc) keeps its own
 * small emitter because phloem_metrics links phloem_trace, not the
 * other way round. Scope is deliberately small: the six JSON types,
 * UTF-8 pass-through, \uXXXX escapes on input, and deterministic
 * (sorted-key) output so reports diff cleanly as text.
 */

#ifndef PHLOEM_METRICS_JSON_H
#define PHLOEM_METRICS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace phloem::metrics {

class Json;
using JsonPtr = std::shared_ptr<Json>;

/**
 * One JSON value. Numbers keep the int64/double distinction so uint
 * counters up to 2^63-1 round-trip exactly (doubles lose integers above
 * 2^53, which real instruction counters exceed).
 */
class Json
{
  public:
    enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    Json() = default;
    static Json null() { return Json{}; }
    static Json boolean(bool b);
    static Json integer(int64_t v);
    static Json number(double v);
    static Json str(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isNumber() const
    {
        return kind_ == Kind::kInt || kind_ == Kind::kDouble;
    }

    bool asBool() const { return b_; }
    int64_t asInt() const;
    double asDouble() const;
    const std::string& asString() const { return s_; }

    std::vector<Json>& items() { return arr_; }
    const std::vector<Json>& items() const { return arr_; }
    std::map<std::string, Json>& fields() { return obj_; }
    const std::map<std::string, Json>& fields() const { return obj_; }

    /** Object member or null-kind sentinel when absent / not an object. */
    const Json& at(const std::string& key) const;
    bool has(const std::string& key) const
    {
        return kind_ == Kind::kObject && obj_.count(key) > 0;
    }

    void push(Json v) { arr_.push_back(std::move(v)); }
    void set(const std::string& key, Json v) { obj_[key] = std::move(v); }

    /** Serialize; indent >= 0 pretty-prints with that base indent. */
    std::string dump(int indent = -1) const;

    /**
     * Deepest array/object nesting parse() accepts. The parser is
     * recursive and reads untrusted bytes (phloemd frames, report
     * files), so deeper input is an error rather than a stack overflow.
     */
    static constexpr int kMaxDepth = 256;

    /**
     * Parse one JSON document (trailing whitespace allowed, trailing
     * garbage rejected). Returns false and fills *err with a
     * position-annotated message on malformed input, including nesting
     * deeper than kMaxDepth.
     */
    static bool parse(const std::string& text, Json* out, std::string* err);

  private:
    Kind kind_ = Kind::kNull;
    bool b_ = false;
    int64_t i_ = 0;
    double d_ = 0.0;
    std::string s_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;

    void dumpTo(std::string& out, int indent, int depth) const;
};

/** JSON string escaping (quotes, backslashes, control chars; UTF-8 raw). */
std::string jsonEscape(const std::string& s);

} // namespace phloem::metrics

#endif // PHLOEM_METRICS_JSON_H

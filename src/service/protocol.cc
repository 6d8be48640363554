#include "service/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "metrics/json.h"

namespace phloem::svc {

namespace {

/**
 * Write the whole buffer, riding out EINTR and short writes (a small
 * SO_SNDBUF or a signal can split one frame across many syscalls).
 * Uses send(MSG_NOSIGNAL) so a peer that disconnected mid-response
 * surfaces as EPIPE here instead of a process-killing SIGPIPE — the
 * server must outlive any one client. Falls back to write() for
 * non-socket fds (ENOTSOCK: pipes and regular files in tests).
 */
bool
writeAll(int fd, const char* data, size_t n, std::string* err)
{
    size_t off = 0;
    bool use_send = true;
    while (off < n) {
        ssize_t w = use_send
                        ? ::send(fd, data + off, n - off, MSG_NOSIGNAL)
                        : ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR) continue;
            if (use_send && errno == ENOTSOCK) {
                use_send = false;
                continue;
            }
            if (err != nullptr) *err = std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

/** 1 = ok, 0 = clean EOF at offset 0, -1 = error/truncation. */
int
readAll(int fd, char* data, size_t n, std::string* err)
{
    size_t off = 0;
    while (off < n) {
        ssize_t r = ::read(fd, data + off, n - off);
        if (r < 0) {
            if (errno == EINTR) continue;
            if (err != nullptr) *err = std::strerror(errno);
            return -1;
        }
        if (r == 0) {
            if (off == 0) return 0;
            if (err != nullptr) *err = "connection closed mid-frame";
            return -1;
        }
        off += static_cast<size_t>(r);
    }
    return 1;
}

} // namespace

bool
writeFrame(int fd, const std::string& payload, std::string* err)
{
    if (payload.size() > kMaxFrameBytes) {
        if (err != nullptr) *err = "frame payload too large";
        return false;
    }
    char header[8];
    std::memcpy(header, kFrameMagic, 4);
    uint32_t len = static_cast<uint32_t>(payload.size());
    header[4] = static_cast<char>(len & 0xff);
    header[5] = static_cast<char>((len >> 8) & 0xff);
    header[6] = static_cast<char>((len >> 16) & 0xff);
    header[7] = static_cast<char>((len >> 24) & 0xff);
    return writeAll(fd, header, sizeof header, err) &&
           writeAll(fd, payload.data(), payload.size(), err);
}

ReadResult
readFrame(int fd, std::string* payload, std::string* err)
{
    char header[8];
    int r = readAll(fd, header, sizeof header, err);
    if (r == 0) return ReadResult::kEof;
    if (r < 0) return ReadResult::kError;
    if (std::memcmp(header, kFrameMagic, 4) != 0) {
        if (err != nullptr) *err = "bad frame magic";
        return ReadResult::kError;
    }
    uint32_t len = static_cast<uint32_t>(static_cast<uint8_t>(header[4])) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(header[5]))
                    << 8) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(header[6]))
                    << 16) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(header[7]))
                    << 24);
    if (len > kMaxFrameBytes) {
        if (err != nullptr) *err = "frame payload too large";
        return ReadResult::kError;
    }
    payload->resize(len);
    if (len > 0 && readAll(fd, payload->data(), len, err) != 1) {
        return ReadResult::kError;
    }
    return ReadResult::kOk;
}

std::string
Request::toJson() const
{
    using metrics::Json;
    Json j = Json::object();
    j.set("op", Json::str(op));
    if (op == "run") {
        j.set("source", Json::str(source));
        if (!kernel.empty()) j.set("kernel", Json::str(kernel));
        j.set("backend", Json::str(backend));
        j.set("stages", Json::integer(stages));
        j.set("size", Json::integer(size));
        if (noCache) j.set("no_cache", Json::boolean(true));
        if (trace) j.set("trace", Json::boolean(true));
    }
    return j.dump();
}

bool
Request::fromJson(const std::string& text, Request* out, std::string* err)
{
    using metrics::Json;
    Json j;
    if (!Json::parse(text, &j, err)) return false;
    if (j.kind() != Json::Kind::kObject ||
        j.at("op").kind() != Json::Kind::kString) {
        if (err != nullptr) *err = "request must be an object with \"op\"";
        return false;
    }
    Request req;
    req.op = j.at("op").asString();
    if (req.op != "run" && req.op != "stats" && req.op != "health" &&
        req.op != "ping" && req.op != "shutdown") {
        if (err != nullptr) *err = "unknown op \"" + req.op + "\"";
        return false;
    }
    if (req.op == "run") {
        if (j.at("source").kind() != Json::Kind::kString ||
            j.at("source").asString().empty()) {
            if (err != nullptr) *err = "run request needs \"source\" text";
            return false;
        }
        req.source = j.at("source").asString();
        if (j.has("kernel")) req.kernel = j.at("kernel").asString();
        if (j.has("backend")) req.backend = j.at("backend").asString();
        if (req.backend != "native" && req.backend != "sim") {
            if (err != nullptr) {
                *err = "backend must be \"native\" or \"sim\"";
            }
            return false;
        }
        if (j.at("stages").isNumber()) {
            req.stages = static_cast<int>(j.at("stages").asInt());
        }
        if (j.at("size").isNumber()) req.size = j.at("size").asInt();
        if (j.at("no_cache").kind() == Json::Kind::kBool) {
            req.noCache = j.at("no_cache").asBool();
        }
        if (j.at("trace").kind() == Json::Kind::kBool) {
            req.trace = j.at("trace").asBool();
        }
        if (req.stages < 1 || req.stages > 64 || req.size < 1 ||
            req.size > (1ll << 32)) {
            if (err != nullptr) *err = "run request parameter out of range";
            return false;
        }
    }
    *out = std::move(req);
    return true;
}

std::string
Response::toJson() const
{
    using metrics::Json;
    Json j = Json::object();
    j.set("ok", Json::boolean(ok));
    if (!error.empty()) j.set("error", Json::str(error));
    if (!requestId.empty()) j.set("request_id", Json::str(requestId));
    if (!tracePath.empty()) j.set("trace_path", Json::str(tracePath));
    if (!cache.empty()) j.set("cache", Json::str(cache));
    if (compileNs > 0) j.set("compile_ns", Json::number(compileNs));
    if (runNs > 0) j.set("run_ns", Json::number(runNs));
    if (totalNs > 0) j.set("total_ns", Json::number(totalNs));
    if (!outputHash.empty()) j.set("output_hash", Json::str(outputHash));
    if (stages > 0) j.set("stages", Json::integer(stages));
    if (instructions > 0) {
        j.set("instructions",
              Json::integer(static_cast<int64_t>(instructions)));
    }
    if (requestsServed > 0 || cacheHits > 0 || cacheMisses > 0) {
        j.set("cache_hits", Json::integer(static_cast<int64_t>(cacheHits)));
        j.set("cache_misses",
              Json::integer(static_cast<int64_t>(cacheMisses)));
        j.set("cache_evictions",
              Json::integer(static_cast<int64_t>(cacheEvictions)));
        j.set("cache_entries",
              Json::integer(static_cast<int64_t>(cacheEntries)));
        j.set("requests_served",
              Json::integer(static_cast<int64_t>(requestsServed)));
    }
    if (schedPoolSize > 0) {
        j.set("sched_pool_size", Json::integer(schedPoolSize));
        j.set("sched_parks",
              Json::integer(static_cast<int64_t>(schedParks)));
        j.set("sched_unparks",
              Json::integer(static_cast<int64_t>(schedUnparks)));
        j.set("sched_steals",
              Json::integer(static_cast<int64_t>(schedSteals)));
        j.set("sched_yields",
              Json::integer(static_cast<int64_t>(schedYields)));
    }
    if (!state.empty()) {
        j.set("state", Json::str(state));
        j.set("uptime_s", Json::number(uptimeS));
        j.set("inflight", Json::integer(inflight));
        j.set("queued_conns", Json::integer(queuedConns));
        j.set("workers", Json::integer(workersTotal));
    }
    // The report snapshot travels as a nested object, not an escaped
    // string: a generic JSON consumer (the CI smoke, jq) should reach
    // .report.runs without double-decoding.
    if (!reportJson.empty()) {
        Json report;
        std::string perr;
        if (Json::parse(reportJson, &report, &perr))
            j.set("report", std::move(report));
    }
    return j.dump();
}

bool
Response::fromJson(const std::string& text, Response* out, std::string* err)
{
    using metrics::Json;
    Json j;
    if (!Json::parse(text, &j, err)) return false;
    if (j.kind() != Json::Kind::kObject ||
        j.at("ok").kind() != Json::Kind::kBool) {
        if (err != nullptr) *err = "response must be an object with \"ok\"";
        return false;
    }
    Response resp;
    resp.ok = j.at("ok").asBool();
    if (j.has("error")) resp.error = j.at("error").asString();
    if (j.has("request_id")) {
        resp.requestId = j.at("request_id").asString();
    }
    if (j.has("trace_path")) {
        resp.tracePath = j.at("trace_path").asString();
    }
    if (j.has("cache")) resp.cache = j.at("cache").asString();
    if (j.at("compile_ns").isNumber()) {
        resp.compileNs = j.at("compile_ns").asDouble();
    }
    if (j.at("run_ns").isNumber()) resp.runNs = j.at("run_ns").asDouble();
    if (j.at("total_ns").isNumber()) {
        resp.totalNs = j.at("total_ns").asDouble();
    }
    if (j.has("output_hash")) {
        resp.outputHash = j.at("output_hash").asString();
    }
    if (j.at("stages").isNumber()) {
        resp.stages = static_cast<int>(j.at("stages").asInt());
    }
    if (j.at("instructions").isNumber()) {
        resp.instructions =
            static_cast<uint64_t>(j.at("instructions").asInt());
    }
    auto u64 = [&j](const char* key) {
        return j.at(key).isNumber()
                   ? static_cast<uint64_t>(j.at(key).asInt())
                   : 0ull;
    };
    resp.cacheHits = u64("cache_hits");
    resp.cacheMisses = u64("cache_misses");
    resp.cacheEvictions = u64("cache_evictions");
    resp.cacheEntries = u64("cache_entries");
    resp.requestsServed = u64("requests_served");
    if (j.at("sched_pool_size").isNumber()) {
        resp.schedPoolSize =
            static_cast<int>(j.at("sched_pool_size").asInt());
    }
    resp.schedParks = u64("sched_parks");
    resp.schedUnparks = u64("sched_unparks");
    resp.schedSteals = u64("sched_steals");
    resp.schedYields = u64("sched_yields");
    if (j.has("state")) {
        resp.state = j.at("state").asString();
        if (j.at("uptime_s").isNumber())
            resp.uptimeS = j.at("uptime_s").asDouble();
        if (j.at("inflight").isNumber())
            resp.inflight = j.at("inflight").asInt();
        if (j.at("queued_conns").isNumber())
            resp.queuedConns = j.at("queued_conns").asInt();
        if (j.at("workers").isNumber())
            resp.workersTotal = static_cast<int>(j.at("workers").asInt());
    }
    if (j.at("report").kind() == Json::Kind::kObject) {
        resp.reportJson = j.at("report").dump();
    }
    *out = std::move(resp);
    return true;
}

} // namespace phloem::svc

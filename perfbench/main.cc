/**
 * @file
 * phloem-perfbench: runs one benchmark workload, checks every output,
 * and prints one JSON result line (end-to-end metrics untraced,
 * per-layer metrics traced). See README.md in this directory.
 *
 *   phloem-perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--tiny] [--trace-out FILE] [--root DIR]
 *                    [--run-dir DIR]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: phloem-perfbench --workload "
                 "native-graph|native-handoff|sim-sweep|service-mix\n"
                 "       --seed N --seconds S --trace 0|1 [--tiny]\n"
                 "       [--trace-out FILE] [--root DIR] [--run-dir DIR]\n");
    return 2;
}

/**
 * Measurement hygiene: drop every PHLOEM_* override (tier, engine,
 * scheduler, ...) so the defaults are what gets measured.
 */
void
clearPhloemEnv()
{
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "PHLOEM_", 7) == 0) {
            const char* eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
        }
    }
    for (const auto& n : names)
        unsetenv(n.c_str());
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    RunArgs args;
    bool have_trace = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--tiny") {
            args.tiny = true;
        } else if (a == "--workload" && (v = value())) {
            args.workload = v;
        } else if (a == "--seed" && (v = value())) {
            args.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds" && (v = value())) {
            args.seconds = std::atof(v);
            have_seconds = args.seconds > 0;
        } else if (a == "--trace" && (v = value())) {
            args.trace = std::strcmp(v, "1") == 0;
            have_trace = std::strcmp(v, "0") == 0 || args.trace;
        } else if (a == "--trace-out" && (v = value())) {
            args.traceOut = v;
        } else if (a == "--root" && (v = value())) {
            args.root = v;
        } else if (a == "--run-dir" && (v = value())) {
            args.runDir = v;
        } else {
            return usage();
        }
    }
    if (!have_trace || !have_seed || !have_seconds)
        return usage();
    clearPhloemEnv();

    Result out;
    Trace trace;
    try {
        if (args.workload == "native-graph" ||
            args.workload == "native-handoff")
            runNative(args, out, trace);
        else if (args.workload == "sim-sweep")
            runSimSweep(args, out, trace);
        else if (args.workload == "service-mix")
            runServiceMix(args, out, trace);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    auto& m = out.metrics;
    m["peak_rss_mb"] = peakRssMb();
    m["bench.error_rate"] = static_cast<double>(out.failed) /
                            static_cast<double>(std::max<int64_t>(1, out.attempted));
    if (args.trace && !args.traceOut.empty()) {
        std::string err;
        if (!writeChromeTrace(args.traceOut, trace.view(), &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return 1;
        }
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     args.traceOut.c_str());
    }
    // An end-to-end metric that is missing or not positive means the run
    // measured nothing, which is a failure, not a result.
    if (!args.trace) {
        for (const auto& d : endToEndMetrics()) {
            auto it = m.find(d.name);
            if (it == m.end() || !(it->second > 0))
                out.count(false, std::string("no value for ") + d.name);
        }
    }
    for (const auto& e : out.errors)
        std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());

    bool correct = out.failed == 0 && out.attempted > 0;
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
    const auto& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    for (size_t i = 0; i < defs.size(); ++i) {
        auto it = m.find(defs[i].name);
        json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
                "\": {\"value\": " +
                number(it == m.end() ? 0.0 : it->second) +
                ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

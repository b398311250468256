/**
 * @file
 * rrperf: the repository's benchmark program. One process runs one
 * named workload for a fixed host-time window, checks every output,
 * and prints its metrics; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 *
 *   rrperf --workload NAME --seed N --seconds S --trace 0|1
 *          [--golden FILE] [--span-dir DIR] [--tiny]
 *          [--inject digest|failure] [--commit ID]
 *   rrperf --record-golden FROM TO --workload NAME [--tiny]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the
 * window twice, untraced then traced, and reports the per-layer
 * metrics plus the tracing overhead, writing the spans to
 * DIR/spans-NAME-SEED.json. perfbench/README.md documents the
 * workloads and every metric.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/json_out.hh"
#include "harness.hh"

namespace {

using namespace rrperf;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported with tracing off on every workload. */
constexpr MetricDef kEndToEnd[] = {
    {"throughput", "1/s"},
    {"unit_p50_ms", "ms"},
    {"unit_p90_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics of the traced run. A layer a workload does not
 * exercise reads 0 there.
 */
constexpr MetricDef kPerLayer[] = {
    // The workload-specific end-to-end figures, from the untraced half.
    {"sim_mevents_per_s", "Mevent/s"},
    {"run_minstr_per_s", "Minstr/s"},
    {"hooked_minstr_per_s", "Minstr/s"},
    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"goodput_rps", "1/s"},
    {"error_rate", "ratio"},
    // multithread
    {"multithread.ns_per_event", "ns"},
    {"multithread.spec_build_ns", "ns"},
    {"multithread.events", "count"},
    {"multithread.ns_per_event.t64", "ns"},
    {"multithread.ns_per_event.t128", "ns"},
    {"multithread.ns_per_event.t256", "ns"},
    {"multithread.ns_per_event.t512", "ns"},
    {"multithread.ns_per_event.t1024", "ns"},
    {"multithread.gap_ns.switch", "ns"},
    {"multithread.gap_ns.fault_complete", "ns"},
    {"multithread.gap_ns.run_segment", "ns"},
    {"multithread.gap_ns.scheduler_poll", "ns"},
    {"multithread.gap_ns.unload_decision", "ns"},
    // runtime
    {"runtime.gap_ns.alloc", "ns"},
    {"runtime.gap_ns.load", "ns"},
    {"runtime.gap_ns.unload", "ns"},
    {"runtime.gap_ns.free", "ns"},
    {"runtime.gap_ns.queue", "ns"},
    {"runtime.alloc_attempts", "count"},
    {"runtime.alloc_fail_ratio", "ratio"},
    {"runtime.loads", "count"},
    {"runtime.unloads", "count"},
    // trace
    {"trace.emit_ns_per_event", "ns"},
    {"trace.reconcile_ns_per_sim", "ns"},
    {"trace.violations", "count"},
    // ckpt
    {"ckpt.snapshot_ns", "ns"},
    {"ckpt.restore_ns", "ns"},
    {"ckpt.snapshot_bytes", "B"},
    {"ckpt.bytes_per_thread", "B"},
    // exp
    {"exp.engine_overhead_ns_per_unit", "ns"},
    {"exp.report_json_ns", "ns"},
    {"exp.parse_json_ns", "ns"},
    // assembler
    {"assembler.ns_per_word", "ns"},
    {"assembler.words", "count"},
    // machine
    {"machine.run_ns_per_instr", "ns"},
    {"machine.hooked_ns_per_instr", "ns"},
    {"machine.init_ns", "ns"},
    {"machine.superblocks_built", "count"},
    {"machine.superblock_flushes", "count"},
    {"machine.superblocks_reverified", "count"},
    {"machine.instr_per_block_built", "count"},
    // kernel
    {"kernel.sync_init_ns", "ns"},
    {"kernel.failed_poll_ratio", "ratio"},
    {"kernel.lock_spin_ratio", "ratio"},
    // serve
    {"serve.parse_ns", "ns"},
    {"serve.key_ns", "ns"},
    {"serve.plan_ns", "ns"},
    {"serve.unit_ns", "ns"},
    {"serve.result_doc_ns", "ns"},
    {"serve.batch_hit_ns", "ns"},
    {"serve.batch_miss_ns", "ns"},
    {"serve.http_ns", "ns"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.rejected", "count"},
    // the harness itself
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rrperf: " << why
              << "\nusage: rrperf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--golden FILE] [--span-dir DIR] "
                 "[--tiny] [--inject digest|failure] [--commit ID]\n"
                 "       rrperf --record-golden FROM TO --workload NAME "
                 "[--tiny]\n";
    std::exit(64);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options)
{
    if (name == "cache_sweep")
        return makeCacheSweep(options);
    if (name == "sync_scale")
        return makeSyncScale(options);
    if (name == "rrisc_mix")
        return makeRriscMix(options);
    if (name == "serve_mixed")
        return makeServeMixed(options);
    usage("unknown workload '" + name + "'");
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Host fingerprint recorded with every result (one JSON line). */
std::string
fingerprintJson(const std::string &workload, const Options &options,
                const std::string &commit, bool traced)
{
    using rr::exp::jsonNumber;
    using rr::exp::jsonQuote;
    return "{\"workload\": " + jsonQuote(workload) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"seconds\": " + jsonNumber(options.seconds) +
           ", \"trace\": " + (traced ? "true" : "false") +
           ", \"cpu\": " + jsonQuote(cpuModel()) + ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonQuote(__VERSION__) +
           ", \"cxx_flags\": " + jsonQuote(RRPERF_CXX_FLAGS) +
           ", \"build_type\": " + jsonQuote(RRPERF_BUILD_TYPE) +
           ", \"commit\": " + jsonQuote(commit) + "}";
}

std::string
number(double value)
{
    return rr::exp::jsonNumber(value);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.examplesOs = RRPERF_EXAMPLES_OS;
    std::string workload, span_dir, commit = "unknown";
    int trace = -1;
    bool record = false;
    uint64_t record_from = 0, record_to = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value after " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                workload = next();
            else if (arg == "--seed")
                options.seed = std::stoull(next());
            else if (arg == "--seconds")
                options.seconds = std::stod(next());
            else if (arg == "--trace")
                trace = std::stoi(next());
            else if (arg == "--golden")
                options.golden = next();
            else if (arg == "--span-dir")
                span_dir = next();
            else if (arg == "--tiny")
                options.tiny = true;
            else if (arg == "--inject")
                options.inject = next();
            else if (arg == "--commit")
                commit = next();
            else if (arg == "--record-golden") {
                record = true;
                record_from = std::stoull(next());
                record_to = std::stoull(next());
            } else
                usage("unknown argument '" + arg + "'");
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (workload.empty())
        usage("--workload is required");
    if (options.inject != "" && options.inject != "digest" &&
        options.inject != "failure")
        usage("--inject takes digest or failure");
    const std::string key = workload + (options.tiny ? ".tiny" : "");

    if (record) {
        for (uint64_t seed = record_from; seed <= record_to; ++seed) {
            options.seed = seed;
            const std::unique_ptr<Workload> wl =
                makeWorkload(workload, options);
            std::cout << key << " " << seed << " "
                      << hexDigest(wl->passDigest(seed)) << std::endl;
        }
        return 0;
    }
    if (trace != 0 && trace != 1)
        usage("--trace takes 0 or 1");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");

    const std::string fingerprint =
        fingerprintJson(workload, options, commit, trace == 1);
    std::cout << "fingerprint: " << fingerprint << std::endl;

    std::unique_ptr<Workload> wl = makeWorkload(workload, options);

    // Set-up is repeated and its median reported, so that work moved
    // into set-up shows without one slow start deciding the figure.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    try {
        for (int i = 0; i < kSetups; ++i) {
            const uint64_t t0 = nowNs();
            wl->setup();
            setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        }
    } catch (const std::exception &error) {
        std::cerr << "rrperf: set-up failed: " << error.what() << "\n";
        return 2;
    }

    Spans spans;
    Layers layers;
    Window main_window, traced_window;
    try {
        if (trace == 0) {
            main_window = wl->window(options.seconds, spans, layers);
        } else {
            main_window = wl->window(options.seconds / 2, spans, layers);
            spans.setEnabled(true);
            traced_window = wl->window(options.seconds / 2, spans, layers);
            spans.setEnabled(false);
        }
        verifyDigests(*wl, options, key);
    } catch (const std::exception &error) {
        wl->failures.check(false, std::string("exception: ") +
                                      error.what());
    }
    if (options.inject == "failure")
        wl->failures.check(false, "injected failed operation");

    const Failures &failures = wl->failures;
    const double error_rate =
        failures.attempted() == 0
            ? 1.0
            : static_cast<double>(failures.failed()) /
                  static_cast<double>(failures.attempted());
    const double throughput = main_window.throughput;

    std::vector<std::pair<const MetricDef *, double>> report;
    if (trace == 0) {
        const double values[] = {
            throughput,
            main_window.p50Ms,
            main_window.p90Ms,
            median(setup_s),
            peakRssMb(),
        };
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
            report.push_back({&kEndToEnd[i], values[i]});
    } else {
        for (const auto &[name, value] : main_window.named)
            layers[name] = value;
        layers["error_rate"] = error_rate;
        layers["bench.trace_overhead_frac"] =
            throughput > 0 ? 1.0 - traced_window.throughput / throughput
                           : 0.0;
        std::set<std::string> known;
        for (const MetricDef &def : kPerLayer) {
            known.insert(def.name);
            const auto it = layers.find(def.name);
            report.push_back({&def, it == layers.end() ? 0.0 : it->second});
        }
        for (const auto &entry : layers) {
            if (!known.count(entry.first)) {
                std::cerr << "rrperf: internal: undeclared per-layer "
                             "metric "
                          << entry.first << "\n";
                return 2;
            }
        }
        if (!span_dir.empty()) {
            const std::string path = span_dir + "/spans-" + workload +
                                     "-" + std::to_string(options.seed) +
                                     ".json";
            if (spans.write(path, fingerprint))
                std::cout << "spans: " << spans.size() << " written to "
                          << path << std::endl;
            else
                std::cerr << "rrperf: cannot write " << path << "\n";
        }
    }

    // Human-readable report: every metric by name and unit, then the
    // workload's own named figures.
    std::cout << "workload: " << workload << " seed " << options.seed
              << (trace == 1 ? " (traced)" : "") << "\n";
    std::cout << "  units: " << main_window.units << " in "
              << number(main_window.seconds) << " s\n";
    if (trace == 0) // the traced report lists them with their units
        for (const auto &[name, value] : main_window.named)
            std::cout << "  " << name << " = " << number(value) << "\n";
    std::cout << "  error_rate = " << number(error_rate) << " ("
              << failures.failed() << " failed of " << failures.attempted()
              << " attempted)\n";
    for (const std::string &why : failures.reasons())
        std::cout << "  FAILED: " << why << "\n";
    for (const auto &[def, value] : report)
        std::cout << "  " << def->name << " = " << number(value) << " "
                  << def->unit << "\n";

    const bool correct = failures.failed() == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(failures.attempted());
    json += ", \"failed\": " + std::to_string(failures.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.size(); ++i) {
        json += (i == 0 ? "" : ", ");
        json += rr::exp::jsonQuote(report[i].first->name) +
                ": {\"value\": " + number(report[i].second) +
                ", \"unit\": " + rr::exp::jsonQuote(report[i].first->unit) +
                "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return correct ? 0 : 1;
}

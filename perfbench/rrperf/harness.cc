#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/json_out.hh"

namespace rrperf {

std::string
hexDigest(uint64_t value)
{
    char text[19];
    std::snprintf(text, sizeof text, "%016" PRIx64, value);
    return text;
}

void
Failures::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(what);
}

int32_t
Spans::open(const char *name, uint64_t id)
{
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowNs(), 0, parent, id});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
}

void
Spans::close(int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end = nowNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

int32_t
Spans::add(const char *name, uint64_t start, uint64_t end,
           int32_t parent, uint64_t id)
{
    spans_.push_back({name, start, end, parent, id});
    return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, SpanTotals>
Spans::totals() const
{
    // Children's coverage of each parent, as the union of their
    // intervals clipped to the parent (children may overlap when
    // they were recorded with add()).
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double total = static_cast<double>(s.end - s.start);
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, reach = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, s.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalNs += total;
        t.selfNs += total - static_cast<double>(covered);
    }
    return out;
}

bool
Spans::write(const std::string &path,
             const std::string &header_json) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"schema\": \"rrperf.spans.v1\", \"run\": " << header_json
        << ",\n \"fields\": [\"name\", \"start_ns\", \"end_ns\", "
           "\"parent\", \"id\"],\n \"spans\": [";
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "\n  " : ",\n  ") << "[" << rr::exp::jsonQuote(s.name)
            << ", " << s.start - base << ", " << s.end - base << ", "
            << s.parent << ", " << s.id << "]";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

void
summarizeBatch(Window &window, const std::vector<UnitSample> &samples)
{
    std::map<std::size_t, UnitSample> best;
    for (const UnitSample &s : samples) {
        const auto it = best.find(s.id);
        if (it == best.end() || s.ms < it->second.ms)
            best[s.id] = s;
    }
    std::vector<double> ms;
    double work = 0.0, total_ms = 0.0;
    for (const auto &[id, s] : best) {
        ms.push_back(s.ms);
        work += s.work;
        total_ms += s.ms;
    }
    window.units = samples.size();
    window.throughput = total_ms > 0 ? work / (total_ms * 1e-3) : 0.0;
    window.p50Ms = percentile(ms, 50);
    window.p90Ms = percentile(ms, 90);
}

double
peakRssMb()
{
    // VmHWM belongs to this program's address space; getrusage's
    // ru_maxrss also carries the high-water mark of the process that
    // forked it across exec.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB -> MiB
    }
    return 0.0;
}

void
setGapLayers(std::map<std::string, double> &layers,
             const GapTotals &totals)
{
    using rr::trace::EventKind;
    const std::pair<EventKind, const char *> names[] = {
        {EventKind::Switch, "multithread.gap_ns.switch"},
        {EventKind::FaultComplete, "multithread.gap_ns.fault_complete"},
        {EventKind::RunSegment, "multithread.gap_ns.run_segment"},
        {EventKind::SchedulerPoll, "multithread.gap_ns.scheduler_poll"},
        {EventKind::UnloadDecision,
         "multithread.gap_ns.unload_decision"},
        {EventKind::Alloc, "runtime.gap_ns.alloc"},
        {EventKind::Load, "runtime.gap_ns.load"},
        {EventKind::Unload, "runtime.gap_ns.unload"},
        {EventKind::Free, "runtime.gap_ns.free"},
        {EventKind::Queue, "runtime.gap_ns.queue"},
    };
    for (const auto &[kind, name] : names) {
        const unsigned k = static_cast<unsigned>(kind);
        layers[name] = totals.gaps[k] == 0
                           ? 0.0
                           : static_cast<double>(totals.gapNs[k]) /
                                 static_cast<double>(totals.gaps[k]);
    }
}

double
meanSpanNs(const std::map<std::string, SpanTotals> &totals,
           const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.selfNs / static_cast<double>(it->second.count);
}

namespace {

/** The recorded digest for (@p key, @p seed), or 0 when absent. */
uint64_t
goldenDigest(const std::string &path, const std::string &key,
             uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hex;
        uint64_t s = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> name >> s >> hex))
            continue;
        if (name == key && s == seed)
            return std::stoull(hex, nullptr, 16);
    }
    return 0;
}

} // namespace

void
Workload::closePass(const std::vector<uint64_t> &unit_digests,
                    const std::string &name)
{
    Digest pass;
    for (const uint64_t d : unit_digests)
        pass.add(d);
    if (windowDigest == 0)
        windowDigest = pass.value();
    else
        failures.check(pass.value() == windowDigest,
                       name + " pass digest differs from the first pass");
}

void
verifyDigests(Workload &workload, const Options &options,
              const std::string &key)
{
    const auto compare = [&](uint64_t seed, uint64_t actual,
                             uint64_t expected) {
        if (options.inject == "digest")
            expected ^= 1;
        workload.failures.check(
            actual == expected,
            "digest mismatch for " + key + " seed " +
                std::to_string(seed) + ": got " + hexDigest(actual) +
                ", recorded " + hexDigest(expected));
    };

    const uint64_t golden = goldenDigest(options.golden, key, options.seed);
    if (golden != 0) {
        compare(options.seed, workload.windowDigest, golden);
        return;
    }
    const uint64_t reference =
        goldenDigest(options.golden, key, kReferenceSeed);
    workload.failures.check(reference != 0,
                            "no recorded digest for " + key +
                                " reference seed in " + options.golden);
    if (reference != 0)
        compare(kReferenceSeed, workload.passDigest(kReferenceSeed),
                reference);
}

} // namespace rrperf

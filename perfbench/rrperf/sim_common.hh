/**
 * @file
 * Helpers shared by the two event-simulator workloads.
 */

#ifndef RRPERF_SIM_COMMON_HH
#define RRPERF_SIM_COMMON_HH

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "multithread/mt_processor.hh"

namespace rrperf {

/**
 * Simulated events of one run, as the perf_events figure counts
 * them: fault issue + completion, every charged allocator/loader
 * action, and each finished thread.
 */
inline uint64_t
eventCount(const rr::mt::MtStats &s)
{
    return 2 * s.faults + s.loads + s.unloads + s.allocSuccesses +
           s.allocFailures + s.threadsFinished;
}

/** Per-window sums of the runtime counters of many simulations. */
struct SimCounts
{
    double events = 0, allocAttempts = 0, allocFailures = 0, loads = 0,
           unloads = 0;

    void
    add(const rr::mt::MtStats &s)
    {
        events += static_cast<double>(eventCount(s));
        allocAttempts +=
            static_cast<double>(s.allocSuccesses + s.allocFailures);
        allocFailures += static_cast<double>(s.allocFailures);
        loads += static_cast<double>(s.loads);
        unloads += static_cast<double>(s.unloads);
    }

    /** The multithread.events and runtime.* count layers. */
    void
    report(std::map<std::string, double> &layers) const
    {
        layers["multithread.events"] = events;
        layers["runtime.alloc_attempts"] = allocAttempts;
        layers["runtime.alloc_fail_ratio"] =
            allocAttempts == 0 ? 0.0 : allocFailures / allocAttempts;
        layers["runtime.loads"] = loads;
        layers["runtime.unloads"] = unloads;
    }
};

/** Every MtStats field, in declaration order, as (name, bits). */
template <typename Fn>
void
forEachStat(const rr::mt::MtStats &s, Fn &&fn)
{
    fn("totalCycles", s.totalCycles);
    fn("usefulCycles", s.usefulCycles);
    fn("idleCycles", s.idleCycles);
    fn("switchCycles", s.switchCycles);
    fn("allocCycles", s.allocCycles);
    fn("deallocCycles", s.deallocCycles);
    fn("loadCycles", s.loadCycles);
    fn("unloadCycles", s.unloadCycles);
    fn("queueCycles", s.queueCycles);
    fn("faults", s.faults);
    fn("cacheFaults", s.cacheFaults);
    fn("syncFaults", s.syncFaults);
    fn("loads", s.loads);
    fn("unloads", s.unloads);
    fn("allocSuccesses", s.allocSuccesses);
    fn("allocFailures", s.allocFailures);
    const auto bits = [](double v) {
        uint64_t out = 0;
        std::memcpy(&out, &v, sizeof out);
        return out;
    };
    fn("efficiencyCentral", bits(s.efficiencyCentral));
    fn("efficiencyTotal", bits(s.efficiencyTotal));
    fn("avgResidentContexts", bits(s.avgResidentContexts));
    fn("maxResidentContexts", uint64_t{s.maxResidentContexts});
    fn("threadsFinished", uint64_t{s.threadsFinished});
}

inline void
digestStats(Digest &digest, const rr::mt::MtStats &s)
{
    forEachStat(s, [&](const char *, uint64_t v) { digest.add(v); });
}

/** Names of the fields where @p a and @p b differ ("" = none). */
inline std::string
statsDiff(const rr::mt::MtStats &a, const rr::mt::MtStats &b)
{
    std::vector<uint64_t> left;
    forEachStat(a, [&](const char *, uint64_t v) { left.push_back(v); });
    std::string diff;
    std::size_t i = 0;
    forEachStat(b, [&](const char *name, uint64_t v) {
        if (left[i++] == v)
            return;
        if (!diff.empty())
            diff += ',';
        diff += name;
    });
    return diff;
}

} // namespace rrperf

#endif // RRPERF_SIM_COMMON_HH

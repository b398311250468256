/**
 * @file
 * Event-simulator throughput microbenchmark (rrbench --perf):
 * measures mt::MtProcessor event processing in Mevents/s over
 * Figure 5-style (cache faults, never unload) and Figure 6-style
 * (sync faults, two-phase unload) scenarios, and reports the
 * completion-heap high-water mark from the zero-allocation EventCore.
 * The Figure 6 scenario runs again at 1024 threads, and a note
 * compares its host ns/event with the small run's, so a per-event
 * cost that grows with the thread count shows up next to the totals.
 * The Figure 5 scenario runs again with a trace::TraceAuditor
 * attached and reconciled, and a note gives the audited/unaudited
 * ns/event; another times an rr.ckpt.v1 snapshot and restore of the
 * 1024-thread run at its midpoint next to a bare FNV-1a pass over the
 * same bytes, the floor both sides pay for the checksum.
 *
 * As in bench_perf_interp, only deterministic counters enter the
 * compared table — total cycles, event counts, and the heap bound,
 * all fixed by the seed — while wall-clock throughput lives in notes
 * that --compare ignores.
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "base/table.hh"
#include "ckpt/io.hh"
#include "exp/registry.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/audit.hh"

namespace {

using namespace rr;

/** Fault completions plus every charged allocator/loader action. */
uint64_t
eventCount(const mt::MtStats &stats)
{
    return 2 * stats.faults + stats.loads + stats.unloads +
           stats.allocSuccesses + stats.allocFailures +
           stats.threadsFinished;
}

struct Scenario
{
    std::string name;
    mt::MtConfig config;
    unsigned reps;
    bool audited = false; ///< stream into a reconciled TraceAuditor
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::max(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count(),
                    1e-9);
}

/** Host microseconds per call of @p fn over @p reps calls. */
template <typename Fn>
double
microsPerCall(unsigned reps, Fn fn)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep)
        fn();
    return secondsSince(start) * 1e6 / reps;
}

/** The Figure 6-style scenario: sync faults, two-phase unloading. */
mt::MtConfig
syncTwoPhase(unsigned threads)
{
    return mt::SimulationSpec()
        .threads(threads)
        .workPerThread(40'000)
        .registerDemand(8, 24)
        .syncFaults(100.0, 1'000.0)
        .twoPhaseUnload()
        .seed(1)
        .build();
}

/**
 * Snapshot and restore host time of @p config at event @p midpoint,
 * next to one FNV-1a pass over the same bytes: the floor both sides
 * pay for the checksum.
 */
std::string
checkpointCost(const char *name, const mt::MtConfig &config,
               uint64_t midpoint)
{
    constexpr unsigned kReps = 20;
    mt::MtProcessor head(config);
    head.begin();
    while (!head.done() && head.eventIndex() < midpoint)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();
    const double snapshot_us =
        microsPerCall(kReps, [&] { (void)head.snapshot(); });

    std::vector<std::unique_ptr<mt::MtProcessor>> fresh;
    for (unsigned rep = 0; rep < kReps; ++rep)
        fresh.push_back(std::make_unique<mt::MtProcessor>(config));
    std::size_t next = 0;
    const double restore_us =
        microsPerCall(kReps, [&] { fresh[next++]->restore(doc); });

    volatile uint64_t hash = 0;
    const double hash_us = microsPerCall(kReps, [&] {
        hash = ckpt::fnv1a(doc.data(), doc.size());
    });

    const double bytes = static_cast<double>(doc.size());
    return exp::strf(
        "%s checkpoint at event %llu (%zu bytes): snapshot %.0f us "
        "(%.2f ns/byte), restore %.0f us (%.2f ns/byte), fnv1a alone "
        "%.0f us (%.2f ns/byte); snapshot %.2fx and restore %.2fx the "
        "fnv1a pass",
        name, static_cast<unsigned long long>(head.eventIndex()),
        doc.size(), snapshot_us, snapshot_us * 1e3 / bytes, restore_us,
        restore_us * 1e3 / bytes, hash_us, hash_us * 1e3 / bytes,
        snapshot_us / hash_us, restore_us / hash_us);
}

} // namespace

RR_PERF_FIGURE(perf_events,
               "Event-simulator throughput: completion heap and "
               "scheduler loop (Mevents/s)")
{
    using namespace rr;

    const unsigned threads = ctx.run().fast ? 48 : 96;
    const unsigned reps = ctx.run().fast ? 3 : 10;
    constexpr unsigned kManyThreads = 1024;

    ctx.text(exp::strf("Each scenario simulates %u threads to "
                       "completion %u times per seed (the last one "
                       "%u threads, once); the table carries "
                       "seed-determined totals (cycles, events, heap "
                       "high-water mark), the notes wall-clock "
                       "throughput.",
                       threads, reps, kManyThreads));

    const mt::MtConfig cacheNever = mt::SimulationSpec()
                                        .threads(threads)
                                        .workPerThread(40'000)
                                        .registerDemand(8, 24)
                                        .cacheFaults(50.0, 200)
                                        .neverUnload()
                                        .seed(1)
                                        .build();
    std::vector<Scenario> scenarios;
    scenarios.push_back({"fig5_cache_never", cacheNever, reps});
    scenarios.push_back({"fig5_cache_audited", cacheNever, reps, true});
    scenarios.push_back(
        {"fig6_sync_twophase", syncTwoPhase(threads), reps});
    scenarios.push_back({"fig6_sync_twophase_t1024",
                         syncTwoPhase(kManyThreads), 1});

    Table table({"scenario", "cycles", "events", "faults", "loads",
                 "unloads", "heap max"});
    double total_events = 0.0, total_secs = 0.0;
    double sync_ns_per_event[2] = {0.0, 0.0}; // few threads, many
    double cache_ns_per_event[2] = {0.0, 0.0}; // unaudited, audited
    std::size_t audit_violations = 0;
    uint64_t many_events = 0; // event-loop length at 1024 threads

    for (const Scenario &scenario : scenarios) {
        const unsigned reps = scenario.reps;
        const unsigned supply = scenario.config.workload.numThreads;
        mt::MtStats stats;
        std::size_t heap_max = 0;
        const auto start = std::chrono::steady_clock::now();
        for (unsigned rep = 0; rep < reps; ++rep) {
            mt::MtConfig config = scenario.config;
            trace::TraceAuditor auditor(config.costs);
            if (scenario.audited)
                config.traceSink = &auditor;
            mt::MtProcessor processor(config);
            stats = processor.run();
            heap_max = processor.completionCore().maxSize();
            many_events = processor.eventIndex();
            if (scenario.audited)
                audit_violations +=
                    auditor.reconcile(mt::auditTotals(stats)).size();
        }
        const double secs = secondsSince(start);

        const uint64_t events = eventCount(stats);
        table.addRow({scenario.name, Table::num(stats.totalCycles),
                      Table::num(events), Table::num(stats.faults),
                      Table::num(stats.loads),
                      Table::num(stats.unloads),
                      Table::num(static_cast<uint64_t>(heap_max))});

        const double mevents =
            static_cast<double>(events) * reps / secs / 1e6;
        ctx.text(exp::strf("%s: %.2f Mevents/s (heap never exceeded "
                           "%u entries for %u threads)",
                           scenario.name.c_str(), mevents,
                           static_cast<unsigned>(heap_max), supply));

        total_events += static_cast<double>(events) * reps;
        total_secs += secs;
        const double ns_per_event =
            secs * 1e9 / (static_cast<double>(events) * reps);
        if (scenario.name.rfind("fig6_sync_twophase", 0) == 0)
            sync_ns_per_event[supply == kManyThreads] = ns_per_event;
        if (scenario.name.rfind("fig5_cache", 0) == 0)
            cache_ns_per_event[scenario.audited] = ns_per_event;
    }
    ctx.table("scenarios", "seed-determined totals per scenario "
                           "(identical on every machine)",
              std::move(table));

    ctx.text(exp::strf("aggregate: %.2f Mevents/s",
                       total_events / total_secs / 1e6));
    ctx.text(exp::strf("fig6_sync_twophase host cost: %.0f ns/event at "
                       "%u threads, %.0f ns/event at %u threads (%.2fx; "
                       "flat when per-event work is independent of the "
                       "thread count)",
                       sync_ns_per_event[0], threads,
                       sync_ns_per_event[1], kManyThreads,
                       sync_ns_per_event[1] / sync_ns_per_event[0]));
    ctx.text(exp::strf("fig5_cache audit cost: %.0f ns/event unaudited, "
                       "%.0f ns/event with a TraceAuditor attached "
                       "(%.2fx; %zu violation(s))",
                       cache_ns_per_event[0], cache_ns_per_event[1],
                       cache_ns_per_event[1] / cache_ns_per_event[0],
                       audit_violations));

    // Checkpoint cost at the midpoint of 1024-thread two-phase runs:
    // the scenario above, and the sync_scale shape (three faults a
    // thread, fixed 32-register contexts) whose documents hold mostly
    // per-thread state rather than the interval recorder.
    ctx.text(checkpointCost("fig6_sync_twophase_t1024",
                            syncTwoPhase(kManyThreads), many_events / 2));
    ctx.text(checkpointCost("sync_scale_fixed_t1024",
                            mt::SimulationSpec()
                                .threads(kManyThreads)
                                .workPerThread(300)
                                .registerDemand(8, 24)
                                .syncFaults(100.0, 1'000.0)
                                .twoPhaseUnload()
                                .arch(mt::ArchKind::FixedHw)
                                .seed(1)
                                .build(),
                            kManyThreads * 3 / 2));
}

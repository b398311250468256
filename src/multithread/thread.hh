/**
 * @file
 * Synthetic thread state for the multithreading experiments
 * (Section 3.1: "a supply of synthetic threads was created with
 * particular fault rates and fault service latencies").
 */

#ifndef RR_MULTITHREAD_THREAD_HH
#define RR_MULTITHREAD_THREAD_HH

#include <cstdint>
#include <optional>

#include "base/rng.hh"
#include "runtime/context_allocator.hh"

namespace rr::mt {

/** Lifecycle of a synthetic thread. */
enum class ThreadState : uint8_t
{
    UnloadedReady,   ///< runnable, waiting in the software thread queue
    LoadedReady,     ///< resident and runnable (in the context ring)
    Running,         ///< currently executing
    BlockedLoaded,   ///< fault outstanding, context still resident
    BlockedUnloaded, ///< fault outstanding, context released
    Finished,        ///< all work completed
};

/** @return printable state name. */
constexpr const char *
threadStateName(ThreadState state)
{
    switch (state) {
      case ThreadState::UnloadedReady:
        return "unloaded-ready";
      case ThreadState::LoadedReady:
        return "loaded-ready";
      case ThreadState::Running:
        return "running";
      case ThreadState::BlockedLoaded:
        return "blocked-loaded";
      case ThreadState::BlockedUnloaded:
        return "blocked-unloaded";
      case ThreadState::Finished:
        return "finished";
    }
    return "unknown";
}

/** One synthetic thread. */
struct Thread
{
    unsigned id = 0;
    unsigned regsUsed = 0;       ///< C: registers this thread requires
    uint64_t totalWork = 0;      ///< useful cycles to execute in total
    uint64_t remainingWork = 0;  ///< useful cycles still to execute

    ThreadState state = ThreadState::UnloadedReady;

    /**
     * Scheduling priority (0 = highest). The software scheduler
     * keeps one NextRRM ring per priority level (Section 2.2:
     * "separate linked lists of register relocation masks could be
     * maintained to implement different thread classes or
     * priorities").
     */
    unsigned priority = 0;

    /** Simulation time at which the thread finished (0 if running). */
    uint64_t finishTime = 0;

    /** Resident context, when loaded. */
    std::optional<runtime::Context> context;

    /** Absolute completion time of the outstanding fault. */
    uint64_t faultCompletion = 0;

    /** Time at which the thread blocked (two-phase accounting). */
    uint64_t blockedAt = 0;

    /**
     * Monotonic counter bumped on every block/unblock; stale heap
     * entries are detected by comparing epochs.
     */
    uint64_t blockEpoch = 0;

    /**
     * Wasted-poll cycles accrued against this blocked, loaded
     * context (two-phase competitive accounting): while the
     * processor spins with nothing runnable, each blocked resident
     * context accrues its share of the spin time; the context is
     * unloaded when the accrual reaches the cost of unloading and
     * blocking it. Under two-phase unloading the live value of a
     * blocked, loaded thread is held by the processor's spin clock;
     * this field is brought up to date when the thread leaves that
     * state and in every snapshot.
     */
    uint64_t spinAccrued = 0;

    /** Private random stream for run lengths and latencies. */
    Rng rng{0};

    // Per-thread statistics.
    uint64_t faults = 0;
    uint64_t timesLoaded = 0;
    uint64_t timesUnloaded = 0;
};

} // namespace rr::mt

#endif // RR_MULTITHREAD_THREAD_HH

/**
 * @file
 * Shared pieces of the rrperf benchmark program: host clocks, the
 * in-memory span recorder used by traced runs, output digests,
 * failure accounting, and the interface every workload implements.
 *
 * Spans are recorded only from the benchmark's own files, around
 * calls into the simulator's public functions; nothing inside the
 * program is instrumented.
 */

#ifndef RRPERF_HARNESS_HH
#define RRPERF_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sink.hh"

namespace rrperf {

/** Host monotonic time in nanoseconds. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** SplitMix64: the benchmark's input generator (seed -> inputs). */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi]. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

  private:
    uint64_t state_;
};

/** FNV-1a 64-bit digest of a workload's outputs. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(std::string_view bytes)
    {
        add(static_cast<uint64_t>(bytes.size()));
        for (const char c : bytes) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hexDigest(uint64_t value);

/** Attempted vs failed operations, with the first few reasons. */
class Failures
{
  public:
    /** Count one operation; @p ok false records @p what as failed. */
    void check(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** One recorded span: [start, end) host ns, parent index or -1. */
struct Span
{
    const char *name = "";
    uint64_t start = 0;
    uint64_t end = 0;
    int32_t parent = -1;
    uint64_t id = 0; ///< unit or request id
};

/** Per-name totals derived from the spans. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0; ///< total minus children's coverage
};

/**
 * In-memory span recorder. Nested spans (open/close) follow a stack
 * discipline on one thread; add() records a finished span with an
 * explicit parent, for overlapping request spans.
 */
class Spans
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int32_t open(const char *name, uint64_t id);
    void close(int32_t index);
    int32_t add(const char *name, uint64_t start, uint64_t end,
                int32_t parent, uint64_t id);

    std::map<std::string, SpanTotals> totals() const;

    /** Write all spans as one JSON document (with @p header). */
    bool write(const std::string &path,
               const std::string &header_json) const;

    std::size_t size() const { return spans_.size(); }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span around one call; free when recording is off. */
class Scoped
{
  public:
    Scoped(Spans &spans, const char *name, uint64_t id = 0)
        : spans_(spans),
          index_(spans.enabled() ? spans.open(name, id) : -1)
    {
    }
    ~Scoped()
    {
        if (index_ >= 0)
            spans_.close(index_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Spans &spans_;
    int32_t index_;
};

/** Host time between emitted events, charged per event kind. */
struct GapTotals
{
    uint64_t gapNs[rr::trace::numEventKinds] = {};
    uint64_t gaps[rr::trace::numEventKinds] = {};
    uint64_t events = 0;
    uint64_t forwardNs = 0; ///< time spent in the forwarded-to sink
};

/**
 * A benchmark-owned trace sink for traced runs: it timestamps each
 * event the simulator emits and charges the host time since the
 * previous event to the new event's kind (the event core exposes no
 * internal calls to time). Events are forwarded to @p next, whose
 * own time is measured separately and excluded from the gaps.
 */
class GapSink : public rr::trace::TraceSink
{
  public:
    GapSink(GapTotals &totals, rr::trace::TraceSink *next)
        : totals_(totals), next_(next), last_(nowNs())
    {
    }

    void
    emit(const rr::trace::TraceEvent &event) override
    {
        const uint64_t t0 = nowNs();
        const unsigned k = static_cast<unsigned>(event.kind);
        totals_.gapNs[k] += t0 - last_;
        ++totals_.gaps[k];
        ++totals_.events;
        last_ = t0;
        if (next_ != nullptr) {
            next_->emit(event);
            last_ = nowNs();
            totals_.forwardNs += last_ - t0;
        }
    }

  private:
    GapTotals &totals_;
    rr::trace::TraceSink *next_;
    uint64_t last_;
};

/** Set the multithread/runtime gap_ns.* layers from @p totals. */
void setGapLayers(std::map<std::string, double> &layers,
                  const GapTotals &totals);

/** Mean self time (ns) of the spans named @p name (0 when none). */
double meanSpanNs(const std::map<std::string, SpanTotals> &totals,
                  const std::string &name);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p (0..100) of @p values. */
double percentile(std::vector<double> values, double p);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** What a run asks of a workload. */
struct Options
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool tiny = false;      ///< self-test size
    std::string inject;     ///< "", "digest" or "failure"
    std::string golden;     ///< path of the recorded digests
    std::string examplesOs; ///< directory of examples/os/*.s
};

/** One timed window of a workload and its end-to-end figures. */
struct Window
{
    double seconds = 0.0;
    std::size_t units = 0;   ///< units completed
    double throughput = 0.0; ///< work per host second
    double p50Ms = 0.0;      ///< unit latency, median
    double p90Ms = 0.0;      ///< unit latency, 90th percentile
    /** The workload's own figures (name -> value). */
    std::map<std::string, double> named;
};

/** One finished unit of a batch workload. */
struct UnitSample
{
    std::size_t id = 0; ///< the unit's position in the pass
    double ms = 0.0;    ///< host time of this repetition
    double work = 0.0;  ///< events or instructions it did
};

/**
 * End-to-end figures of a batch workload, whose passes repeat the
 * same units. Other load on a shared host only ever adds time, so
 * each unit is charged its fastest repetition in the window: the
 * latency percentiles are taken over the units' fastest times, and
 * throughput is the units' total work over the sum of those times.
 */
void summarizeBatch(Window &window, const std::vector<UnitSample> &samples);

/** A per-layer metric value keyed by its BENCHMARK.json name. */
using Layers = std::map<std::string, double>;

/**
 * One benchmark workload. main() calls setup() several times
 * (timed), then one or two windows, then verifyDigests(). A workload owns
 * its correctness checks and counts every operation in `failures`.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs from the seed, start services, warm up. */
    virtual void setup() = 0;

    /**
     * Run units until @p seconds of host time have passed, and at
     * least one complete pass. Per-layer figures go into @p layers:
     * counts and plain timings from an untraced window, span and gap
     * timings from a traced one (@p spans recording).
     */
    virtual Window window(double seconds, Spans &spans,
                          Layers &layers) = 0;

    /**
     * Digest of the first pass for @p seed, computed without timing
     * (the golden file records these; see --record-golden).
     */
    virtual uint64_t passDigest(uint64_t seed) = 0;

    /** Digest of the first pass the windows ran (0 = none yet). */
    uint64_t windowDigest = 0;

    Failures failures;

  protected:
    /**
     * Fold a finished pass's unit digests: the first pass sets
     * windowDigest, every later one must repeat it.
     */
    void closePass(const std::vector<uint64_t> &unit_digests,
                   const std::string &name);
};

/** Fixed seed whose digest is always recorded (reference check). */
constexpr uint64_t kReferenceSeed = 0;

/**
 * Compare the window's first-pass digest with the golden file's
 * record for the run's seed. A seed with no record is checked
 * through the reference seed instead: its pass is recomputed and
 * compared. Each comparison is one counted operation; "digest"
 * injection corrupts the expectation.
 */
void verifyDigests(Workload &workload, const Options &options,
                   const std::string &key);

std::unique_ptr<Workload> makeCacheSweep(const Options &options);
std::unique_ptr<Workload> makeSyncScale(const Options &options);
std::unique_ptr<Workload> makeRriscMix(const Options &options);
std::unique_ptr<Workload> makeServeMixed(const Options &options);

} // namespace rrperf

#endif // RRPERF_HARNESS_HH

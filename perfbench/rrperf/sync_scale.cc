/**
 * @file
 * sync_scale: the Figure 6 family — synchronization faults, two-phase
 * unloading, fixed-32 and flexible contexts — over a thread-supply
 * axis from 64 to 1024 threads. Each simulation is driven through
 * MtProcessor::begin/step/finish and snapshotted once near its
 * midpoint; the snapshot is restored into a fresh processor whose
 * continuation must equal the straight run field for field. There is
 * no trace sink (the traced run adds a timing sink only).
 *
 * The allocator, the loader, the unload path and checkpointing do
 * most of their work here and little in cache_sweep, and per-event
 * cost grows with the thread count where the event core scans its
 * threads: an event-core change shows its gain here.
 */

#include <algorithm>
#include <optional>

#include "multithread/simulation_spec.hh"
#include "sim_common.hh"

namespace rrperf {

namespace {

using namespace rr;

struct ScaleUnit
{
    unsigned threads = 64;
    mt::ArchKind arch = mt::ArchKind::Flexible;
    uint64_t seed = 1;
};

/** Mean run length and latency of the synchronization faults. */
constexpr double kRunLength = 100.0;
constexpr double kLatency = 1000.0;

/**
 * Event-loop iterations per timed chunk of a unit. A 1024-thread unit
 * runs for tens of milliseconds, too long to fit whole in one of a
 * shared host's fast stretches, so a unit is timed in chunks (about
 * 30 us at 1024 threads) and charged the sum of each chunk's fastest
 * repetition. Against the fastest whole repetition this cut the
 * spread of the figures over three runs on a shared 4-vCPU KVM guest
 * from 13-15% to 4-8%.
 */
constexpr uint64_t kChunkEvents = 16;

class SyncScale : public Workload
{
  public:
    explicit SyncScale(const Options &options) : options_(options)
    {
        axis_ = options.tiny ? std::vector<unsigned>{64, 128}
                             : std::vector<unsigned>{64, 128, 256, 512,
                                                     1024};
    }

    void
    setup() override
    {
        units_ = makeUnits(options_.seed);
        configs_.clear();
        const uint64_t t0 = nowNs();
        for (const ScaleUnit &u : units_)
            configs_.push_back(specFor(u).build());
        specBuildNs_ = static_cast<double>(nowNs() - t0) /
                       static_cast<double>(units_.size());
        digests_.assign(units_.size(), 0);
        pos_ = 0;
        Spans off;
        for (std::size_t i = 0; i < 4; ++i) { // warm-up: 64..512 threads
            Outcome warm;
            runUnit(i, off, nullptr, warm);
        }
    }

    Window
    window(double seconds, Spans &spans, Layers &layers) override
    {
        Window w;
        const bool traced = spans.enabled();
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        GapTotals gaps;
        std::size_t repetitions = 0;
        std::vector<std::vector<double>> chunk_min(units_.size());
        std::vector<double> unit_events(units_.size(), 0.0);
        std::vector<double> axis_ns(axis_.size(), 0.0),
            axis_events(axis_.size(), 0.0);
        SimCounts counts;
        double snapshot_bytes = 0, snapshot_threads = 0, snapshots = 0;

        while (pos_ != 0 || windowDigest == 0 || nowNs() < deadline) {
            Outcome o;
            runUnit(pos_, spans, traced ? &gaps : nullptr, o);
            failures.check(o.error.empty(),
                           "sync_scale unit " + std::to_string(pos_) +
                               ": " + o.error);

            const ScaleUnit &u = units_[pos_];
            const uint64_t ev = eventCount(o.stats);
            counts.add(o.stats);
            ++repetitions;
            unit_events[pos_] = static_cast<double>(ev);
            // The chunks are the same on every repetition of a unit (a
            // simulation is deterministic); a failed one may stop early.
            std::vector<double> &best = chunk_min[pos_];
            if (best.size() != o.chunkNs.size())
                best = o.chunkNs;
            for (std::size_t c = 0; c < best.size(); ++c)
                best[c] = std::min(best[c], o.chunkNs[c]);
            const std::size_t a = static_cast<std::size_t>(
                std::find(axis_.begin(), axis_.end(), u.threads) -
                axis_.begin());
            axis_ns[a] += o.straightNs;
            axis_events[a] += static_cast<double>(ev);
            snapshot_bytes += static_cast<double>(o.snapshotBytes);
            snapshot_threads += u.threads;
            ++snapshots;

            Digest d;
            digestStats(d, o.stats);
            digests_[pos_] = d.value();
            if (++pos_ == units_.size()) {
                pos_ = 0;
                closePass(digests_, "sync_scale");
            }
        }
        w.seconds = static_cast<double>(nowNs() - start) * 1e-9;
        std::vector<UnitSample> samples;
        for (std::size_t u = 0; u < units_.size(); ++u) {
            double ns = 0;
            for (const double c : chunk_min[u])
                ns += c;
            if (!chunk_min[u].empty())
                samples.push_back({u, ns * 1e-6, unit_events[u]});
        }
        summarizeBatch(w, samples);
        w.units = repetitions;
        w.named["sim_mevents_per_s"] = counts.events / w.seconds * 1e-6;

        if (!traced) {
            double ns = 0;
            for (std::size_t a = 0; a < axis_.size(); ++a) {
                ns += axis_ns[a];
                layers["multithread.ns_per_event.t" +
                       std::to_string(axis_[a])] =
                    axis_events[a] == 0 ? 0.0 : axis_ns[a] / axis_events[a];
            }
            layers["multithread.ns_per_event"] = ns / counts.events;
            layers["multithread.spec_build_ns"] = specBuildNs_;
            counts.report(layers);
            layers["ckpt.snapshot_bytes"] = snapshot_bytes / snapshots;
            layers["ckpt.bytes_per_thread"] =
                snapshot_bytes / snapshot_threads;
            return w;
        }

        const auto totals = spans.totals();
        layers["ckpt.snapshot_ns"] = meanSpanNs(totals, "ckpt.snapshot");
        layers["ckpt.restore_ns"] = meanSpanNs(totals, "ckpt.restore");
        setGapLayers(layers, gaps);
        return w;
    }

    uint64_t
    passDigest(uint64_t seed) override
    {
        Digest pass;
        for (const ScaleUnit &u : makeUnits(seed)) {
            Digest d;
            digestStats(d, mt::simulate(specFor(u).build()));
            pass.add(d.value());
        }
        return pass.value();
    }

  private:
    struct Outcome
    {
        mt::MtStats stats;
        std::string error;
        double straightNs = 0.0; ///< begin..finish of the straight run
        std::size_t snapshotBytes = 0;
        std::vector<double> chunkNs; ///< the unit's time, chunk by chunk
    };

    std::vector<ScaleUnit>
    makeUnits(uint64_t seed) const
    {
        // Each (seed, arch) sweeps the whole thread axis in turn, so
        // every stretch of the window holds the same mix of sizes.
        InputRng rng(seed * 0x9e3779b97f4a7c15ull + 11);
        const unsigned seeds = options_.tiny ? 1 : 10;
        std::vector<ScaleUnit> units;
        for (unsigned s = 0; s < seeds; ++s) {
            const uint64_t sim_seed = rng.range(1, 1u << 30);
            for (const auto arch :
                 {mt::ArchKind::FixedHw, mt::ArchKind::Flexible})
                for (const unsigned n : axis_)
                    units.push_back({n, arch, sim_seed});
        }
        return units;
    }

    mt::SimulationSpec
    specFor(const ScaleUnit &u) const
    {
        const uint64_t faults_per_thread = options_.tiny ? 2 : 3;
        return mt::SimulationSpec()
            .syncFaults(kRunLength, kLatency)
            .twoPhaseUnload()
            .arch(u.arch)
            .registerDemand(8, 24)
            .threads(u.threads)
            .workPerThread(static_cast<uint64_t>(kRunLength) *
                           faults_per_thread)
            .seed(u.seed);
    }

    /**
     * Straight run with a snapshot near the midpoint, then the
     * restored continuation, which must reproduce the straight
     * statistics exactly.
     */
    void
    runUnit(std::size_t index, Spans &spans, GapTotals *gaps, Outcome &o)
    {
        try {
            Scoped unit(spans, "sync_scale.unit", index);
            mt::MtConfig config = configs_[index];
            std::optional<GapSink> timed;
            if (gaps != nullptr)
                config.traceSink = &timed.emplace(*gaps, nullptr);

            // The expected event-loop length: one iteration per fault.
            const uint64_t midpoint =
                config.workload.numThreads *
                (static_cast<uint64_t>(
                     config.workload.workDist->mean() / kRunLength)) /
                2;
            std::vector<uint8_t> doc;
            uint64_t mark = nowNs();
            const uint64_t t0 = mark;
            const auto lap = [&] {
                const uint64_t now = nowNs();
                o.chunkNs.push_back(static_cast<double>(now - mark));
                mark = now;
            };
            mt::MtProcessor straight(config);
            {
                Scoped sim(spans, "multithread.run", index);
                straight.begin();
                while (!straight.done()) {
                    if (straight.eventIndex() == midpoint) {
                        Scoped snap(spans, "ckpt.snapshot", index);
                        doc = straight.snapshot();
                    }
                    straight.step();
                    if (straight.eventIndex() % kChunkEvents == 0)
                        lap();
                }
                o.stats = straight.finish();
            }
            o.straightNs = static_cast<double>(nowNs() - t0);
            if (doc.empty()) {
                o.error = "simulation ended before its midpoint snapshot";
                return;
            }
            o.snapshotBytes = doc.size();

            mt::MtConfig fresh_config = configs_[index];
            mt::MtProcessor fresh(fresh_config);
            {
                Scoped rest(spans, "ckpt.restore", index);
                fresh.restore(doc);
            }
            lap();
            mt::MtStats resumed;
            {
                // What run() does, stepped so that it can be timed in
                // the same chunks.
                Scoped cont(spans, "multithread.continuation", index);
                fresh.begin();
                while (!fresh.done()) {
                    fresh.step();
                    if (fresh.eventIndex() % kChunkEvents == 0)
                        lap();
                }
                resumed = fresh.finish();
            }
            lap();
            const std::string diff = statsDiff(o.stats, resumed);
            if (!diff.empty())
                o.error = "restored continuation differs in " + diff;
        } catch (const std::exception &error) {
            o.error = error.what();
        }
    }

    Options options_;
    std::vector<unsigned> axis_;
    std::vector<ScaleUnit> units_;
    std::vector<mt::MtConfig> configs_;
    std::vector<uint64_t> digests_;
    std::size_t pos_ = 0;
    double specBuildNs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeSyncScale(const Options &options)
{
    return std::make_unique<SyncScale>(options);
}

} // namespace rrperf

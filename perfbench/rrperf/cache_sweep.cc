/**
 * @file
 * cache_sweep: the Figure 5 grid — cache faults, contexts never
 * unloaded, the paper's 64-thread supply, fixed-32 and flexible
 * contexts over several seeds — fanned out through exp::runParallel
 * on one worker. Every simulation streams into a trace::TraceAuditor
 * and is reconciled, and each chunk of results is written as an
 * rr.bench.v1 report and parsed back, as rrbench --audit does.
 *
 * Per-event cost is flat in the thread count here, so this workload
 * isolates the event loop, fault draws, ContextRing and the trace
 * audit; allocator churn, the loader and checkpoints do almost
 * nothing.
 */

#include <algorithm>
#include <optional>

#include "base/table.hh"
#include "exp/engine.hh"
#include "exp/json_in.hh"
#include "exp/report.hh"
#include "multithread/simulation_spec.hh"
#include "sim_common.hh"
#include "trace/audit.hh"

namespace rrperf {

namespace {

using namespace rr;

struct SweepUnit
{
    unsigned regs = 128;
    double runLength = 32.0;
    uint64_t latency = 128;
    mt::ArchKind arch = mt::ArchKind::Flexible;
    uint64_t seed = 1;
};

/** One unit's outputs, written only by the task that ran it. */
struct UnitOut
{
    mt::MtStats stats;
    std::vector<std::string> problems;
    std::string error;
    double simNs = 0.0;
    double ms = 0.0;
};

/** Units per runParallel call; each chunk becomes one report. */
constexpr std::size_t kChunk = 6;

class CacheSweep : public Workload
{
  public:
    explicit CacheSweep(const Options &options) : options_(options) {}

    void
    setup() override
    {
        units_ = makeUnits(options_.seed);
        configs_.clear();
        const uint64_t t0 = nowNs();
        for (const SweepUnit &u : units_)
            configs_.push_back(specFor(u).build());
        specBuildNs_ = static_cast<double>(nowNs() - t0) /
                       static_cast<double>(units_.size());
        digests_.assign(units_.size(), 0);
        pos_ = 0;
        Spans off;
        for (std::size_t i = 0; i < kChunk; ++i) // warm-up: one chunk
            runUnit(i, off, nullptr);
    }

    Window
    window(double seconds, Spans &spans, Layers &layers) override
    {
        Window w;
        const bool traced = spans.enabled();
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        std::vector<UnitOut> outs(kChunk);
        GapTotals gaps;
        std::vector<UnitSample> samples;
        SimCounts counts;
        double sim_ns = 0;
        uint64_t violations = 0, sims = 0;

        while (pos_ != 0 || windowDigest == 0 || nowNs() < deadline) {
            const std::size_t n = std::min(kChunk, units_.size() - pos_);
            {
                Scoped span(spans, "exp.runParallel", pos_);
                exp::runParallel(
                    n,
                    [&](std::size_t i) {
                        outs[i] = runUnit(pos_ + i, spans,
                                          traced ? &gaps : nullptr);
                    },
                    1);
            }

            Table table({"unit", "regs", "R", "L", "arch", "cycles",
                         "events", "efficiency"});
            for (std::size_t i = 0; i < n; ++i) {
                const UnitOut &o = outs[i];
                const SweepUnit &u = units_[pos_ + i];
                const std::string why =
                    !o.error.empty() ? o.error
                    : o.problems.empty() ? std::string()
                                         : o.problems.front();
                failures.check(why.empty(),
                               "cache_sweep unit " +
                                   std::to_string(pos_ + i) + ": " + why);
                violations += o.problems.size();
                ++sims;
                Digest d;
                digestStats(d, o.stats);
                digests_[pos_ + i] = d.value();
                const uint64_t ev = eventCount(o.stats);
                counts.add(o.stats);
                sim_ns += o.simNs;
                samples.push_back({pos_ + i, o.ms, static_cast<double>(ev)});
                table.addRow({Table::num(uint64_t{pos_ + i}),
                              Table::num(u.regs),
                              Table::num(u.runLength, 1),
                              Table::num(u.latency), mt::archName(u.arch),
                              Table::num(o.stats.totalCycles),
                              Table::num(ev),
                              Table::num(o.stats.efficiencyCentral, 4)});
            }
            reportChunk(std::move(table), n, spans);

            pos_ += n;
            if (pos_ == units_.size()) {
                pos_ = 0;
                closePass(digests_, "cache_sweep");
            }
        }
        w.seconds = static_cast<double>(nowNs() - start) * 1e-9;
        summarizeBatch(w, samples);
        w.named["sim_mevents_per_s"] = counts.events / w.seconds * 1e-6;

        if (!traced) {
            layers["multithread.ns_per_event"] = sim_ns / counts.events;
            layers["multithread.spec_build_ns"] = specBuildNs_;
            counts.report(layers);
            layers["trace.violations"] = static_cast<double>(violations);
            return w;
        }

        const auto totals = spans.totals();
        // runParallel's self time is its wall time minus the units'.
        const auto engine = totals.find("exp.runParallel");
        layers["exp.engine_overhead_ns_per_unit"] =
            engine == totals.end()
                ? 0.0
                : engine->second.selfNs / static_cast<double>(sims);
        layers["trace.reconcile_ns_per_sim"] =
            meanSpanNs(totals, "trace.reconcile");
        layers["exp.report_json_ns"] = meanSpanNs(totals, "exp.report_json");
        layers["exp.parse_json_ns"] = meanSpanNs(totals, "exp.parse_json");
        layers["trace.emit_ns_per_event"] =
            gaps.events == 0 ? 0.0
                             : static_cast<double>(gaps.forwardNs) /
                                   static_cast<double>(gaps.events);
        setGapLayers(layers, gaps);
        return w;
    }

    uint64_t
    passDigest(uint64_t seed) override
    {
        Digest pass;
        for (const SweepUnit &u : makeUnits(seed)) {
            mt::MtConfig config = specFor(u).build();
            trace::TraceAuditor auditor(config.costs);
            config.traceSink = &auditor;
            Digest d;
            digestStats(d, mt::simulate(config));
            pass.add(d.value());
        }
        return pass.value();
    }

  private:
    /** The grid: files x run lengths x latencies x seeds x archs. */
    std::vector<SweepUnit>
    makeUnits(uint64_t seed) const
    {
        InputRng rng(seed * 0x100000001b3ull + 5);
        const bool tiny = options_.tiny;
        const std::vector<unsigned> files =
            tiny ? std::vector<unsigned>{64}
                 : std::vector<unsigned>{64, 128, 256};
        const std::vector<double> runs =
            tiny ? std::vector<double>{8, 32}
                 : std::vector<double>{8, 32, 128};
        const std::vector<uint64_t> lats =
            tiny ? std::vector<uint64_t>{32, 128}
                 : std::vector<uint64_t>{32, 128, 512};
        const unsigned seeds = tiny ? 1 : 2;
        std::vector<SweepUnit> units;
        for (const unsigned f : files)
            for (const double r : runs)
                for (const uint64_t l : lats)
                    for (unsigned s = 0; s < seeds; ++s) {
                        const uint64_t sim_seed = rng.range(1, 1u << 30);
                        for (const auto arch : {mt::ArchKind::FixedHw,
                                                mt::ArchKind::Flexible})
                            units.push_back({f, r, l, arch, sim_seed});
                    }
        return units;
    }

    mt::SimulationSpec
    specFor(const SweepUnit &u) const
    {
        // Faults per thread: enough for a steady central window while
        // keeping each simulation a few milliseconds.
        const uint64_t faults_per_thread = options_.tiny ? 20 : 120;
        return mt::SimulationSpec()
            .cacheFaults(u.runLength, u.latency)
            .arch(u.arch)
            .numRegs(u.regs)
            .threads(64)
            .workPerThread(static_cast<uint64_t>(u.runLength) *
                           faults_per_thread)
            .seed(u.seed);
    }

    UnitOut
    runUnit(std::size_t index, Spans &spans, GapTotals *gaps)
    {
        UnitOut out;
        const uint64_t t0 = nowNs();
        try {
            Scoped unit(spans, "cache_sweep.unit", index);
            mt::MtConfig config = configs_[index];
            trace::TraceAuditor auditor(config.costs);
            std::optional<GapSink> timed;
            if (gaps != nullptr)
                config.traceSink = &timed.emplace(*gaps, &auditor);
            else
                config.traceSink = &auditor;
            const uint64_t s0 = nowNs();
            {
                Scoped sim(spans, "multithread.simulate", index);
                out.stats = mt::simulate(config);
            }
            out.simNs = static_cast<double>(nowNs() - s0);
            Scoped rec(spans, "trace.reconcile", index);
            out.problems = auditor.reconcile(mt::auditTotals(out.stats));
        } catch (const std::exception &error) {
            out.error = error.what();
        }
        out.ms = static_cast<double>(nowNs() - t0) * 1e-6;
        return out;
    }

    /** Write @p table as an rr.bench.v1 report and parse it back. */
    void
    reportChunk(Table table, std::size_t rows, Spans &spans)
    {
        std::string json;
        {
            Scoped span(spans, "exp.report_json", pos_);
            exp::ReportBuilder builder("cache_sweep",
                                       "Figure 5 grid chunk",
                                       {1, 64, true});
            builder.table("units", "audited units", std::move(table));
            json = builder.report().toJson();
        }
        std::string error;
        std::optional<exp::JsonValue> doc;
        {
            Scoped span(spans, "exp.parse_json", pos_);
            doc = exp::parseJson(json, &error);
        }
        bool ok = doc.has_value() && exp::validateReportJson(*doc).empty();
        if (ok) {
            const exp::JsonValue &sections = *doc->find("sections");
            const exp::JsonValue *table_rows =
                sections.elements.empty()
                    ? nullptr
                    : sections.elements.back().find("rows");
            ok = table_rows != nullptr &&
                 table_rows->elements.size() == rows;
        }
        failures.check(ok, "cache_sweep report did not round-trip " +
                               error);
    }

    Options options_;
    std::vector<SweepUnit> units_;
    std::vector<mt::MtConfig> configs_;
    std::vector<uint64_t> digests_;
    std::size_t pos_ = 0;
    double specBuildNs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeCacheSweep(const Options &options)
{
    return std::make_unique<CacheSweep>(options);
}

} // namespace rrperf

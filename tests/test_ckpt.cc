/**
 * @file
 * rr.ckpt.v1 checkpoint/restore tests (docs/CKPT.md).
 *
 * The determinism contract under test: snapshot a simulation at any
 * event boundary, restore it into a *fresh* processor, and the
 * remaining trace and the final statistics are identical to the
 * uninterrupted run. Plus: the container format round-trips exactly,
 * every corrupted or cross-spec document is rejected with a
 * ckpt::Error (never an assertion abort), and a restored
 * RelocationUnit never trusts memo epochs minted before the restore.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "base/distributions.hh"
#include "ckpt/io.hh"
#include "ckpt/snapshot.hh"
#include "machine/cpu.hh"
#include "machine/relocation_unit.hh"
#include "multithread/event_core.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/audit.hh"
#include "trace/sink.hh"

namespace rr {
namespace {

using mt::ArchKind;
using mt::MtConfig;
using mt::MtProcessor;
using mt::MtStats;
using mt::SimulationSpec;
using trace::TraceEvent;
using trace::VectorSink;

// ---------------------------------------------------------------------
// Container format

TEST(CkptIo, RoundTripsEveryFieldType)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64(1, 0xdeadbeefcafef00dull);
    writer.f64(2, -0.1);
    writer.str(3, "hello ckpt");
    writer.bytes(4, {0x00, 0xff, 0x7f});
    writer.u64vec(5, {1, 2, 3});
    writer.u32vec(6, {});
    writer.endSection();
    writer.beginSection(0x51);
    writer.u64(1, 7);
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    const ckpt::Reader reader(doc);
    EXPECT_TRUE(reader.hasSection(0x50));
    EXPECT_TRUE(reader.hasSection(0x51));
    EXPECT_FALSE(reader.hasSection(0x52));
    EXPECT_EQ(reader.u64(0x50, 1), 0xdeadbeefcafef00dull);
    EXPECT_EQ(reader.f64(0x50, 2), -0.1);
    EXPECT_EQ(reader.str(0x50, 3), "hello ckpt");
    EXPECT_EQ(reader.bytes(0x50, 4),
              (std::vector<uint8_t>{0x00, 0xff, 0x7f}));
    EXPECT_EQ(reader.u64vec(0x50, 5),
              (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_TRUE(reader.u32vec(0x50, 6).empty());
    EXPECT_EQ(reader.u64(0x51, 1), 7u);
    EXPECT_FALSE(reader.has(0x50, 9));
    EXPECT_THROW(reader.u64(0x50, 9), ckpt::Error);
    EXPECT_THROW(reader.str(0x50, 1), ckpt::Error); // wrong type
}

TEST(CkptIo, RejectsEveryTruncation)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64(1, 42);
    writer.str(2, "payload");
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    for (std::size_t n = 0; n < doc.size(); ++n) {
        const std::vector<uint8_t> cut(doc.begin(),
                                       doc.begin() +
                                           static_cast<long>(n));
        EXPECT_THROW(ckpt::Reader reader(cut), ckpt::Error)
            << "truncation to " << n << " bytes was accepted";
    }
}

TEST(CkptIo, RejectsEverySingleBitFlip)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64vec(1, {5, 6, 7});
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    // Any flipped bit lands in the magic (rejected outright) or in
    // the body/trailer (rejected by the FNV-1a checksum).
    for (std::size_t byte = 0; byte < doc.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = doc;
            bad[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_THROW(ckpt::Reader reader(bad), ckpt::Error)
                << "flip at byte " << byte << " bit " << bit;
        }
    }
}

TEST(CkptIo, ErrorsCarryTheSchemaPrefix)
{
    try {
        const std::vector<uint8_t> empty;
        ckpt::Reader reader(empty);
        FAIL() << "empty document was accepted";
    } catch (const ckpt::Error &error) {
        EXPECT_EQ(std::string(error.what()).rfind("rr.ckpt: ", 0), 0u)
            << error.what();
    }
}

// The wire bytes of each field type, written out by hand from the
// grammar in ckpt/io.hh and compared with what Writer emits.

TEST(CkptIo, Fnv1aMatchesThePublishedVectors)
{
    const auto hash = [](const std::string &text) {
        return ckpt::fnv1a(reinterpret_cast<const uint8_t *>(text.data()),
                           text.size());
    };
    EXPECT_EQ(hash(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(hash("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hash("foobar"), 0x85944171f73967e8ull);
}

/**
 * A document holding section 0x50 with one field whose tag, type and
 * payload bytes are @p field: magic, section header, field, trailer.
 */
std::vector<uint8_t>
handDocument(const std::vector<uint8_t> &field)
{
    std::vector<uint8_t> doc = {'r', 'r', 'c', 'k', 'p', 't', '1', '\n',
                                0x50, 0, 0, 0};
    for (int i = 0; i < 8; ++i)
        doc.push_back(static_cast<uint8_t>(field.size() >> (8 * i)));
    doc.insert(doc.end(), field.begin(), field.end());
    const uint64_t hash = ckpt::fnv1a(doc.data() + 8, doc.size() - 8);
    doc.insert(doc.end(), {0xff, 0xff, 0xff, 0xff});
    for (int i = 0; i < 8; ++i)
        doc.push_back(static_cast<uint8_t>(hash >> (8 * i)));
    return doc;
}

/** Writer's document for section 0x50 holding what @p emit writes. */
template <typename Emit>
std::vector<uint8_t>
writerDocument(Emit emit)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    emit(writer);
    writer.endSection();
    return writer.seal();
}

TEST(CkptIo, EveryFieldTypeHasItsGrammarBytes)
{
    using Bytes = std::vector<uint8_t>;
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) {
                  w.u64(1, 0x0102030405060708ull);
              }),
              handDocument({1, 0, 0, 0, 1, 8, 7, 6, 5, 4, 3, 2, 1}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) { w.f64(2, -0.1); }),
              handDocument({2, 0, 0, 0, 2, 0x9a, 0x99, 0x99, 0x99, 0x99,
                            0x99, 0xb9, 0xbf}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) { w.str(3, "hi"); }),
              handDocument({3, 0, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0, 0, 'h',
                            'i'}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) {
                  w.bytes(4, Bytes{0x00, 0xff, 0x7f});
              }),
              handDocument({4, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0x00,
                            0xff, 0x7f}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) {
                  w.u64vec(5, std::vector<uint64_t>{1, 0x1122334455667788ull});
              }),
              handDocument({5, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0,
                            1, 0, 0, 0, 0, 0, 0, 0,
                            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) {
                  w.u32vec(6, std::vector<uint32_t>{7, 0xa0b0c0d0u});
              }),
              handDocument({6, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0, 0,
                            7, 0, 0, 0, 0xd0, 0xc0, 0xb0, 0xa0}));
    EXPECT_EQ(writerDocument([](ckpt::Writer &w) {
                  w.u32vec(7, std::vector<uint32_t>{});
              }),
              handDocument({7, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0}));

    // And the hand-written bytes read back as the values they encode.
    const Bytes vec = handDocument({5, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0,
                                    1, 0, 0, 0, 0, 0, 0, 0,
                                    0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
                                    0x22, 0x11});
    EXPECT_EQ(ckpt::Reader(vec).u64vec(0x50, 5),
              (std::vector<uint64_t>{1, 0x1122334455667788ull}));
    const Bytes f64 = handDocument({2, 0, 0, 0, 2, 0x9a, 0x99, 0x99, 0x99,
                                    0x99, 0x99, 0xb9, 0xbf});
    EXPECT_EQ(ckpt::Reader(f64).f64(0x50, 2), -0.1);
}

/** The ckpt::Error message @p doc raises, or "" when it parses. */
std::string
parseError(const std::vector<uint8_t> &doc)
{
    try {
        ckpt::Reader reader(doc);
    } catch (const ckpt::Error &error) {
        return error.what();
    }
    return "";
}

// Hostile payloads under a valid checksum: the parser's own bounds
// checks, not the trailer, must stop them.
TEST(CkptIo, RejectsHostileFieldsWithAValidChecksum)
{
    // u64vec claiming 2^40 elements.
    EXPECT_EQ(parseError(handDocument({5, 0, 0, 0, 5, 0, 0, 0, 0, 0, 1,
                                       0, 0})),
              "rr.ckpt: field 0x5 claims an implausible count "
              "0x10000000000");
    // u64vec claiming three elements with room for one and a half.
    EXPECT_EQ(parseError(handDocument({5, 0, 0, 0, 5, 3, 0, 0, 0, 0, 0,
                                       0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                       10, 11, 12})),
              "rr.ckpt: truncated document reading u64 at offset 0x21");
    // u32vec claiming two elements with room for one.
    EXPECT_EQ(parseError(handDocument({6, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0,
                                       0, 0, 1, 2, 3, 4})),
              "rr.ckpt: truncated document reading u32 at offset 0x1d");
    // str longer than the document.
    EXPECT_EQ(parseError(handDocument({3, 0, 0, 0, 3, 9, 0, 0, 0, 0, 0,
                                       0, 0, 'h', 'i'})),
              "rr.ckpt: truncated document reading string payload at "
              "offset 0x19");
    // Unknown type byte.
    EXPECT_EQ(parseError(handDocument({1, 0, 0, 0, 9})),
              "rr.ckpt: field 0x1 in section 0x50 has unknown type 0x9");
}

TEST(CkptIo, RejectsDuplicateSectionsAndFields)
{
    ckpt::Writer fields;
    fields.beginSection(0x50);
    fields.u64(1, 1);
    fields.u64(2, 2);
    fields.u64(1, 3);
    fields.endSection();
    EXPECT_EQ(parseError(fields.seal()),
              "rr.ckpt: duplicate field tag 0x1 in section 0x50");

    ckpt::Writer sections;
    for (const uint32_t tag : {0x50u, 0x51u, 0x50u}) {
        sections.beginSection(tag);
        sections.u64(1, tag);
        sections.endSection();
    }
    EXPECT_EQ(parseError(sections.seal()),
              "rr.ckpt: duplicate section tag 0x50");

    // The same field tag in two sections is two fields.
    ckpt::Writer distinct;
    for (const uint32_t tag : {0x51u, 0x50u}) {
        distinct.beginSection(tag);
        distinct.u64(1, tag);
        distinct.endSection();
    }
    const std::vector<uint8_t> doc = distinct.seal();
    const ckpt::Reader reader(doc);
    EXPECT_EQ(reader.u64(0x50, 1), 0x50u);
    EXPECT_EQ(reader.u64(0x51, 1), 0x51u);
    EXPECT_FALSE(reader.has(0x52, 1));
}

TEST(CkptIo, AnEmptyDocumentIsMagicAndTrailer)
{
    ckpt::Writer writer;
    EXPECT_EQ(writer.seal(),
              (std::vector<uint8_t>{'r', 'r', 'c', 'k', 'p', 't', '1', '\n',
                                    0xff, 0xff, 0xff, 0xff, 0x25, 0x23,
                                    0x22, 0x84, 0xe4, 0x9c, 0xf2, 0xcb}));
}

TEST(CkptMeta, RejectsKindAndFingerprintMismatches)
{
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "mt", "spec-a");
    const std::vector<uint8_t> doc = writer.seal();
    const ckpt::Reader reader(doc);

    EXPECT_EQ(ckpt::metaKind(reader), "mt");
    EXPECT_NO_THROW(ckpt::checkMeta(reader, "mt", "spec-a"));
    EXPECT_THROW(ckpt::checkMeta(reader, "machine", "spec-a"),
                 ckpt::Error);
    try {
        ckpt::checkMeta(reader, "mt", "spec-b");
        FAIL() << "cross-spec restore was accepted";
    } catch (const ckpt::Error &error) {
        EXPECT_NE(std::string(error.what()).find("cross-spec"),
                  std::string::npos)
            << error.what();
    }
}

// ---------------------------------------------------------------------
// MT simulator: snapshot/restore equals the straight run

void
expectSameEvent(const TraceEvent &a, const TraceEvent &b,
                std::size_t index)
{
    EXPECT_EQ(a.kind, b.kind) << "event " << index;
    EXPECT_EQ(a.arch, b.arch) << "event " << index;
    EXPECT_EQ(a.ok, b.ok) << "event " << index;
    EXPECT_EQ(a.tid, b.tid) << "event " << index;
    EXPECT_EQ(a.ctx, b.ctx) << "event " << index;
    EXPECT_EQ(a.regs, b.regs) << "event " << index;
    EXPECT_EQ(a.cycle, b.cycle) << "event " << index;
    EXPECT_EQ(a.cycles, b.cycles) << "event " << index;
    EXPECT_EQ(a.aux, b.aux) << "event " << index;
}

void
expectSameStats(const MtStats &a, const MtStats &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.usefulCycles, b.usefulCycles);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.switchCycles, b.switchCycles);
    EXPECT_EQ(a.allocCycles, b.allocCycles);
    EXPECT_EQ(a.deallocCycles, b.deallocCycles);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.unloadCycles, b.unloadCycles);
    EXPECT_EQ(a.queueCycles, b.queueCycles);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.cacheFaults, b.cacheFaults);
    EXPECT_EQ(a.syncFaults, b.syncFaults);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.unloads, b.unloads);
    EXPECT_EQ(a.allocSuccesses, b.allocSuccesses);
    EXPECT_EQ(a.allocFailures, b.allocFailures);
    EXPECT_EQ(a.efficiencyCentral, b.efficiencyCentral);
    EXPECT_EQ(a.efficiencyTotal, b.efficiencyTotal);
    EXPECT_EQ(a.avgResidentContexts, b.avgResidentContexts);
    EXPECT_EQ(a.maxResidentContexts, b.maxResidentContexts);
    EXPECT_EQ(a.threadsFinished, b.threadsFinished);
}

/**
 * Run @p spec straight through, then again split at event boundary
 * @p splitAt (snapshot, restore into a fresh processor, continue),
 * and require identical traces, statistics, and thread tables.
 */
void
checkResumeEqualsStraight(const SimulationSpec &spec,
                          uint64_t splitAt)
{
    SCOPED_TRACE("split at event " + std::to_string(splitAt));

    // The uninterrupted reference run.
    VectorSink straightSink;
    SimulationSpec straightSpec = spec;
    MtProcessor straight(straightSpec.traceSink(&straightSink).build());
    const MtStats straightStats = straight.run();

    // Head: run to the boundary and snapshot.
    VectorSink headSink;
    SimulationSpec headSpec = spec;
    MtProcessor head(headSpec.traceSink(&headSink).build());
    head.begin();
    while (!head.done() && head.eventIndex() < splitAt)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();

    // Tail: a fresh processor restored from the document.
    VectorSink tailSink;
    SimulationSpec tailSpec = spec;
    MtProcessor tail(tailSpec.traceSink(&tailSink).build());
    tail.restore(doc);
    const MtStats tailStats = tail.run();

    expectSameStats(straightStats, tailStats);

    const std::vector<TraceEvent> &straightEvents =
        straightSink.events();
    ASSERT_EQ(straightEvents.size(),
              headSink.events().size() + tailSink.events().size());
    for (std::size_t i = 0; i < straightEvents.size(); ++i) {
        const bool inHead = i < headSink.events().size();
        expectSameEvent(straightEvents[i],
                        inHead ? headSink.events()[i]
                               : tailSink.events()
                                     [i - headSink.events().size()],
                        i);
    }

    ASSERT_EQ(straight.threads().size(), tail.threads().size());
    for (std::size_t i = 0; i < straight.threads().size(); ++i) {
        const mt::Thread &a = straight.threads()[i];
        const mt::Thread &b = tail.threads()[i];
        EXPECT_EQ(a.totalWork, b.totalWork) << "thread " << i;
        EXPECT_EQ(a.faults, b.faults) << "thread " << i;
        EXPECT_EQ(a.timesLoaded, b.timesLoaded) << "thread " << i;
        EXPECT_EQ(a.timesUnloaded, b.timesUnloaded) << "thread " << i;
        EXPECT_EQ(a.finishTime, b.finishTime) << "thread " << i;
    }
}

SimulationSpec
cacheSpec()
{
    return SimulationSpec()
        .cacheFaults(20, 60)
        .threads(24)
        .workPerThread(2000)
        .numRegs(128)
        .seed(7);
}

TEST(CkptMt, CacheFlexibleResumeEqualsStraightRun)
{
    for (const uint64_t splitAt : {0ull, 1ull, 57ull, 400ull})
        checkResumeEqualsStraight(cacheSpec(), splitAt);
}

TEST(CkptMt, SnapshotPastTheEndRestoresAFinishedRun)
{
    // splitAt beyond the run length: the head finishes, the snapshot
    // captures the final state, and the tail has nothing left to do.
    checkResumeEqualsStraight(cacheSpec(), ~0ull);
}

TEST(CkptMt, SyncFixedTwoPhaseResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .syncFaults(20, 100)
                                    .arch(ArchKind::FixedHw)
                                    .threads(16)
                                    .workPerThread(1500)
                                    .numRegs(128)
                                    .seed(3);
    for (const uint64_t splitAt : {1ull, 123ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, CombinedAddRelocResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .combinedFaults(20, 60, 40, 100)
                                    .arch(ArchKind::AddReloc)
                                    .threads(16)
                                    .workPerThread(1500)
                                    .numRegs(128)
                                    .seed(5);
    for (const uint64_t splitAt : {1ull, 123ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, PrioritizedWorkloadResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .cacheFaults(20, 60)
                                    .threads(24)
                                    .workPerThread(1500)
                                    .priorities(3, makeUniformInt(0, 2))
                                    .numRegs(128)
                                    .seed(11);
    for (const uint64_t splitAt : {1ull, 200ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, SnapshotIsByteStableAcrossRestore)
{
    MtProcessor head(cacheSpec().build());
    head.begin();
    for (int i = 0; i < 150 && !head.done(); ++i)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();
    EXPECT_EQ(doc, head.snapshot()); // snapshotting is pure

    MtProcessor restored(cacheSpec().build());
    restored.restore(doc);
    EXPECT_EQ(doc, restored.snapshot()); // restore loses nothing
}

// Two-phase runs keep scheduler state outside the thread table: the
// spin clock with its budget heap, and the space-class thread queue.
// A snapshot must materialize both and a restore rebuild both at any
// event boundary, mid-accrual and with threads queued in several
// space classes, under every architecture, a residency cap and two
// priority levels.
TEST(CkptMt, TwoPhaseSplitPointsResumeAndResnapshotExactly)
{
    // The thread section of the "mt" document (docs/CKPT.md): field 2
    // holds each thread's state, field 13 its accrued spin cycles.
    constexpr uint32_t kThreads = 0x41, kState = 2, kSpin = 13;
    constexpr uint32_t kBlockedLoaded =
        static_cast<uint32_t>(mt::ThreadState::BlockedLoaded);

    const auto base = [] {
        return SimulationSpec()
            .syncFaults(30, 400)
            .threads(40)
            .workPerThread(1200)
            .registerDemand(4, 32)
            .numRegs(64)
            .twoPhaseUnload();
    };
    const std::pair<const char *, SimulationSpec> specs[] = {
        {"flexible", base().seed(2)},
        {"fixed", base().arch(ArchKind::FixedHw).seed(3)},
        {"add", base().arch(ArchKind::AddReloc).seed(4)},
        {"cap", base().residencyCap(3).seed(5)},
        {"priorities",
         base().priorities(2, makeUniformInt(0, 1)).seed(6)},
    };

    for (const auto &[name, spec] : specs) {
        SCOPED_TRACE(name);
        struct Split
        {
            std::size_t events;
            std::vector<uint8_t> doc;
        };
        std::vector<Split> splits;
        unsigned queuedSplits = 0, accruingSplits = 0;

        VectorSink straightSink;
        SimulationSpec straightSpec = spec;
        MtProcessor straight(straightSpec.traceSink(&straightSink).build());
        straight.begin();
        while (!straight.done()) {
            if (straight.eventIndex() % 41 == 0) {
                splits.push_back(
                    {straightSink.events().size(), straight.snapshot()});
                const ckpt::Reader reader(splits.back().doc);
                const std::vector<uint32_t> state =
                    reader.u32vec(kThreads, kState);
                const std::vector<uint64_t> spin =
                    reader.u64vec(kThreads, kSpin);
                bool queued = false, accruing = false;
                for (std::size_t i = 0; i < state.size(); ++i) {
                    queued |= state[i] == static_cast<uint32_t>(
                                              mt::ThreadState::UnloadedReady);
                    accruing |= state[i] == kBlockedLoaded && spin[i] > 0;
                }
                queuedSplits += queued;
                accruingSplits += accruing;
            }
            straight.step();
        }
        const MtStats straightStats = straight.finish();
        EXPECT_GT(straightStats.unloads, 0u);
        EXPECT_GE(queuedSplits, 3u);
        EXPECT_GE(accruingSplits, 3u);

        for (const Split &split : splits) {
            SCOPED_TRACE("split after " + std::to_string(split.events) +
                         " trace events");
            VectorSink tailSink;
            SimulationSpec tailSpec = spec;
            MtProcessor tail(tailSpec.traceSink(&tailSink).build());
            tail.restore(split.doc);
            ASSERT_EQ(tail.snapshot(), split.doc);
            expectSameStats(straightStats, tail.run());

            const std::vector<TraceEvent> &all = straightSink.events();
            ASSERT_EQ(all.size(), split.events + tailSink.events().size());
            for (std::size_t i = 0; i < tailSink.events().size(); ++i)
                expectSameEvent(all[split.events + i],
                                tailSink.events()[i],
                                split.events + i);
        }
    }
}

TEST(CkptMt, ResumeViaConfigReproducesFinalStats)
{
    const std::string path =
        testing::TempDir() + "/rr_ckpt_resume_test.ckpt";

    SimulationSpec straightSpec = cacheSpec();
    const MtStats straightStats = straightSpec.run();

    SimulationSpec writeSpec = cacheSpec();
    const MtStats writeStats =
        writeSpec.checkpointEvery(100, path).run();
    expectSameStats(straightStats, writeStats);

    SimulationSpec resumeSpec = cacheSpec();
    const MtStats resumedStats = resumeSpec.resumeFrom(path).run();
    expectSameStats(straightStats, resumedStats);

    std::remove(path.c_str());
}

TEST(CkptMt, CrossSpecRestoreThrows)
{
    MtProcessor source(cacheSpec().build());
    source.begin();
    const std::vector<uint8_t> doc = source.snapshot();

    SimulationSpec other = cacheSpec();
    MtProcessor target(other.seed(8).build());
    EXPECT_THROW(target.restore(doc), ckpt::Error);
}

TEST(CkptMt, HostileDocumentsThrowNotAbort)
{
    MtProcessor source(cacheSpec().build());
    source.begin();
    for (int i = 0; i < 50 && !source.done(); ++i)
        source.step();
    const std::vector<uint8_t> doc = source.snapshot();

    // Truncations die in the Reader.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{20},
          doc.size() / 2, doc.size() - 1}) {
        MtProcessor target(cacheSpec().build());
        const std::vector<uint8_t> cut(doc.begin(),
                                       doc.begin() +
                                           static_cast<long>(keep));
        EXPECT_THROW(target.restore(cut), ckpt::Error)
            << "kept " << keep << " bytes";
    }

    // A structurally valid document with the right meta but no
    // component sections dies in restoreState, not on an assert.
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "mt", source.fingerprint());
    MtProcessor target(cacheSpec().build());
    EXPECT_THROW(target.restore(writer.seal()), ckpt::Error);
}

/**
 * @p doc with section @p tag replaced by the sections of
 * @p replacement (another sealed document), re-sealed: a hostile
 * document whose checksum still holds.
 */
std::vector<uint8_t>
spliceSection(const std::vector<uint8_t> &doc, uint32_t tag,
              const std::vector<uint8_t> &replacement)
{
    const auto le = [](const uint8_t *p, int bytes) {
        uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        return v;
    };
    std::vector<uint8_t> out(doc.begin(), doc.begin() + 8);
    for (std::size_t at = 8; at < doc.size() - 12;) {
        const std::size_t next = at + 12 + le(&doc[at + 4], 8);
        if (le(&doc[at], 4) == tag)
            out.insert(out.end(), replacement.begin() + 8,
                       replacement.end() - 12);
        else
            out.insert(out.end(), doc.begin() + static_cast<long>(at),
                       doc.begin() + static_cast<long>(next));
        at = next;
    }
    const uint64_t hash = ckpt::fnv1a(out.data() + 8, out.size() - 8);
    out.insert(out.end(), {0xff, 0xff, 0xff, 0xff});
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(hash >> (8 * i)));
    return out;
}

TEST(CkptMt, MismatchedRecorderSeriesThrowNotAbort)
{
    MtProcessor source(cacheSpec().build());
    source.begin();
    for (int i = 0; i < 50 && !source.done(); ++i)
        source.step();
    const std::vector<uint8_t> doc = source.snapshot();

    // The interval recorder section (0x42): two sample times, one value.
    ckpt::Writer writer;
    writer.beginSection(0x42);
    writer.u64vec(1, std::vector<uint64_t>{0, 10});
    writer.u64vec(2, std::vector<uint64_t>{1});
    writer.endSection();
    const std::vector<uint8_t> recorder = writer.seal();
    ASSERT_EQ(spliceSection(doc, 0x99, recorder), doc); // no such section
    const std::vector<uint8_t> bad = spliceSection(doc, 0x42, recorder);
    ASSERT_NE(bad, doc);

    MtProcessor target(cacheSpec().build());
    EXPECT_THROW(target.restore(bad), ckpt::Error);
}

TEST(CkptSpec, ValidatesCheckpointSettings)
{
    EXPECT_THROW(SimulationSpec()
                     .cacheFaults(20, 60)
                     .checkpointEvery(10, "")
                     .build(),
                 mt::SpecError);
    EXPECT_THROW(SimulationSpec()
                     .cacheFaults(20, 60)
                     .checkpointEvery(0, "somewhere.ckpt")
                     .build(),
                 mt::SpecError);
}

// ---------------------------------------------------------------------
// Component round trips

TEST(CkptEventCore, RoundTripsLiveAndStaleEvents)
{
    mt::EventCore core;
    core.push({100, 1, 0});
    core.push({90, 1, 1});
    core.push({110, 1, 2});
    core.push({90, 2, 1}); // equal-time tie with the earlier event
    core.invalidateThread(2);

    ckpt::Writer writer;
    core.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();

    mt::EventCore restored;
    restored.restoreState(ckpt::Reader(doc));
    EXPECT_EQ(restored.size(), core.size());
    EXPECT_EQ(restored.live(), core.live());
    EXPECT_EQ(restored.stale(), core.stale());

    // Byte-for-byte round trip: the raw heap order (and with it the
    // pop tie-breaking among equal times) survives.
    ckpt::Writer again;
    restored.saveState(again);
    EXPECT_EQ(again.seal(), doc);
}

TEST(CkptAuditor, SplitAuditReconcilesLikeAWholeRun)
{
    VectorSink sink;
    SimulationSpec spec = cacheSpec();
    MtConfig config = spec.traceSink(&sink).build();
    const MtStats stats = mt::simulate(config);
    const std::vector<TraceEvent> &events = sink.events();
    ASSERT_GT(events.size(), 100u);

    trace::TraceAuditor whole(config.costs);
    for (const TraceEvent &event : events)
        whole.emit(event);
    EXPECT_TRUE(whole.reconcile(mt::auditTotals(stats)).empty());

    const std::size_t split = events.size() / 3;
    trace::TraceAuditor headAuditor(config.costs);
    for (std::size_t i = 0; i < split; ++i)
        headAuditor.emit(events[i]);
    ckpt::Writer writer;
    headAuditor.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();

    trace::TraceAuditor tailAuditor(config.costs);
    tailAuditor.restoreState(ckpt::Reader(doc));
    for (std::size_t i = split; i < events.size(); ++i)
        tailAuditor.emit(events[i]);
    EXPECT_TRUE(tailAuditor.reconcile(mt::auditTotals(stats)).empty());
    EXPECT_EQ(tailAuditor.eventsSeen(), whole.eventsSeen());
}

// Contexts still held at the end are reported in tid order, whether
// the auditor watched the whole trace or resumed from a snapshot.
TEST(CkptAuditor, SplitAuditListsHeldContextsInTidOrder)
{
    const runtime::CostModel costs;
    const uint32_t tids[] = {5, 1, 9, 3, 17, 12, 40, 2};
    const auto alloc = [](uint32_t tid, uint64_t cycle) {
        TraceEvent event;
        event.kind = trace::EventKind::Alloc;
        event.tid = tid;
        event.cycle = cycle;
        return event;
    };
    trace::TraceAuditor whole(costs), head(costs);
    for (uint64_t i = 0; i < 4; ++i) {
        whole.emit(alloc(tids[i], i));
        head.emit(alloc(tids[i], i));
    }
    ckpt::Writer writer;
    head.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();
    trace::TraceAuditor tail(costs);
    tail.restoreState(ckpt::Reader(doc));
    for (uint64_t i = 4; i < 8; ++i) {
        whole.emit(alloc(tids[i], i));
        tail.emit(alloc(tids[i], i));
    }

    trace::AuditTotals totals;
    totals.allocSuccesses = 8;
    std::vector<std::string> expected = {"frees: trace 0 != stats 8"};
    for (const uint32_t tid : {1, 2, 3, 5, 9, 12, 17, 40})
        expected.push_back("tid " + std::to_string(tid) +
                           " still holds an allocated context at end "
                           "of trace");
    EXPECT_EQ(whole.reconcile(totals), expected);
    EXPECT_EQ(tail.reconcile(totals), expected);
}

/**
 * An auditor section (0x30) written field by field as saveState()
 * lays it out, with thread table @p tids / @p flags and
 * @p problems one-byte problem records.
 */
std::vector<uint8_t>
auditorDocument(const std::vector<uint32_t> &tids,
                const std::vector<uint32_t> &flags,
                uint64_t problems = 0)
{
    const std::vector<uint64_t> perKind(trace::numEventKinds, 0);
    std::vector<uint8_t> blob;
    for (uint64_t i = 0; i < problems; ++i)
        blob.insert(blob.end(), {1, 0, 0, 0, 'x'});
    ckpt::Writer writer;
    writer.beginSection(trace::TraceAuditor::kCkptSection);
    writer.u64(1, 0);
    writer.u64(2, 0);
    writer.u64vec(3, perKind);
    writer.u64vec(4, perKind);
    for (uint32_t tag = 5; tag <= 8; ++tag)
        writer.u64(tag, 0);
    writer.u32vec(9, tids);
    writer.u32vec(10, flags);
    writer.u64(11, problems);
    writer.bytes(12, blob);
    writer.endSection();
    return writer.seal();
}

TEST(CkptAuditor, RestoreAcceptsWhatSaveWrites)
{
    const std::vector<uint8_t> doc =
        auditorDocument({3, 7, 0xfffffffeu}, {1, 3, 0}, 32);
    trace::TraceAuditor auditor(runtime::CostModel{});
    auditor.restoreState(ckpt::Reader(doc));
    EXPECT_EQ(auditor.problems().size(), 32u);
    ckpt::Writer again;
    auditor.saveState(again);
    EXPECT_EQ(again.seal(), doc);
}

// States no run can reach: a tid listed twice or out of order (the
// later entry used to win silently), the reserved no-thread id, flag
// bits beyond allocated (1) and loaded (2), and more problems than
// the auditor keeps.
TEST(CkptAuditor, RestoreRejectsStatesNoRunReaches)
{
    struct Case
    {
        const char *what;
        std::vector<uint8_t> doc;
    };
    const Case cases[] = {
        {"duplicate and reserved tids",
         auditorDocument({7, 7, 0xffffffffu}, {1, 3, 1})},
        {"duplicate tid", auditorDocument({7, 7}, {1, 3})},
        {"unsorted tids", auditorDocument({7, 3}, {1, 1})},
        {"reserved tid", auditorDocument({0xffffffffu}, {0})},
        {"unknown flag bit", auditorDocument({7}, {4})},
        {"problems past the cap", auditorDocument({}, {}, 33)},
    };
    for (const Case &c : cases) {
        trace::TraceAuditor auditor(runtime::CostModel{});
        EXPECT_THROW(auditor.restoreState(ckpt::Reader(c.doc)),
                     ckpt::Error)
            << c.what;
    }
}

// ---------------------------------------------------------------------
// Golden documents: the size and FNV-1a of whole snapshots, recorded
// when the codec wrote one byte at a time. Any change to the bytes a
// component or the container emits shows up here.

void
expectGolden(const std::vector<uint8_t> &doc, std::size_t size,
             uint64_t hash)
{
    EXPECT_EQ(doc.size(), size);
    EXPECT_EQ(ckpt::fnv1a(doc.data(), doc.size()), hash)
        << std::hex << "0x" << ckpt::fnv1a(doc.data(), doc.size());
}

TEST(CkptGolden, CacheFlexibleSnapshotWithAuditor)
{
    MtConfig config = cacheSpec().build();
    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    MtProcessor head(config);
    head.begin();
    for (int i = 0; i < 150 && !head.done(); ++i)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();
    EXPECT_TRUE(ckpt::Reader(doc).hasSection(
        trace::TraceAuditor::kCkptSection));
    expectGolden(doc, 7627, 0xd37407c2bbe2d049ull);
}

TEST(CkptGolden, SyncTwoPhaseFixed1024ThreadsAtItsMidpoint)
{
    // The sync_scale shape: R = 100, L = 1000, three faults a thread,
    // snapshotted at the expected midpoint of the event loop.
    MtProcessor head(SimulationSpec()
                         .syncFaults(100, 1000)
                         .twoPhaseUnload()
                         .arch(ArchKind::FixedHw)
                         .registerDemand(8, 24)
                         .threads(1024)
                         .workPerThread(300)
                         .seed(1)
                         .build());
    head.begin();
    while (!head.done() && head.eventIndex() < 1024 * 3 / 2)
        head.step();
    ASSERT_FALSE(head.done());
    expectGolden(head.snapshot(), 178109, 0xb74108dd85ef9626ull);
}

TEST(CkptGolden, MachineCpuSnapshot)
{
    const assembler::Program prog = assembler::assemble(R"(
entry:
    li    r1, 25
loop:
    addi  r2, r2, 3
    addi  r1, r1, -1
    bne   r1, r0, loop
    halt
)");
    ASSERT_TRUE(prog.ok());
    machine::CpuConfig config;
    config.memWords = 4096;
    machine::Cpu cpu(config);
    cpu.mem().loadImage(prog.base, prog.words);
    cpu.setPc(prog.symbols.at("entry"));
    cpu.run(40);
    ASSERT_FALSE(cpu.halted());
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "machine", "golden");
    cpu.saveState(writer);
    expectGolden(writer.seal(), 17411, 0x81253eb733e60777ull);
}

// ---------------------------------------------------------------------
// RelocationUnit: the memo-epoch restore regression

TEST(CkptReloc, RestoredMasksNeverTrustPreRestoreEpochs)
{
    using machine::RelocationResult;
    using machine::RelocationUnit;

    RelocationUnit unit(128, 5);

    // Churn through more mask states than the 16-slot table cache
    // holds, forcing recycling, and remember one mid-churn state.
    std::vector<uint32_t> savedMasks;
    unsigned savedSize = 0;
    for (unsigned i = 0; i < 24; ++i) {
        unit.setMask((i * 8) % 128);
        unit.setContextSize(8);
        (void)unit.table();
        if (i == 10) {
            savedMasks = unit.masks();
            savedSize = unit.contextSize();
        }
    }

    // More churn after the save, then restore. The unit's cache now
    // holds tables for masks the snapshot never saw; a restore that
    // trusted pre-restore epochs could serve one of them.
    for (unsigned i = 0; i < 8; ++i) {
        unit.setMask(16 + i * 8);
        unit.setContextSize(16);
        (void)unit.table();
    }
    const uint64_t epochBefore = unit.epoch();
    unit.restoreMasks(savedMasks, savedSize);
    EXPECT_GT(unit.epoch(), epochBefore);

    RelocationUnit fresh(128, 5);
    fresh.setMask(savedMasks[0]);
    fresh.setContextSize(savedSize);
    const RelocationResult *restored = unit.table();
    const RelocationResult *expected = fresh.table();
    for (unsigned operand = 0; operand < unit.tableSize();
         ++operand) {
        EXPECT_EQ(restored[operand].physical,
                  expected[operand].physical)
            << "operand " << operand;
        EXPECT_EQ(restored[operand].ok, expected[operand].ok)
            << "operand " << operand;
    }
    for (unsigned operand = 0; operand < unit.tableSize();
         ++operand) {
        EXPECT_EQ(unit.relocate(operand).physical,
                  fresh.relocate(operand).physical);
    }
}

TEST(CkptReloc, RestoreRejectsHostileMaskState)
{
    machine::RelocationUnit unit(128, 5);
    EXPECT_THROW(unit.restoreMasks({}, 8), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({0, 8}, 8), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({8}, 3), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({8}, 256), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({0xffffu}, 8), ckpt::Error);
}

} // namespace
} // namespace rr

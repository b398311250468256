/**
 * @file
 * Tests for the NextRRM scheduler ring (Section 2.2) and the
 * priority-list extension.
 */

#include <gtest/gtest.h>

#include "runtime/context_ring.hh"

namespace rr::runtime {
namespace {

TEST(ContextRing, EmptyAndSingle)
{
    ContextRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);

    ring.insert(8);
    EXPECT_FALSE(ring.empty());
    EXPECT_EQ(ring.current(), 8u);
    EXPECT_EQ(ring.advance(), 8u); // self-loop
    EXPECT_EQ(ring.nextOf(8), 8u);
}

TEST(ContextRing, RoundRobinOrder)
{
    ContextRing ring;
    ring.insert(0);
    ring.insert(32);
    ring.insert(64);
    // Members visited in a full cycle from current.
    const auto members = ring.members();
    ASSERT_EQ(members.size(), 3u);
    // A full traversal visits every member exactly once and returns.
    EXPECT_EQ(ring.current(), 0u);
    const uint32_t a = ring.advance();
    const uint32_t b = ring.advance();
    const uint32_t c = ring.advance();
    EXPECT_EQ(c, 0u); // back to start after size() advances
    EXPECT_NE(a, b);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
}

TEST(ContextRing, RemoveCurrentAdvances)
{
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t cur = ring.current();
    const uint32_t next = ring.nextOf(cur);
    ring.remove(cur);
    EXPECT_EQ(ring.current(), next);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_FALSE(ring.contains(cur));
}

TEST(ContextRing, RemoveToEmpty)
{
    ContextRing ring;
    ring.insert(5);
    ring.remove(5);
    EXPECT_TRUE(ring.empty());
    ring.insert(9);
    EXPECT_EQ(ring.current(), 9u);
}

TEST(ContextRing, InterleavedInsertRemoveKeepsRingClosed)
{
    ContextRing ring;
    for (uint32_t i = 0; i < 16; ++i)
        ring.insert(i * 8);
    for (uint32_t i = 0; i < 8; ++i)
        ring.remove(i * 16); // remove every other member
    EXPECT_EQ(ring.size(), 8u);
    // Every remaining member is reachable in exactly size() steps.
    const uint32_t start = ring.current();
    size_t steps = 0;
    do {
        ring.advance();
        ++steps;
    } while (ring.current() != start && steps <= 16);
    EXPECT_EQ(steps, ring.size());
}

TEST(ContextRing, SingleMemberSurvivesChurn)
{
    // The degenerate one-context ring: every link points at itself,
    // and insert/remove churn must keep that invariant.
    ContextRing ring;
    ring.insert(16);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ring.advance(), 16u);
    ring.remove(16);
    EXPECT_TRUE(ring.empty());
    ring.insert(24);
    EXPECT_EQ(ring.current(), 24u);
    EXPECT_EQ(ring.nextOf(24), 24u);
    EXPECT_EQ(ring.members(), std::vector<uint32_t>{24});
}

TEST(ContextRing, UnlinkHeadWhileIterating)
{
    // Removing the current (head) member mid-iteration promotes its
    // successor without consuming an advance() — a scheduler that
    // calls advance() after removing the running context would
    // otherwise skip a ready thread.
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t head = ring.current();
    const uint32_t succ = ring.nextOf(head);
    const uint32_t last = ring.nextOf(succ);
    ring.remove(head);
    EXPECT_EQ(ring.current(), succ);
    // The two survivors still form a closed 2-cycle.
    EXPECT_EQ(ring.advance(), last);
    EXPECT_EQ(ring.advance(), succ);
    EXPECT_EQ(ring.advance(), last);
    EXPECT_EQ(ring.nextOf(last), succ);
}

TEST(ContextRing, UnlinkPredecessorOfCurrent)
{
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t head = ring.current();
    // tail is the member whose NextRRM is the head.
    uint32_t tail = head;
    while (ring.nextOf(tail) != head)
        tail = ring.nextOf(tail);
    ring.remove(tail);
    EXPECT_EQ(ring.current(), head);
    EXPECT_EQ(ring.size(), 2u);
    // The splice re-closed the ring around the removal.
    const uint32_t other = ring.nextOf(head);
    EXPECT_EQ(ring.nextOf(other), head);
}

TEST(ContextRing, RemoveDownToSingleThenIterate)
{
    ContextRing ring;
    ring.insert(10);
    ring.insert(20);
    ring.insert(30);
    ring.remove(20);
    ring.remove(30);
    // Exactly the single-member degenerate case again, reached by
    // removal instead of construction.
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.current(), 10u);
    EXPECT_EQ(ring.advance(), 10u);
    EXPECT_EQ(ring.nextOf(10), 10u);
}

TEST(ContextRingDeath, DuplicateInsertPanics)
{
    ContextRing ring;
    ring.insert(4);
    EXPECT_DEATH(ring.insert(4), "already in ring");
}

TEST(ContextRingDeath, RemoveAbsentPanics)
{
    ContextRing ring;
    ring.insert(4);
    EXPECT_DEATH(ring.remove(5), "not in ring");
}

TEST(ContextRingDeath, EmptyAccessPanics)
{
    ContextRing ring;
    EXPECT_DEATH(ring.current(), "empty");
    EXPECT_DEATH(ring.advance(), "empty");
}

TEST(PriorityRing, HigherLevelWins)
{
    PriorityRing rings(3);
    rings.insert(100, 2); // low priority
    rings.insert(200, 0); // high priority
    rings.insert(201, 0);
    EXPECT_EQ(rings.size(), 3u);
    // advance() always serves level 0 while it has members.
    for (int i = 0; i < 6; ++i) {
        const uint32_t got = rings.advance();
        EXPECT_TRUE(got == 200 || got == 201);
    }
    rings.remove(200);
    rings.remove(201);
    EXPECT_EQ(rings.advance(), 100u);
}

TEST(PriorityRing, LevelOf)
{
    PriorityRing rings(2);
    rings.insert(7, 1);
    EXPECT_EQ(rings.levelOf(7), 1);
    EXPECT_EQ(rings.levelOf(8), -1);
    rings.remove(7);
    EXPECT_TRUE(rings.empty());
}

TEST(PriorityRing, SingleMemberSelfLoops)
{
    PriorityRing rings(4);
    rings.insert(48, 3);
    EXPECT_EQ(rings.current(), 48u);
    EXPECT_EQ(rings.advance(), 48u);
    EXPECT_EQ(rings.advance(), 48u);
    rings.remove(48);
    EXPECT_TRUE(rings.empty());
}

TEST(PriorityRing, RemovingHeadOfHighestLevelFallsThrough)
{
    // Unlink the head of the active (highest) level while a lower
    // level holds members: dispatch must fall through immediately.
    PriorityRing rings(2);
    rings.insert(100, 1);
    rings.insert(200, 0);
    EXPECT_EQ(rings.current(), 200u);
    rings.remove(200);
    EXPECT_EQ(rings.current(), 100u);
    EXPECT_EQ(rings.advance(), 100u);
    // And promotion back: a new high-priority member preempts.
    rings.insert(201, 0);
    EXPECT_EQ(rings.current(), 201u);
}

TEST(PriorityRing, DirectLevelAccessSeesSameRing)
{
    PriorityRing rings(2);
    rings.insert(7, 1);
    EXPECT_TRUE(rings.level(0).empty());
    EXPECT_EQ(rings.level(1).current(), 7u);
    rings.remove(7);
    EXPECT_TRUE(rings.level(1).empty());
    EXPECT_TRUE(rings.empty());
    EXPECT_EQ(rings.levelOf(7), -1);
}

TEST(PriorityRingDeath, EmptyAccessPanics)
{
    PriorityRing rings(2);
    EXPECT_DEATH(rings.current(), "empty");
    EXPECT_DEATH(rings.advance(), "empty");
}

TEST(PriorityRingDeath, DoubleQueuePanics)
{
    PriorityRing rings(2);
    rings.insert(7, 0);
    EXPECT_DEATH(rings.insert(7, 1), "already queued");
}

} // namespace
} // namespace rr::runtime

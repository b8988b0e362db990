/**
 * @file
 * Regression test for the dirty-eviction path under the bus Nack/retry
 * protocol: a NACKed (or merely in-flight) cache-line spill must never
 * clobber stores that commit to the functional image while the spill
 * waits.  The caches are tag-state models -- stores commit to
 * PhysicalMemory directly -- so the spill payload is a *snapshot* that
 * memory must not re-apply (BusTransaction::snapshotPayload).
 *
 * The failure mode this pins down: setLineWriteback captured the line
 * bytes once at eviction initiation; a NACK storm then delayed the bus
 * write by thousands of ticks, and its completion wrote the stale
 * snapshot over stores committed in the window.
 *
 * The access sequence is driven directly against the System's cache
 * hierarchy (not through a core program) so the eviction order is
 * deterministic; everything downstream -- the System's cache-miss
 * port, the bus, the fault injector, MainMemory -- is the real wiring.
 *
 * This binary counts heap allocations (alloc_counter.hh) to pin down
 * that a System destroyed with a spill still retrying frees it.
 */

#include <gtest/gtest.h>

#include "../alloc_counter.hh"
#include "core/system.hh"
#include "sim/fault.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;

SystemConfig
nackStormConfig()
{
    SystemConfig cfg;
    cfg.routeMissesOverBus = true;
    // Two-set direct-mapped levels: lines 0x8000 and 0x8080 collide in
    // BOTH levels, so one conflicting access pushes a dirty line all
    // the way out as a bus writeback.
    cfg.l1 = mem::CacheParams{128, 1, 64, /*hitLatency=*/2};
    cfg.l2 = mem::CacheParams{128, 1, 64, /*hitLatency=*/8};
    // Every bus write (i.e. the spill) is NACKed for the first 3000
    // ticks; the retry loop backs off through the window and succeeds
    // after it closes.
    cfg.faults.schedule =
        sim::parseFaultSchedule("burst:bus-write-nack:0..3000:1.0");
    cfg.watchdogTicks = 200'000;
    cfg.normalize();
    return cfg;
}

/** Dirty line 0x8000, then evict it: the spill presents a bus write. */
void
startSpill(System &system)
{
    // Committed store: functional write + dirty tag (the same pair the
    // core's commitStore performs).
    system.memory().writeT<std::uint64_t>(0x8000, 1);
    system.caches(0).accessLatency(0x8000, /*is_write=*/true);

    // Conflicting access evicts the dirty line; the spill presents a
    // bus write that the fault schedule NACKs.
    system.caches(0).accessLatency(0x8080, /*is_write=*/false);
}

/** Spill line 0x8000, then store into it while it spills. */
void
driveSpillRace(System &system)
{
    startSpill(system);

    // A later store to the spilled line commits while the spill is
    // still retrying.
    system.memory().writeT<std::uint64_t>(0x8008, 2);

    // Run past the whole retry train (backoffs sum to ~4k ticks), not
    // just to the first quiescent gap between attempts.
    system.simulator().run(
        [&] {
            return system.simulator().curTick() > 20'000 &&
                   system.quiescent();
        },
        1'000'000);
    ASSERT_TRUE(system.quiescent()) << "spill never completed";
}

TEST(WritebackNack, RetriedSpillDoesNotClobberNewerStores)
{
    System system(nackStormConfig());
    driveSpillRace(system);

    // The spill was NACKed at least once and eventually delivered.
    EXPECT_GT(system.bus().numNacks.value(), 0.0);
    EXPECT_GT(system.caches(0).l2().writebacks.value(), 0.0);
    EXPECT_GT(system.bus().numWrites.value(), 0.0);

    // The store that committed while the spill was in flight survives;
    // pre-fix the stale 64-byte snapshot overwrote it at completion.
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8000), 1u);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8008), 2u);
}

TEST(WritebackNack, CleanSpillDoesNotClobberEither)
{
    // No NACK storm: the spill completes on the first attempt, but its
    // payload still races the second store (capture at eviction vs
    // apply at bus completion) -- the snapshot must not clobber it
    // even on the happy path.
    SystemConfig cfg = nackStormConfig();
    cfg.faults = sim::FaultPlan{};
    cfg.normalize();
    System system(cfg);
    driveSpillRace(system);

    EXPECT_EQ(system.bus().numNacks.value(), 0.0);
    EXPECT_GT(system.caches(0).l2().writebacks.value(), 0.0);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8000), 1u);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8008), 2u);
}

/**
 * Spill into the NACK storm, run until the spill has been NACKed and
 * is waiting out its backoff, and destroy the System there.
 * @return true when the spill was still retrying at destruction
 */
bool
destroyMidSpill()
{
    System system(nackStormConfig());
    startSpill(system);
    system.simulator().runFor(500);
    return system.bus().numNacks.value() > 0 && !system.quiescent();
}

TEST(WritebackNack, SystemDestroyedMidSpillFreesTheSpill)
{
    // The first System interns trace channels and other process-wide
    // state; only the second one's balance is measured.
    ASSERT_TRUE(destroyMidSpill());
    const long long before = test::liveAllocations();
    const bool retrying = destroyMidSpill();
    const long long leaked = test::liveAllocations() - before;
    ASSERT_TRUE(retrying) << "the spill must still be in flight";
    EXPECT_EQ(leaked, 0)
        << "heap blocks of the in-flight spill outlived its System";
}

} // namespace

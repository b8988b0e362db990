/**
 * @file
 * bus::MasterPort: the one bus-master protocol.  A NACKed write
 * replays its own payload copy after backoff, NACKed requests go
 * ahead of new work, Error and an exhausted budget are fatal unless
 * the owner's exhaustion hook keeps the request alive, and a port
 * torn down with a retry pending frees it.
 *
 * This binary counts heap allocations (alloc_counter.hh).
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "../alloc_counter.hh"
#include "bus/master_port.hh"
#include "bus/system_bus.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace {

using namespace csb;
using bus::BusStatus;
using bus::BusTransaction;

/** Records every delivered write; answers accept() from a script. */
class ScriptedTarget : public bus::BusTarget
{
  public:
    const std::string &targetName() const override { return name_; }

    BusStatus
    accept(const BusTransaction &, Tick) override
    {
        if (errors > 0) {
            --errors;
            return BusStatus::Error;
        }
        if (nacks > 0) {
            --nacks;
            return BusStatus::Nack;
        }
        return BusStatus::Ok;
    }

    void
    write(const BusTransaction &txn, Tick) override
    {
        writes.push_back(txn.data);
    }

    Tick
    read(const BusTransaction &txn, Tick now,
         std::vector<std::uint8_t> &data) override
    {
        data.assign(txn.size, 0x5a);
        return now + 4;
    }

    unsigned nacks = 0;
    unsigned errors = 0;
    std::vector<std::vector<std::uint8_t>> writes;

  private:
    std::string name_ = "scripted";
};

/**
 * A minimal owner-paced master: presents queued writes one at a time,
 * serialized against NACK hazards as the real masters are.
 */
class Writer : public sim::Clocked, private bus::PortOwner
{
  public:
    Writer(sim::Simulator &simulator, bus::SystemBus &bus,
           const bus::RetryPolicy &policy)
        : sim::Clocked("tester", sim::ClockDomain(1)), sim_(simulator),
          bus_(bus),
          port_(simulator, bus, *this, "tester.port", policy,
                bus::Pacing::Idle,
                {"tester: ", {"widget read", "widget write"},
                 {"widget ", "widget "}})
    {
        simulator.registerClocked(this);
    }

    void
    queueWrite(Addr addr, std::vector<std::uint8_t> data)
    {
        pending_.push_back({addr, std::move(data)});
    }

    void
    tick() override
    {
        if (port_.inflight() != 0 && bus_.ordersMustSerialize())
            return;
        if (port_.serviceRetries(sim_.curTick())) {
            sawRetryPending = true;
            return;
        }
        if (pending_.empty() || !port_.canPresent())
            return;
        const Pending &next = pending_.front();
        port_.presentWrite(next.addr, next.data.data(),
                           static_cast<unsigned>(next.data.size()),
                           /*strongly_ordered=*/true, next.addr);
        pending_.pop_front();
    }

    bool
    drained() const
    {
        return pending_.empty() && port_.drained();
    }

    bool keepAlive = false;
    bool sawRetryPending = false;
    unsigned exhaustions = 0;
    std::vector<std::uint64_t> started;
    std::vector<std::uint64_t> done;

  private:
    struct Pending
    {
        Addr addr;
        std::vector<std::uint8_t> data;
    };

    void portStarted(std::uint64_t tag) override { started.push_back(tag); }

    void
    portDone(std::uint64_t tag, Tick,
             const std::vector<std::uint8_t> &) override
    {
        done.push_back(tag);
    }

    bool
    portExhausted(std::uint64_t, Tick) override
    {
        ++exhaustions;
        return keepAlive;
    }

    sim::Simulator &sim_;
    bus::SystemBus &bus_;
    bus::MasterPort port_;
    std::deque<Pending> pending_;
};

/** One bus, one NACKing target and one Writer. */
struct Rig
{
    explicit Rig(bus::RetryPolicy policy = {})
    {
        bus::BusParams params;
        params.maxBurstBytes = 64;
        params.errorResponses = true; // targets may NACK
        bus = std::make_unique<bus::SystemBus>(sim, params);
        bus->addTarget(0, 0x10000, &target);
        writer = std::make_unique<Writer>(sim, *bus, policy);
    }

    void
    run()
    {
        sim.run([&] { return writer->drained() && bus->quiescent(); },
                200'000);
    }

    /** The monitor's write tenures, in start order. */
    std::vector<bus::TxnRecord>
    tenures() const
    {
        std::vector<bus::TxnRecord> out;
        for (const bus::TxnRecord &rec : bus->monitor().records())
            if (rec.kind == bus::TxnKind::Write)
                out.push_back(rec);
        return out;
    }

    sim::Simulator sim;
    ScriptedTarget target;
    std::unique_ptr<bus::SystemBus> bus;
    std::unique_ptr<Writer> writer;
};

std::vector<std::uint8_t>
pattern(unsigned size, std::uint8_t seed)
{
    std::vector<std::uint8_t> bytes(size);
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>(seed + 7 * i);
    return bytes;
}

TEST(MasterPort, NackedWriteReplaysItsPayloadAfterBackoff)
{
    bus::RetryPolicy policy;
    policy.initialBackoffTicks = 40;
    Rig rig(policy);
    rig.target.nacks = 2;
    const std::vector<std::uint8_t> line = pattern(64, 3);
    rig.writer->queueWrite(0x1000, line);
    rig.run();

    ASSERT_EQ(rig.target.writes.size(), 1u);
    EXPECT_EQ(rig.target.writes[0], line) << "byte-identical replay";
    std::vector<bus::TxnRecord> tenures = rig.tenures();
    ASSERT_EQ(tenures.size(), 3u) << "two NACKed tenures, one delivery";
    for (unsigned k = 1; k < tenures.size(); ++k) {
        EXPECT_GE(tenures[k].requestTick,
                  tenures[k - 1].completionTick + policy.backoffFor(k))
            << "retry " << k << " re-presented before its backoff";
    }
    EXPECT_EQ(rig.writer->started, std::vector<std::uint64_t>{0x1000})
        << "only the first tenure reports a start";
    EXPECT_EQ(rig.writer->done, std::vector<std::uint64_t>{0x1000});
}

TEST(MasterPort, NackedRequestsPresentBeforeNewWork)
{
    Rig rig;
    rig.target.nacks = 2; // the oldest write, twice
    rig.writer->queueWrite(0x1000, pattern(8, 1));
    rig.writer->queueWrite(0x1040, pattern(8, 2));
    rig.writer->queueWrite(0x1080, pattern(8, 3));
    rig.run();

    EXPECT_TRUE(rig.writer->sawRetryPending);
    ASSERT_EQ(rig.target.writes.size(), 3u);
    EXPECT_EQ(rig.target.writes[0], pattern(8, 1));
    EXPECT_EQ(rig.target.writes[1], pattern(8, 2));
    EXPECT_EQ(rig.target.writes[2], pattern(8, 3));
    std::vector<bus::TxnRecord> tenures = rig.tenures();
    ASSERT_EQ(tenures.size(), 5u);
    for (unsigned k = 0; k < 3; ++k)
        EXPECT_EQ(tenures[k].addr, 0x1000u) << "tenure " << k;
}

/** Run @p rig, @return the FatalError text (empty when none). */
std::string
fatalText(Rig &rig)
{
    try {
        rig.run();
    } catch (const FatalError &err) {
        return err.what();
    }
    return {};
}

TEST(MasterPort, ErrorIsFatalAndNamesTheOwner)
{
    Rig rig;
    rig.target.errors = 1;
    rig.writer->queueWrite(0x2040, pattern(8, 1));
    EXPECT_NE(fatalText(rig).find(
                  "tester: bus error on widget write at 0x2040"),
              std::string::npos);
}

TEST(MasterPort, ExhaustedBudgetIsFatalAndNamesTheOwner)
{
    bus::RetryPolicy policy;
    policy.maxAttempts = 3;
    Rig rig(policy);
    rig.target.nacks = 100;
    rig.writer->queueWrite(0x2080, pattern(8, 1));
    EXPECT_NE(fatalText(rig).find(
                  "tester: widget retries exhausted (3) at 0x2080"),
              std::string::npos);
    EXPECT_EQ(rig.writer->exhaustions, 1u);
    EXPECT_EQ(rig.tenures().size(), 3u);
}

TEST(MasterPort, ExhaustionHookKeepsRetryingAtTheCappedBackoff)
{
    bus::RetryPolicy policy;
    policy.initialBackoffTicks = 16;
    policy.maxAttempts = 2;
    Rig rig(policy);
    rig.writer->keepAlive = true;
    rig.target.nacks = 5;
    const std::vector<std::uint8_t> line = pattern(32, 9);
    rig.writer->queueWrite(0x3000, line);
    rig.run();

    ASSERT_EQ(rig.target.writes.size(), 1u);
    EXPECT_EQ(rig.target.writes[0], line);
    // NACKs 2..5 each ran out of budget.
    EXPECT_EQ(rig.writer->exhaustions, 4u);
    std::vector<bus::TxnRecord> tenures = rig.tenures();
    ASSERT_EQ(tenures.size(), 6u);
    const Tick capped = policy.backoffFor(policy.maxAttempts);
    EXPECT_GE(tenures[1].requestTick,
              tenures[0].completionTick + policy.backoffFor(1));
    for (unsigned k = 2; k < tenures.size(); ++k) {
        EXPECT_GE(tenures[k].requestTick,
                  tenures[k - 1].completionTick + capped)
            << "retry " << k;
    }
}

/** Leave a NACKed write waiting out a long backoff, then tear down. */
bool
tearDownWithRetryPending()
{
    bus::RetryPolicy policy;
    policy.initialBackoffTicks = 4000;
    Rig rig(policy);
    rig.target.nacks = 1;
    rig.writer->queueWrite(0x1000, pattern(64, 5));
    rig.sim.runFor(300);
    return rig.target.writes.empty() && !rig.writer->drained();
}

TEST(MasterPort, DestroyedWithARetryPendingFreesIt)
{
    ASSERT_TRUE(tearDownWithRetryPending()); // warm up one-time state
    const long long before = test::liveAllocations();
    const bool pending = tearDownWithRetryPending();
    const long long leaked = test::liveAllocations() - before;
    ASSERT_TRUE(pending) << "the NACKed write must still be waiting";
    EXPECT_EQ(leaked, 0);
}

} // namespace

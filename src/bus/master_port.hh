/**
 * @file
 * The bus master protocol, written once: present one request at a
 * time and re-present it with bounded backoff when the bus NACKs it.
 * A MasterPort owns the master id, its RetryPolicy, the payload copy
 * a NACKed write replays, the NACKed-request queue and the Nack /
 * Error / retries-exhausted handling; owners tag their requests and
 * hear back through PortOwner.
 */

#ifndef CSB_BUS_MASTER_PORT_HH
#define CSB_BUS_MASTER_PORT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "system_bus.hh"

namespace csb::bus {

/**
 * Retry schedule for NACKed bus transactions.  No jitter: identical
 * runs stay bit-identical, and round-robin arbitration breaks ties.
 */
struct RetryPolicy
{
    /** Delay before the first retry, in CPU ticks. */
    Tick initialBackoffTicks = 16;
    /** Geometric growth factor per failed attempt. */
    unsigned multiplier = 2;
    /** Upper bound on the per-attempt delay. */
    Tick maxBackoffTicks = 4096;
    /** Attempts (including the first) before giving up fatally. */
    unsigned maxAttempts = 16;

    /** Backoff before retry number @p attempt (first retry is 1). */
    Tick
    backoffFor(unsigned attempt) const
    {
        Tick delay = initialBackoffTicks;
        for (unsigned i = 1; i < attempt && delay < maxBackoffTicks; ++i)
            delay *= multiplier;
        return std::min(delay, maxBackoffTicks);
    }
};

/** Largest payload a port keeps a copy of: one cache line. */
inline constexpr unsigned maxPortPayload = 256;

/**
 * The owner side of a MasterPort; every callback carries the tag the
 * owner presented the request with.  Only portDone() may present.
 */
class PortOwner
{
  public:
    /** A request's first tenure started (retries start silently). */
    virtual void portStarted(std::uint64_t) {}
    /** A request completed Ok; @p data is the read data. */
    virtual void portDone(std::uint64_t, Tick,
                          const std::vector<std::uint8_t> &) {}
    /** A request was NACKed and will be re-presented. */
    virtual void portNacked(std::uint64_t) {}
    /**
     * A NACKed request used up its budget.  @return true to keep it
     * retrying at the capped backoff instead of raising FatalError.
     */
    virtual bool portExhausted(std::uint64_t, Tick) { return false; }

  protected:
    ~PortOwner() = default;
};

/** Who decides when a request is (re-)presented. */
enum class Pacing : std::uint8_t
{
    /** The owner, while canPresent(); retries via serviceRetries(). */
    Idle,
    /** As Idle; a retry also waits for the bus to take it next edge. */
    NextEdge,
    /** The port: at the first free tick, and after each backoff. */
    Self,
};

/**
 * Fatal messages, indexed by is-write: "<owner>bus error on <request>
 * at 0x..." and "<owner><retried>retries exhausted (<max>) at 0x...".
 */
struct PortLabels
{
    std::string owner;
    std::array<const char *, 2> request;
    std::array<const char *, 2> retried;
    /** Include the " (<maxAttempts>)" budget. */
    bool showBudget = true;
};

/** One bus master: presents requests, retries NACKs, completes them. */
class MasterPort
{
  public:
    MasterPort(sim::Simulator &simulator, SystemBus &bus, PortOwner &owner,
               const std::string &master_name, const RetryPolicy &policy,
               Pacing pacing, PortLabels labels);

    MasterPort(const MasterPort &) = delete;
    MasterPort &operator=(const MasterPort &) = delete;

    MasterId id() const { return id_; }

    /** Count NACKs and the retries they cause into the owner's stats. */
    void
    countInto(sim::stats::Scalar &nacks, sim::stats::Scalar &retries)
    {
        nacks_ = &nacks;
        retries_ = &retries;
    }

    /** @return true when no request waits for its tenure to start. */
    bool canPresent() const { return bus_.masterIdle(id_); }

    /** Requests presented and not yet completed. */
    unsigned inflight() const { return inflight_; }

    bool retryPending() const { return !retryQueue_.empty(); }

    /** Requests presented and not yet completed Ok. */
    std::size_t live() const { return records_.size() - freeRecords_.size(); }

    bool drained() const { return live() == 0; }

    /**
     * Present a write of @p data; the port keeps the copy a retry
     * replays.  Owner pacing requires canPresent().
     * @param snapshot see BusTransaction::snapshotPayload
     */
    void presentWrite(Addr addr, const std::uint8_t *data, unsigned size,
                      bool strongly_ordered, std::uint64_t tag,
                      bool snapshot = false);

    /** Present a read.  @see presentWrite */
    void presentRead(Addr addr, unsigned size, bool strongly_ordered,
                     std::uint64_t tag);

    /**
     * Owner pacing: re-present the oldest NACKed request if it is due.
     * @return true while NACKed requests are pending; they go strictly
     * before new work, so the owner must not present.
     */
    bool serviceRetries(Tick now);

    /** Give every queued NACKed request a fresh retry budget. */
    void restartRetryBudgets();

    /** " retries=N inflight=N", then the oldest NACKed request. */
    void debugDump(std::ostream &os) const;

  private:
    struct Record
    {
        Addr addr = 0;
        unsigned size = 0;
        bool isWrite = false;
        bool stronglyOrdered = false;
        bool snapshot = false;
        /** NACKed at least once. */
        bool retry = false;
        unsigned attempt = 0;
        Tick earliest = 0;
        std::uint64_t tag = 0;
        std::array<std::uint8_t, maxPortPayload> data{};
    };

    /** Store @p request and present it under the port's pacing. */
    void present(const Record &request);
    /** @return false when the master already has a request waiting. */
    bool tryPresent(std::uint32_t idx);
    /** Self pacing: present now, or try again next tick. */
    void presentWhenIdle(std::uint32_t idx);
    void complete(std::uint32_t idx, Tick when, BusStatus status,
                  const std::vector<std::uint8_t> &data);

    sim::Simulator &sim_;
    SystemBus &bus_;
    PortOwner &owner_;
    MasterId id_;
    RetryPolicy policy_;
    Pacing pacing_;
    PortLabels labels_;
    sim::stats::Scalar *nacks_ = nullptr;
    sim::stats::Scalar *retries_ = nullptr;

    /** Live requests by index, reused once completed Ok. */
    std::vector<Record> records_;
    std::vector<std::uint32_t> freeRecords_;
    /** NACKed records in arrival order (owner pacing). */
    std::deque<std::uint32_t> retryQueue_;
    unsigned inflight_ = 0;
};

} // namespace csb::bus

#endif // CSB_BUS_MASTER_PORT_HH

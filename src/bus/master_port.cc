#include "master_port.hh"

#include <cstring>

#include "sim/logging.hh"

namespace csb::bus {

MasterPort::MasterPort(sim::Simulator &simulator, SystemBus &bus,
                       PortOwner &owner, const std::string &master_name,
                       const RetryPolicy &policy, Pacing pacing,
                       PortLabels labels)
    : sim_(simulator), bus_(bus), owner_(owner),
      id_(bus.registerMaster(master_name)), policy_(policy),
      pacing_(pacing), labels_(std::move(labels))
{}

void
MasterPort::presentWrite(Addr addr, const std::uint8_t *data, unsigned size,
                         bool strongly_ordered, std::uint64_t tag,
                         bool snapshot)
{
    csb_assert(size <= maxPortPayload, "port write of ", size, " bytes");
    Record request{.addr = addr, .size = size, .isWrite = true,
                   .stronglyOrdered = strongly_ordered,
                   .snapshot = snapshot, .tag = tag};
    std::memcpy(request.data.data(), data, size);
    present(request);
}

void
MasterPort::presentRead(Addr addr, unsigned size, bool strongly_ordered,
                        std::uint64_t tag)
{
    present({.addr = addr, .size = size,
             .stronglyOrdered = strongly_ordered, .tag = tag});
}

void
MasterPort::present(const Record &request)
{
    std::uint32_t idx;
    if (freeRecords_.empty()) {
        idx = static_cast<std::uint32_t>(records_.size());
        records_.push_back(request);
    } else {
        idx = freeRecords_.back();
        freeRecords_.pop_back();
        records_[idx] = request;
    }
    if (pacing_ == Pacing::Self) {
        presentWhenIdle(idx);
        return;
    }
    bool accepted = tryPresent(idx);
    csb_assert(accepted, labels_.owner, "bus refused an idle master");
}

void
MasterPort::presentWhenIdle(std::uint32_t idx)
{
    if (!tryPresent(idx)) {
        sim_.eventQueue().scheduleFunc(
            sim_.curTick() + 1, [this, idx] { presentWhenIdle(idx); });
    }
}

bool
MasterPort::tryPresent(std::uint32_t idx)
{
    if (!bus_.masterIdle(id_))
        return false;
    const Record &rec = records_[idx];
    auto on_start = [this, idx](Tick) {
        if (!records_[idx].retry)
            owner_.portStarted(records_[idx].tag);
    };
    if (rec.isWrite) {
        bus_.requestWrite(
            id_, rec.addr,
            std::vector<std::uint8_t>(rec.data.begin(),
                                      rec.data.begin() + rec.size),
            rec.stronglyOrdered,
            [this, idx](Tick when, BusStatus status) {
                complete(idx, when, status, {});
            },
            std::move(on_start), rec.snapshot);
    } else {
        bus_.requestRead(
            id_, rec.addr, rec.size, rec.stronglyOrdered,
            [this, idx](Tick when, BusStatus status,
                        const std::vector<std::uint8_t> &data) {
                complete(idx, when, status, data);
            },
            std::move(on_start));
    }
    ++inflight_;
    return true;
}

bool
MasterPort::serviceRetries(Tick now)
{
    if (retryQueue_.empty())
        return false;
    std::uint32_t idx = retryQueue_.front();
    const Record &head = records_[idx];
    if (now < head.earliest || !bus_.masterIdle(id_))
        return true;
    if (pacing_ == Pacing::NextEdge &&
        !bus_.wouldAcceptAtNextEdge(id_, head.stronglyOrdered,
                                    head.isWrite)) {
        return true;
    }
    retryQueue_.pop_front();
    tryPresent(idx);
    return true;
}

void
MasterPort::complete(std::uint32_t idx, Tick when, BusStatus status,
                     const std::vector<std::uint8_t> &data)
{
    csb_assert(inflight_ > 0, labels_.owner, "port completion underflow");
    --inflight_;
    Record &rec = records_[idx];
    if (status == BusStatus::Ok) {
        freeRecords_.push_back(idx);
        owner_.portDone(rec.tag, when, data);
        return;
    }
    if (status == BusStatus::Error) {
        csb_fatal(labels_.owner, "bus error on ",
                  labels_.request[rec.isWrite], " at 0x", std::hex,
                  rec.addr);
    }
    if (nacks_)
        *nacks_ += 1;
    owner_.portNacked(rec.tag);
    unsigned next_attempt = rec.attempt + 1;
    if (next_attempt >= policy_.maxAttempts) {
        if (!owner_.portExhausted(rec.tag, when)) {
            csb_fatal(labels_.owner, labels_.retried[rec.isWrite],
                      "retries exhausted",
                      labels_.showBudget
                          ? " (" + std::to_string(policy_.maxAttempts) + ")"
                          : std::string(),
                      " at 0x", std::hex, rec.addr);
        }
        // Kept alive: hold the attempt count at the budget, so the
        // request retries at the capped backoff from now on.
        next_attempt = rec.attempt;
    }
    if (retries_)
        *retries_ += 1;

    rec.retry = true;
    rec.earliest = when + policy_.backoffFor(rec.attempt + 1);
    rec.attempt = next_attempt;
    if (pacing_ == Pacing::Self) {
        sim_.eventQueue().scheduleFunc(
            rec.earliest, [this, idx] { presentWhenIdle(idx); });
    } else {
        retryQueue_.push_back(idx);
    }
}

void
MasterPort::restartRetryBudgets()
{
    for (std::uint32_t idx : retryQueue_)
        records_[idx].attempt = 0;
}

void
MasterPort::debugDump(std::ostream &os) const
{
    os << " retries=" << retryQueue_.size() << " inflight=" << inflight_;
    if (retryQueue_.empty())
        return;
    const Record &head = records_[retryQueue_.front()];
    os << "\n  retry head: " << (head.isWrite ? "write" : "read")
       << " addr=0x" << std::hex << head.addr << std::dec
       << " attempt=" << head.attempt << '/' << policy_.maxAttempts
       << " earliest=" << head.earliest;
}

} // namespace csb::bus

#include "traffic_generator.hh"

#include "sim/logging.hh"

namespace csb::bus {

TrafficGenerator::TrafficGenerator(sim::Simulator &simulator,
                                   SystemBus &bus,
                                   const TrafficGeneratorParams &params,
                                   std::string name,
                                   sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(bus.params().ratio),
                   /*eval_order=*/-4),
      sim::stats::StatGroup(name, stat_parent),
      reads(this, "reads", "background read transactions"),
      writes(this, "writes", "background write transactions"),
      bytesMoved(this, "bytesMoved", "background bytes moved"),
      retries(this, "retries", "issue attempts the bus deferred"),
      busNacks(this, "busNacks", "transactions NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed transactions reissued after backoff"),
      sim_(simulator), bus_(bus), params_(params), rng_(params.seed),
      writeData_(params.txnBytes, 0xb6),
      port_(simulator, bus, *this, name + ".port", params.retry, Pacing::Idle,
            {"traffic generator " + name + ": ", {"read", "write"}, {"", ""}})
{
    csb_assert(isPowerOf2(params_.txnBytes), "txn size must be 2^n");
    csb_assert(params_.interval >= 1.0, "interval must be >= 1 cycle");
    port_.countInto(busNacks, busRetries);
    simulator.registerClocked(this);
}

void
TrafficGenerator::tick()
{
    if (!running_ && !port_.retryPending()) {
        // Stopped with no pending retry: sleep until start() (or a
        // late NACK completion) ungates us.
        gate();
        return;
    }

    // A NACKed transaction waiting out its backoff takes precedence
    // over new traffic (and is serviced even after stop()).
    if (port_.serviceRetries(sim_.curTick()))
        return;

    if (!running_)
        return;
    auto cycle = static_cast<double>(bus_.curBusCycle());
    if (cycle < nextIssueCycle_)
        return;
    if (!port_.canPresent()) {
        retries += 1;
        return;
    }

    // Uniformly distributed line-aligned address within the region.
    Addr span = params_.regionSize / params_.txnBytes;
    Addr addr = params_.base +
                rng_.uniform(0, span - 1) * params_.txnBytes;
    bool is_write = rng_.uniform01() < params_.writeFraction;

    if (is_write) {
        port_.presentWrite(addr, writeData_.data(), params_.txnBytes,
                           /*strongly_ordered=*/false, /*tag=*/0);
        writes += 1;
    } else {
        port_.presentRead(addr, params_.txnBytes,
                          /*strongly_ordered=*/false, /*tag=*/0);
        reads += 1;
    }
    bytesMoved += params_.txnBytes;

    // Schedule the next attempt with +/-50% jitter around the mean
    // interval so the load does not phase-lock with the victim.
    double jitter = 0.5 + rng_.uniform01();
    nextIssueCycle_ = cycle + params_.interval * jitter;
}

} // namespace csb::bus

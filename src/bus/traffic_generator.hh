/**
 * @file
 * A synthetic bus master injecting background memory traffic.
 *
 * The paper approximates a heavily loaded bus with a turnaround cycle
 * ("it can also be viewed as an approximation of a heavily loaded bus
 * with multiple masters", section 4.3.1).  This component models the
 * load directly: a second master issuing line-sized reads/writes to
 * main memory with a configurable duty cycle, competing with the
 * uncached traffic through the ordinary round-robin arbitration.
 */

#ifndef CSB_BUS_TRAFFIC_GENERATOR_HH
#define CSB_BUS_TRAFFIC_GENERATOR_HH

#include <string>
#include <vector>

#include "master_port.hh"
#include "sim/clocked.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "system_bus.hh"

namespace csb::bus {

/** Traffic generator configuration. */
struct TrafficGeneratorParams
{
    /** Base of the address region to hit. */
    Addr base = 0;
    /** Size of the region (wraps around). */
    Addr regionSize = 1 << 20;
    /** Transaction size in bytes (power of two). */
    unsigned txnBytes = 64;
    /** Fraction of transactions that are writes, in [0, 1]. */
    double writeFraction = 0.5;
    /**
     * Target issue rate: average bus cycles between transaction
     * *attempts*.  1.0 saturates the bus; larger values lighten the
     * load.
     */
    double interval = 4.0;
    /** RNG seed (deterministic). */
    std::uint64_t seed = 12345;
    /** Backoff schedule for NACKed transactions. */
    RetryPolicy retry;
};

/** Background-load bus master. */
class TrafficGenerator : public sim::Clocked,
                         public sim::stats::StatGroup,
                         private PortOwner
{
  public:
    TrafficGenerator(sim::Simulator &simulator, SystemBus &bus,
                     const TrafficGeneratorParams &params,
                     std::string name = "tgen",
                     sim::stats::StatGroup *stat_parent = nullptr);

    /** Begin injecting traffic. */
    void
    start()
    {
        running_ = true;
        ungate();
    }

    /** Stop presenting new transactions (in-flight ones finish). */
    void stop() { running_ = false; }

    void tick() override;

    sim::stats::Scalar reads;
    sim::stats::Scalar writes;
    sim::stats::Scalar bytesMoved;
    sim::stats::Scalar retries;
    /** Transactions NACKed on the bus. */
    sim::stats::Scalar busNacks;
    /** NACKed transactions reissued after backoff. */
    sim::stats::Scalar busRetries;

  private:
    /** Wake up to service the retry, even after stop(). */
    void portNacked(std::uint64_t) override { ungate(); }

    sim::Simulator &sim_;
    SystemBus &bus_;
    TrafficGeneratorParams params_;
    sim::Random rng_;
    bool running_ = false;
    /** Next bus cycle at which to attempt an issue. */
    double nextIssueCycle_ = 0;
    /** The payload of every background write. */
    std::vector<std::uint8_t> writeData_;
    MasterPort port_;
};

} // namespace csb::bus

#endif // CSB_BUS_TRAFFIC_GENERATOR_HH

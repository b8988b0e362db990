/**
 * @file
 * The uncached buffer: a FIFO between the core's retire stage and the
 * system bus that handles ordinary uncached loads and stores.
 *
 * In its simplest form it queues each access and issues one bus
 * transaction per access.  When a combining block size is configured
 * (the R10000-style "uncached accelerated" mode) a store may coalesce
 * into the youngest entry if its address falls into the same block
 * and it would not bypass an earlier load; coalescing into the
 * youngest entry only can never reorder accesses.  Combining is
 * limited by the time an entry spends waiting: once the entry's first
 * transaction is presented to the system interface, the entry locks
 * and its valid bytes are split into naturally aligned power-of-two
 * transactions (see decompose.hh).
 *
 * All transactions issued by this buffer are strongly ordered.
 */

#ifndef CSB_MEM_UNCACHED_BUFFER_HH
#define CSB_MEM_UNCACHED_BUFFER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bus/master_port.hh"
#include "bus/system_bus.hh"
#include "decompose.hh"
#include "sim/clocked.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace csb::mem {

/** How stores may coalesce into an open entry. */
enum class CombinePolicy : std::uint8_t
{
    /**
     * Any store into the open entry's block merges (this model's
     * default, the best-case hardware buffer).
     */
    Block,
    /**
     * R10000-style: a store merges only when it extends the entry at
     * exactly the next sequential address, and an entry issues as a
     * single burst only when the entire block was combined -- partial
     * blocks issue one single-beat transaction per store (paper
     * section 6: "This design is limited to strictly sequential
     * access patterns").
     */
    SequentialOnly,
};

/** Configuration of the uncached buffer. */
struct UncachedBufferParams
{
    /** Queue depth in entries. */
    unsigned entries = 8;
    /**
     * Combining block size in bytes (16/32/64/128); 0 disables
     * combining entirely so every store issues its own transaction.
     */
    unsigned combineBytes = 0;
    /** Coalescing rule for the open entry. */
    CombinePolicy policy = CombinePolicy::Block;
    /** Backoff schedule for transactions NACKed on the bus. */
    bus::RetryPolicy retry;

    void validate() const;
};

/** Callback delivering uncached load data. */
using UncachedLoadCallback =
    std::function<void(Tick completion_tick,
                       const std::vector<std::uint8_t> &data)>;

/**
 * FIFO buffer for uncached loads and stores with optional combining.
 */
class UncachedBuffer : public sim::Clocked,
                       public sim::stats::StatGroup,
                       private bus::PortOwner
{
  public:
    UncachedBuffer(sim::Simulator &simulator, bus::SystemBus &bus,
                   const UncachedBufferParams &params,
                   std::string name = "ubuf",
                   sim::stats::StatGroup *stat_parent = nullptr);

    /** @return true when a store can be pushed this cycle. */
    bool canAcceptStore(Addr addr, unsigned size) const;

    /** @return true when a load can be pushed this cycle. */
    bool canAcceptLoad() const;

    /**
     * Push an uncached store (called at retire).
     * @pre canAcceptStore(addr, size)
     */
    void pushStore(Addr addr, unsigned size, const void *data);

    /**
     * Push an uncached load (called at retire).  The callback fires
     * when the bus read response completes.
     * @pre canAcceptLoad()
     */
    void pushLoad(Addr addr, unsigned size, UncachedLoadCallback done);

    /**
     * @return true when no access is buffered or in flight -- the
     * condition a MEMBAR (and therefore a lock release) waits for.
     */
    bool empty() const;

    /** Number of queued entries (tests / debugging). */
    std::size_t depth() const { return entries_.size(); }

    void tick() override;

    void debugDump(std::ostream &os) const override;

    const UncachedBufferParams &params() const { return params_; }

    sim::stats::Scalar storesPushed;
    sim::stats::Scalar loadsPushed;
    sim::stats::Scalar storesCoalesced;
    sim::stats::Scalar entriesCreated;
    sim::stats::Scalar txnsIssued;
    /** Transactions NACKed on the bus. */
    sim::stats::Scalar busNacks;
    /** NACKed transactions reissued after backoff. */
    sim::stats::Scalar busRetries;
    sim::stats::Distribution entryOccupancy;

  private:
    enum class Kind : std::uint8_t { Store, Load };

    struct Entry
    {
        Kind kind = Kind::Store;
        /** Block-aligned base (stores) or access address (loads). */
        Addr addr = 0;
        unsigned size = 0; // loads only
        ValidMask valid;
        std::array<std::uint8_t, maxBlockBytes> data{};
        /** Locked once the first transaction was presented. */
        bool locked = false;
        /** Address one past the last coalesced store (sequential). */
        Addr lastStoreEnd = 0;
        /** Individual (offset, size) stores, for SequentialOnly. */
        std::vector<std::pair<unsigned, unsigned>> pieces;
        /** Decomposed chunks (locked stores only); the ones from
         *  nextChunk on are still to be presented. */
        std::vector<Chunk> chunks;
        std::size_t nextChunk = 0;
        UncachedLoadCallback loadDone;
        /** Number of stores coalesced into this entry. */
        unsigned storeCount = 0;
    };

    /** Block size used for new store entries. */
    unsigned blockBytes() const;
    unsigned maxTxnBytes() const;

    /** @return true when a store may merge into the open tail entry. */
    bool canCoalesceInto(const Entry &tail, Addr addr,
                         unsigned size) const;

    void presentHeadStore();
    void presentHeadLoad();

    void portStarted(std::uint64_t tag) override;
    void portDone(std::uint64_t tag, Tick when,
                  const std::vector<std::uint8_t> &data) override;

    sim::Simulator &sim_;
    bus::SystemBus &bus_;
    UncachedBufferParams params_;
    std::deque<Entry> entries_;
    /** Loads presented and not yet answered, by port tag. */
    std::vector<std::pair<std::uint64_t, UncachedLoadCallback>> loads_;
    std::uint64_t nextLoadTag_ = 1;
    /** The bus master; NACKed accesses re-present before entries_. */
    bus::MasterPort port_;
};

} // namespace csb::mem

#endif // CSB_MEM_UNCACHED_BUFFER_HH

#include "uncached_buffer.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::mem {

namespace {
const sim::trace::Channel &ubufTrace = sim::trace::channel("ubuf");
} // namespace

void
UncachedBufferParams::validate() const
{
    if (entries == 0)
        csb_fatal("uncached buffer needs at least one entry");
    if (combineBytes != 0 &&
        (!isPowerOf2(combineBytes) || combineBytes < 8 ||
         combineBytes > maxBlockBytes)) {
        csb_fatal("combine block must be a power of two in [8,",
                  maxBlockBytes, "], got ", combineBytes);
    }
}

UncachedBuffer::UncachedBuffer(sim::Simulator &simulator,
                               bus::SystemBus &bus,
                               const UncachedBufferParams &params,
                               std::string name,
                               sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/-5),
      sim::stats::StatGroup(name, stat_parent),
      storesPushed(this, "storesPushed", "uncached stores accepted"),
      loadsPushed(this, "loadsPushed", "uncached loads accepted"),
      storesCoalesced(this, "storesCoalesced",
                      "stores merged into an existing entry"),
      entriesCreated(this, "entriesCreated", "buffer entries allocated"),
      txnsIssued(this, "txnsIssued", "bus transactions issued"),
      busNacks(this, "busNacks", "transactions NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed transactions reissued after backoff"),
      entryOccupancy(this, "entryOccupancy",
                     "stores combined per entry", 1, 16, 1),
      sim_(simulator), bus_(bus), params_(params),
      port_(simulator, bus, *this, name + ".port", params.retry,
            bus::Pacing::NextEdge,
            {name + ": ", {"uncached load", "uncached store"},
             {"load ", "store "}})
{
    params_.validate();
    port_.countInto(busNacks, busRetries);
    simulator.registerClocked(this);
}

unsigned
UncachedBuffer::blockBytes() const
{
    return params_.combineBytes != 0 ? params_.combineBytes : 8;
}

unsigned
UncachedBuffer::maxTxnBytes() const
{
    return std::min<unsigned>(blockBytes(), bus_.params().maxBurstBytes);
}

bool
UncachedBuffer::canCoalesceInto(const Entry &tail, Addr addr,
                                unsigned size) const
{
    if (params_.combineBytes == 0)
        return false;
    if (tail.kind != Kind::Store || tail.locked)
        return false;
    if (roundDown(addr, blockBytes()) != tail.addr)
        return false;
    if (params_.policy == CombinePolicy::SequentialOnly) {
        // R10000-style pattern detection: only the very next address
        // extends the entry.
        (void)size;
        return addr == tail.lastStoreEnd;
    }
    return true;
}

bool
UncachedBuffer::canAcceptStore(Addr addr, unsigned size) const
{
    if (!entries_.empty() &&
        canCoalesceInto(entries_.back(), addr, size)) {
        return true; // coalesces; no new entry needed
    }
    return entries_.size() < params_.entries;
}

bool
UncachedBuffer::canAcceptLoad() const
{
    return entries_.size() < params_.entries;
}

void
UncachedBuffer::pushStore(Addr addr, unsigned size, const void *data)
{
    ungate();
    csb_assert(size > 0 && size <= 8 && isPowerOf2(size),
               "bad uncached store size ", size);
    csb_assert(addr % size == 0, "misaligned uncached store");
    csb_assert(canAcceptStore(addr, size), "pushStore without capacity");

    Addr block = roundDown(addr, blockBytes());
    unsigned offset = static_cast<unsigned>(addr - block);

    if (!entries_.empty() &&
        canCoalesceInto(entries_.back(), addr, size)) {
        Entry &tail = entries_.back();
        std::memcpy(tail.data.data() + offset, data, size);
        for (unsigned i = 0; i < size; ++i)
            tail.valid.set(offset + i);
        ++tail.storeCount;
        tail.lastStoreEnd = addr + size;
        tail.pieces.emplace_back(offset, size);
        ++storesPushed;
        ++storesCoalesced;
        CSB_TRACE(ubufTrace, "coalesce 0x", std::hex, addr,
                  std::dec, "/", size, " into block 0x",
                  std::hex, block, std::dec, " (",
                  tail.storeCount, " stores)");
        return;
    }

    Entry entry;
    entry.kind = Kind::Store;
    entry.addr = block;
    std::memcpy(entry.data.data() + offset, data, size);
    for (unsigned i = 0; i < size; ++i)
        entry.valid.set(offset + i);
    entry.storeCount = 1;
    entry.lastStoreEnd = addr + size;
    entry.pieces.emplace_back(offset, size);
    entries_.push_back(std::move(entry));
    ++storesPushed;
    ++entriesCreated;
    CSB_TRACE(ubufTrace, "new entry 0x", std::hex, block, std::dec,
              " depth=", entries_.size());
}

void
UncachedBuffer::pushLoad(Addr addr, unsigned size, UncachedLoadCallback done)
{
    ungate();
    csb_assert(canAcceptLoad(), "pushLoad without capacity");
    csb_assert(size > 0 && isPowerOf2(size) && addr % size == 0,
               "bad uncached load shape");
    Entry entry;
    entry.kind = Kind::Load;
    entry.addr = addr;
    entry.size = size;
    entry.loadDone = std::move(done);
    entries_.push_back(std::move(entry));
    ++loadsPushed;
    ++entriesCreated;
}

bool
UncachedBuffer::empty() const
{
    return entries_.empty() && port_.drained();
}

void
UncachedBuffer::tick()
{
    if (empty()) {
        // Drained and nothing in flight: sleep until the next
        // pushStore()/pushLoad() ungates us.
        gate();
        return;
    }

    // With bus faults possible, the status of an in-flight access must
    // come back before the next one may issue: a NACK discovered at
    // completion would otherwise replay behind a younger neighbour,
    // reordering this port's strongly-ordered stream.
    if (port_.inflight() != 0 && bus_.ordersMustSerialize())
        return;

    // NACKed transactions reissue strictly before queued entries so
    // the port's access order is preserved.
    if (port_.serviceRetries(sim_.curTick()))
        return;

    if (entries_.empty() || !port_.canPresent())
        return;
    Entry &head = entries_.front();
    // Keep the head entry open (combining) until the bus can actually
    // take its transaction at the next edge.
    if (!bus_.wouldAcceptAtNextEdge(port_.id(), /*strongly_ordered=*/true,
                                    head.kind == Kind::Store)) {
        return;
    }
    if (head.kind == Kind::Store) {
        presentHeadStore();
    } else {
        presentHeadLoad();
    }
}

void
UncachedBuffer::presentHeadStore()
{
    Entry &head = entries_.front();
    if (!head.locked) {
        head.locked = true;
        head.chunks.clear();
        head.nextChunk = 0;
        bool full_block =
            head.valid.count() == blockBytes() &&
            blockBytes() <= maxTxnBytes();
        if (params_.policy == CombinePolicy::SequentialOnly &&
            !full_block) {
            // R10000 semantics: a burst only for a fully combined
            // block; otherwise one single-beat per original store.
            head.chunks.reserve(head.pieces.size());
            for (const auto &[offset, size] : head.pieces)
                head.chunks.push_back(Chunk{head.addr + offset, size});
        } else {
            head.chunks = decomposeAligned(head.addr, head.valid,
                                           blockBytes(), maxTxnBytes());
        }
        csb_assert(!head.chunks.empty(), "locked an empty store entry");
        entryOccupancy.sample(head.storeCount);
    }

    Chunk chunk = head.chunks[head.nextChunk];
    port_.presentWrite(chunk.addr,
                       head.data.data() + (chunk.addr - head.addr),
                       chunk.size, /*strongly_ordered=*/true, /*tag=*/0);
    ++head.nextChunk;
    ++txnsIssued;
}

void
UncachedBuffer::presentHeadLoad()
{
    Entry &head = entries_.front();
    std::uint64_t tag = nextLoadTag_++;
    loads_.emplace_back(tag, std::move(head.loadDone));
    port_.presentRead(head.addr, head.size, /*strongly_ordered=*/true, tag);
    ++txnsIssued;
}

void
UncachedBuffer::portStarted(std::uint64_t)
{
    // A store entry leaves the buffer with its last chunk.
    const Entry &started = entries_.front();
    if (started.kind == Kind::Load ||
        started.nextChunk == started.chunks.size()) {
        entries_.pop_front();
    }
}

void
UncachedBuffer::portDone(std::uint64_t tag, Tick when,
                         const std::vector<std::uint8_t> &data)
{
    if (tag == 0)
        return; // a store
    auto it = std::find_if(loads_.begin(), loads_.end(),
                           [tag](const auto &l) { return l.first == tag; });
    csb_assert(it != loads_.end(), "load completion without a load");
    UncachedLoadCallback done = std::move(it->second);
    loads_.erase(it);
    if (done)
        done(when, data);
}

void
UncachedBuffer::debugDump(std::ostream &os) const
{
    os << "entries=" << entries_.size();
    port_.debugDump(os);
}

} // namespace csb::mem

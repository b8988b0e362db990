/**
 * @file
 * Basic-block translation cache with predecoded threaded dispatch.
 *
 * The translator lowers a finalized isa::Program into basic blocks of
 * flat micro-ops: every operand is resolved at predecode time to a
 * byte offset into ArchState, every branch target to an instruction
 * index, and every opcode to a per-opcode handler function.  The hot
 * loop is function-pointer threaded -- each handler executes its
 * micro-op and returns the next one (or null at a block terminator) --
 * so there is no per-step opcode switch, no program_.at() bounds
 * check, and no trace-recorder test inside a block.
 *
 * Blocks end at branches (which are translated, with both successor
 * pcs predecoded) and *before* anything the cycle-level machinery must
 * see: loads, stores, SWAP, MEMBAR, Halt and the end of the program.
 * At such a boundary run() returns with state.pc parked on the
 * boundary instruction and the caller's existing path (the
 * ReferenceExecutor slow step or the cycle-level Core pipeline) takes
 * over, so timing, the CSB commit point, fault injection and
 * TraceRecorder semantics are untouched -- the store-buffer reduction
 * theorem (PAPERS.md) is exactly the statement that program-order
 * execution between memory-system events is equivalent to the
 * interleaved cycle-level execution.
 *
 * The block cache is keyed by entry pc (a dense lazy vector -- any pc
 * can start a block, branches into the middle of an existing block
 * simply translate an overlapping one) and invalidated wholesale by
 * setProgram() on every program (re)load.
 *
 * Budget semantics are exact: run(state, max_steps) only *enters* a
 * block whose full architectural length fits in the remaining budget
 * and returns the count executed, so a caller that meters
 * instructions (ReferenceExecutor's runaway cap and steps()) observes
 * bit-identical step accounting with translation on or off.
 */

#ifndef CSB_CPU_TRANSLATOR_HH
#define CSB_CPU_TRANSLATOR_HH

#include <cstdint>
#include <vector>

#include "arch_state.hh"
#include "isa/program.hh"

namespace csb::cpu {

/**
 * Whether the cycle model uses the translated fast path.  The
 * functional ReferenceExecutor takes setTranslate(bool) instead.
 */
enum class TranslateMode : std::uint8_t {
    Off = 0,              ///< cycle-level cores keep their pipeline
    CoreFastForward = 2,  ///< cycle-level cores fast-forward through
                          ///< long translated blocks (documented
                          ///< approximate-timing mode, docs/PERF.md)
};
// Pinned: the value is the checkpoint fingerprint's cpuTranslate
// entry, so checkpoints taken with fast-forward on keep restoring.
static_assert(static_cast<int>(TranslateMode::CoreFastForward) == 2);

/** Translated-dispatch knobs, embedded as SystemConfig::cpu. */
struct TranslateConfig
{
    TranslateMode translate = TranslateMode::Off;

    /**
     * Core fast-forward: architectural instructions retired per tick
     * while fast-forwarding (the mode's time-compression ratio).  A
     * block longer than this still executes whole -- blocks are never
     * split -- so it is a floor on per-tick progress, not a ceiling.
     */
    unsigned fastForwardInstsPerTick = 256;

    /**
     * Core fast-forward: minimum block length worth draining the
     * pipeline for.  Short blocks between memory events stay on the
     * cycle-level path, where the out-of-order window already
     * overlaps them with the memory traffic.
     */
    unsigned fastForwardMinBlock = 8;

    void validate() const;
};

/** Predecode pass + block cache + threaded dispatch loop. */
class Translator
{
  public:
    /** Mutable execution context a micro-op handler sees. */
    struct Frame
    {
        ArchState &state;
        std::vector<std::int64_t> &marks;
    };

    struct MicroOp;
    /**
     * Handler: execute @p op, return the next micro-op or null.
     * @p regs is the ArchState base address (operand offsets index
     * into it); it rides in its own argument register so the common
     * ALU handlers never touch @p frame at all.
     */
    using OpFn = const MicroOp *(*)(const MicroOp *op, char *regs,
                                    Frame &frame);

    /** One predecoded micro-op (flat, branch-resolved). */
    struct MicroOp
    {
        OpFn fn = nullptr;
        /** Byte offsets of dst/src registers inside ArchState. */
        std::uint16_t dst = 0;
        std::uint16_t srcA = 0;
        std::uint16_t srcB = 0;
        std::int64_t imm = 0;
        /** Branch: taken-successor pc. */
        std::uint64_t targetPc = 0;
        /** Branch / block end: not-taken / boundary pc. */
        std::uint64_t fallthroughPc = 0;
    };

    /**
     * (Re)attach a program: drops every cached block.  @p program may
     * be null to detach.  Must be finalized otherwise.
     */
    void setProgram(const isa::Program *program);

    /**
     * Execute translated blocks starting at state.pc, chaining across
     * branches, until the next block would not fit in @p max_steps,
     * would cross a memory event / Halt / program end, or the state
     * halts.  Mark ids are appended to @p marks in program order.
     *
     * @return architectural instructions executed (possibly 0: the
     *         caller must then make progress on its own slow path).
     */
    std::uint64_t run(ArchState &state, std::uint64_t max_steps,
                      std::vector<std::int64_t> &marks);

    /**
     * Architectural length of the block entered at @p pc; 0 when @p pc
     * holds a boundary instruction (or lies outside the program).
     * Translates (and caches) the block on first use.
     */
    std::uint64_t blockLen(std::uint64_t pc);

  private:
    struct Block
    {
        std::vector<MicroOp> ops;
        /** Architectural instructions the block covers (incl. the
         *  terminating branch and any elided Nops). */
        std::uint64_t len = 0;
        bool translated = false;
    };

    Block &blockAt(std::uint64_t pc);
    void translate(Block &block, std::uint64_t entry_pc) const;

    const isa::Program *program_ = nullptr;
    std::vector<Block> blocks_;
};

} // namespace csb::cpu

#endif // CSB_CPU_TRANSLATOR_HH

#include "translator.hh"

#include <cstddef>

#include "sim/logging.hh"

namespace csb::cpu {

using isa::InstClass;
using isa::Opcode;

void
TranslateConfig::validate() const
{
    if (translate == TranslateMode::Off)
        return;
    if (fastForwardInstsPerTick == 0)
        csb_fatal("cpu.fastForwardInstsPerTick must be positive");
    if (fastForwardMinBlock == 0)
        csb_fatal("cpu.fastForwardMinBlock must be positive");
}

namespace {

// Operand access is by precomputed byte offset: ArchState is standard
// layout, and each offset addresses a real uint64_t array element, so
// the char* round trip below is well-defined.
static_assert(std::is_standard_layout_v<ArchState>);

std::uint64_t &
regAt(char *regs, std::uint16_t offset)
{
    return *reinterpret_cast<std::uint64_t *>(regs + offset);
}

/**
 * Byte offset of @p reg's storage.  Absent and hardwired-zero
 * registers resolve to intRegs[0]: it is zero-initialized, and no
 * micro-op ever writes it (writes to r0/noReg are elided at predecode
 * the way ArchState::writeReg drops them), so reading it always
 * yields 0 -- exactly ArchState::readReg's contract.
 */
std::uint16_t
regOffset(isa::RegId reg)
{
    if (!reg.valid() || reg.isZero())
        return std::uint16_t(offsetof(ArchState, intRegs));
    std::size_t base = reg.isInt() ? offsetof(ArchState, intRegs)
                                   : offsetof(ArchState, fpRegs);
    return std::uint16_t(base + sizeof(std::uint64_t) * reg.idx);
}

// --- Micro-op handlers.  Each is instantiated per opcode, so the
// --- evalAlu/evalBranch switch folds to the single matching case and
// --- the handler body is straight-line code.

template <Opcode Op, bool Imm>
const Translator::MicroOp *
aluStep(const Translator::MicroOp *op, char *regs,
        Translator::Frame &)
{
    std::uint64_t a = regAt(regs, op->srcA);
    std::uint64_t b = Imm ? static_cast<std::uint64_t>(op->imm)
                          : regAt(regs, op->srcB);
    regAt(regs, op->dst) = evalAlu(Op, a, b);
    return op + 1;
}

template <Opcode Op>
const Translator::MicroOp *
branchStep(const Translator::MicroOp *op, char *regs,
           Translator::Frame &frame)
{
    bool taken = evalBranch(Op, regAt(regs, op->srcA),
                            regAt(regs, op->srcB));
    frame.state.pc = taken ? op->targetPc : op->fallthroughPc;
    return nullptr;
}

const Translator::MicroOp *
markStep(const Translator::MicroOp *op, char *,
         Translator::Frame &frame)
{
    frame.marks.push_back(op->imm);
    return op + 1;
}

/** Block end without a branch: park the pc on the boundary. */
const Translator::MicroOp *
endStep(const Translator::MicroOp *op, char *,
        Translator::Frame &frame)
{
    frame.state.pc = op->fallthroughPc;
    return nullptr;
}

Translator::OpFn
pickAlu(Opcode op, bool imm)
{
#define CSB_ALU_CASE(OP)                                               \
    case Opcode::OP:                                                   \
        return imm ? &aluStep<Opcode::OP, true>                        \
                   : &aluStep<Opcode::OP, false>
    switch (op) {
      CSB_ALU_CASE(Add);
      CSB_ALU_CASE(Sub);
      CSB_ALU_CASE(And);
      CSB_ALU_CASE(Or);
      CSB_ALU_CASE(Xor);
      CSB_ALU_CASE(Sll);
      CSB_ALU_CASE(Srl);
      CSB_ALU_CASE(Sra);
      CSB_ALU_CASE(Mul);
      CSB_ALU_CASE(Slt);
      CSB_ALU_CASE(Sltu);
      CSB_ALU_CASE(Addi);
      CSB_ALU_CASE(Andi);
      CSB_ALU_CASE(Ori);
      CSB_ALU_CASE(Xori);
      CSB_ALU_CASE(Slli);
      CSB_ALU_CASE(Srli);
      CSB_ALU_CASE(Slti);
      CSB_ALU_CASE(Li);
      CSB_ALU_CASE(Fadd);
      CSB_ALU_CASE(Fsub);
      CSB_ALU_CASE(Fmul);
      CSB_ALU_CASE(Fmov);
      CSB_ALU_CASE(Fitod);
      CSB_ALU_CASE(Mvi2f);
      CSB_ALU_CASE(Mvf2i);
      default:
        csb_panic("translator: non-ALU opcode ", isa::mnemonic(op));
    }
#undef CSB_ALU_CASE
}

Translator::OpFn
pickBranch(Opcode op)
{
#define CSB_BR_CASE(OP)                                                \
    case Opcode::OP:                                                   \
        return &branchStep<Opcode::OP>
    switch (op) {
      CSB_BR_CASE(Beq);
      CSB_BR_CASE(Bne);
      CSB_BR_CASE(Ble);
      CSB_BR_CASE(Bgt);
      CSB_BR_CASE(Blt);
      CSB_BR_CASE(Bge);
      CSB_BR_CASE(Jmp);
      default:
        csb_panic("translator: non-branch opcode ", isa::mnemonic(op));
    }
#undef CSB_BR_CASE
}

} // namespace

void
Translator::setProgram(const isa::Program *program)
{
    csb_assert(!program || program->finalized(),
               "translator needs a finalized program");
    program_ = program;
    blocks_.clear();
    if (program_)
        blocks_.resize(program_->size());
}

Translator::Block &
Translator::blockAt(std::uint64_t pc)
{
    Block &block = blocks_[pc];
    if (!block.translated)
        translate(block, pc);
    return block;
}

void
Translator::translate(Block &block, std::uint64_t entry_pc) const
{
    const isa::Instruction *code = program_->code().data();
    const std::uint64_t size = program_->size();

    std::uint64_t pc = entry_pc;
    bool terminated = false;
    while (pc < size && !terminated) {
        const isa::Instruction &inst = code[pc];
        switch (inst.instClass()) {
          case InstClass::Load:
          case InstClass::Store:
          case InstClass::Swap:
          case InstClass::Membar:
          case InstClass::Halt:
            // Boundary: the cycle-level path owns this instruction.
            goto done;

          case InstClass::Branch: {
            MicroOp op;
            op.fn = pickBranch(inst.op);
            op.srcA = regOffset(inst.rs1);
            op.srcB = regOffset(inst.rs2);
            op.targetPc = static_cast<std::uint64_t>(inst.target);
            op.fallthroughPc = pc + 1;
            block.ops.push_back(op);
            terminated = true;
            break;
          }

          case InstClass::Mark: {
            MicroOp op;
            op.fn = &markStep;
            op.imm = inst.imm;
            block.ops.push_back(op);
            break;
          }

          case InstClass::IntAlu:
          case InstClass::FpAlu:
            // An ALU op whose destination is absent or r0 is
            // architecturally a no-op (writeReg drops it; reads have
            // no side effects): elide it, like the Nop below, but
            // still count it in len.
            if (inst.rd.valid() && !inst.rd.isZero()) {
                MicroOp op;
                op.fn = pickAlu(inst.op, !inst.rs2.valid());
                op.dst = regOffset(inst.rd);
                op.srcA = regOffset(inst.rs1);
                op.srcB = regOffset(inst.rs2);
                op.imm = inst.imm;
                block.ops.push_back(op);
            }
            break;

          case InstClass::Nop:
            break;
        }
        ++pc;
        ++block.len;
    }
done:
    if (!terminated) {
        // Ended at a boundary instruction or the program's end: a
        // synthetic terminator parks the pc there for the slow path
        // (which re-raises the executor's fell-off-the-program
        // assert if pc == size, exactly as before).
        MicroOp op;
        op.fn = &endStep;
        op.fallthroughPc = pc;
        block.ops.push_back(op);
    }
    block.translated = true;
}

std::uint64_t
Translator::run(ArchState &state, std::uint64_t max_steps,
                std::vector<std::int64_t> &marks)
{
    csb_assert(program_ != nullptr, "translator has no program");
    std::uint64_t steps = 0;
    Frame frame{state, marks};
    char *regs = reinterpret_cast<char *>(&state);
    while (state.pc < blocks_.size()) {
        Block &block = blockAt(state.pc);
        if (block.len == 0 || steps + block.len > max_steps)
            break;
        const MicroOp *op = block.ops.data();
        do {
            op = op->fn(op, regs, frame);
        } while (op);
        steps += block.len;
    }
    return steps;
}

std::uint64_t
Translator::blockLen(std::uint64_t pc)
{
    if (program_ == nullptr || pc >= blocks_.size())
        return 0;
    return blockAt(pc).len;
}

} // namespace csb::cpu

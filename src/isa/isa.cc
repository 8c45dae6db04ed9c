#include "isa/isa.hh"

#include <array>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace tcpni
{
namespace isa
{

bool
isTriadic(Opcode op)
{
    switch (op) {
      case Opcode::add:
      case Opcode::sub:
      case Opcode::and_:
      case Opcode::or_:
      case Opcode::xor_:
      case Opcode::sll:
      case Opcode::srl:
      case Opcode::sra:
      case Opcode::slt:
      case Opcode::sltu:
      case Opcode::mul:
      case Opcode::ld:
      case Opcode::st:
      case Opcode::jmp:
        return true;
      default:
        return false;
    }
}

bool
isBranch(Opcode op)
{
    switch (op) {
      case Opcode::beqz:
      case Opcode::bnez:
      case Opcode::bltz:
      case Opcode::bgez:
      case Opcode::br:
      case Opcode::jmp:
        return true;
      default:
        return false;
    }
}

bool
readsRs1(Opcode op)
{
    switch (op) {
      case Opcode::lui:
      case Opcode::br:
      case Opcode::halt:
        return false;
      default:
        return true;
    }
}

bool
readsRs2(Opcode op)
{
    switch (op) {
      case Opcode::add:
      case Opcode::sub:
      case Opcode::and_:
      case Opcode::or_:
      case Opcode::xor_:
      case Opcode::sll:
      case Opcode::srl:
      case Opcode::sra:
      case Opcode::slt:
      case Opcode::sltu:
      case Opcode::mul:
      case Opcode::ld:
      case Opcode::st:
        return true;
      default:
        return false;
    }
}

bool
readsRdAsSource(Opcode op)
{
    return op == Opcode::st || op == Opcode::sti;
}

bool
writesRd(Opcode op)
{
    switch (op) {
      case Opcode::st:
      case Opcode::sti:
      case Opcode::beqz:
      case Opcode::bnez:
      case Opcode::bltz:
      case Opcode::bgez:
      case Opcode::halt:
        return false;
      case Opcode::br:
      case Opcode::jmp:
        return true;    // link register (r0 when unused)
      default:
        return true;
    }
}

bool
isLoad(Opcode op)
{
    return op == Opcode::ld || op == Opcode::ldi;
}

bool
isStore(Opcode op)
{
    return op == Opcode::st || op == Opcode::sti;
}

bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::beqz:
      case Opcode::bnez:
      case Opcode::bltz:
      case Opcode::bgez:
        return true;
      default:
        return false;
    }
}

bool
immFits(Opcode op, int32_t imm)
{
    if (isTriadic(op))
        return true;    // no immediate field
    if (immIsSigned(op))
        return fitsSigned(imm, 16);
    return fitsUnsigned(static_cast<uint32_t>(imm), 16);
}

std::vector<unsigned>
regsRead(const Instruction &inst)
{
    std::vector<unsigned> regs;
    auto add = [&](unsigned r) {
        if (r == 0)
            return;
        for (unsigned have : regs) {
            if (have == r)
                return;
        }
        regs.push_back(r);
    };
    if (readsRs1(inst.op))
        add(inst.rs1);
    if (readsRs2(inst.op))
        add(inst.rs2);
    if (readsRdAsSource(inst.op))
        add(inst.rd);
    return regs;
}

std::optional<unsigned>
regWritten(const Instruction &inst)
{
    if (!writesRd(inst.op) || inst.rd == 0)
        return std::nullopt;
    return inst.rd;
}

bool
immIsSigned(Opcode op)
{
    switch (op) {
      case Opcode::andi:
      case Opcode::ori:
      case Opcode::xori:
      case Opcode::lui:
      case Opcode::slli:
      case Opcode::srli:
        return false;
      default:
        return true;
    }
}

Word
encode(const Instruction &inst)
{
    Word w = 0;
    w = insertBits(w, 31, 26, static_cast<uint64_t>(inst.op));
    w = insertBits(w, 25, 21, inst.rd);
    w = insertBits(w, 20, 16, inst.rs1);

    if (isTriadic(inst.op)) {
        w = insertBits(w, 15, 11, inst.rs2);
        w = insertBits(w, 10, 10, inst.ni.next ? 1 : 0);
        w = insertBits(w, 9, 8, static_cast<uint64_t>(inst.ni.mode));
        w = insertBits(w, 7, 4, inst.ni.type);
    } else {
        if (inst.ni.any())
            panic("NI commands require a triadic opcode (got %s)",
                  opcodeName(inst.op).c_str());
        if (immIsSigned(inst.op)) {
            if (!fitsSigned(inst.imm, 16))
                panic("immediate %d out of signed 16-bit range in %s",
                      inst.imm, opcodeName(inst.op).c_str());
        } else {
            if (!fitsUnsigned(static_cast<uint32_t>(inst.imm), 16))
                panic("immediate %d out of unsigned 16-bit range in %s",
                      inst.imm, opcodeName(inst.op).c_str());
        }
        w = insertBits(w, 15, 0, static_cast<uint32_t>(inst.imm));
    }
    return w;
}

Instruction
decode(Word w)
{
    Instruction inst;
    auto op_bits = bits(w, 31, 26);
    inst.op = static_cast<Opcode>(op_bits);

    // Validate the opcode.
    switch (inst.op) {
      case Opcode::add: case Opcode::sub: case Opcode::and_:
      case Opcode::or_: case Opcode::xor_: case Opcode::sll:
      case Opcode::srl: case Opcode::sra: case Opcode::slt:
      case Opcode::sltu: case Opcode::mul: case Opcode::ld:
      case Opcode::st: case Opcode::jmp: case Opcode::addi:
      case Opcode::andi: case Opcode::ori: case Opcode::xori:
      case Opcode::lui: case Opcode::ldi: case Opcode::sti:
      case Opcode::slli: case Opcode::srli: case Opcode::beqz:
      case Opcode::bnez: case Opcode::bltz: case Opcode::bgez:
      case Opcode::br: case Opcode::halt:
        break;
      default:
        panic("decode of unknown opcode %u (word 0x%08x)",
              static_cast<unsigned>(op_bits), w);
    }

    inst.rd = static_cast<uint8_t>(bits(w, 25, 21));
    inst.rs1 = static_cast<uint8_t>(bits(w, 20, 16));

    if (isTriadic(inst.op)) {
        inst.rs2 = static_cast<uint8_t>(bits(w, 15, 11));
        inst.ni.next = bits(w, 10) != 0;
        inst.ni.mode = static_cast<SendMode>(bits(w, 9, 8));
        inst.ni.type = static_cast<uint8_t>(bits(w, 7, 4));
    } else {
        uint32_t raw = static_cast<uint32_t>(bits(w, 15, 0));
        inst.imm = immIsSigned(inst.op)
            ? static_cast<int32_t>(sext(raw, 16))
            : static_cast<int32_t>(raw);
    }
    return inst;
}

std::string
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::add: return "add";
      case Opcode::sub: return "sub";
      case Opcode::and_: return "and";
      case Opcode::or_: return "or";
      case Opcode::xor_: return "xor";
      case Opcode::sll: return "sll";
      case Opcode::srl: return "srl";
      case Opcode::sra: return "sra";
      case Opcode::slt: return "slt";
      case Opcode::sltu: return "sltu";
      case Opcode::mul: return "mul";
      case Opcode::ld: return "ld";
      case Opcode::st: return "st";
      case Opcode::jmp: return "jmp";
      case Opcode::addi: return "addi";
      case Opcode::andi: return "andi";
      case Opcode::ori: return "ori";
      case Opcode::xori: return "xori";
      case Opcode::lui: return "lui";
      case Opcode::ldi: return "ldi";
      case Opcode::sti: return "sti";
      case Opcode::slli: return "slli";
      case Opcode::srli: return "srli";
      case Opcode::beqz: return "beqz";
      case Opcode::bnez: return "bnez";
      case Opcode::bltz: return "bltz";
      case Opcode::bgez: return "bgez";
      case Opcode::br: return "br";
      case Opcode::halt: return "halt";
    }
    return "???";
}

std::string
regName(unsigned reg)
{
    static const char *aliases[] = {
        "o0", "o1", "o2", "o3", "o4",
        "i0", "i1", "i2", "i3", "i4",
        "status", "control", "msgip", "nextmsgip", "ipbase",
    };
    if (reg >= niRegBase && reg < niRegBase + 15)
        return aliases[reg - niRegBase];
    return std::to_string(reg).insert(0, 1, 'r');
}

std::optional<unsigned>
parseRegName(const std::string &name)
{
    static const std::unordered_map<std::string, unsigned> aliases = {
        {"o0", 16}, {"o1", 17}, {"o2", 18}, {"o3", 19}, {"o4", 20},
        {"i0", 21}, {"i1", 22}, {"i2", 23}, {"i3", 24}, {"i4", 25},
        {"status", 26}, {"control", 27}, {"msgip", 28},
        {"nextmsgip", 29}, {"ipbase", 30},
    };
    auto it = aliases.find(name);
    if (it != aliases.end())
        return it->second;
    if (name.size() >= 2 && name[0] == 'r') {
        unsigned v = 0;
        for (size_t i = 1; i < name.size(); ++i) {
            if (name[i] < '0' || name[i] > '9')
                return std::nullopt;
            v = v * 10 + static_cast<unsigned>(name[i] - '0');
        }
        if (v < numRegs)
            return v;
    }
    return std::nullopt;
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op);

    auto r = [](unsigned reg) { return regName(reg); };

    switch (inst.op) {
      case Opcode::add: case Opcode::sub: case Opcode::and_:
      case Opcode::or_: case Opcode::xor_: case Opcode::sll:
      case Opcode::srl: case Opcode::sra: case Opcode::slt:
      case Opcode::sltu: case Opcode::mul:
      case Opcode::ld: case Opcode::st:
        os << ' ' << r(inst.rd) << ", " << r(inst.rs1) << ", "
           << r(inst.rs2);
        break;
      case Opcode::jmp:
        os << ' ' << r(inst.rs1);
        if (inst.rd != 0)
            os << " (link " << r(inst.rd) << ")";
        break;
      case Opcode::addi: case Opcode::andi: case Opcode::ori:
      case Opcode::xori: case Opcode::ldi: case Opcode::sti:
      case Opcode::slli: case Opcode::srli:
        os << ' ' << r(inst.rd) << ", " << r(inst.rs1) << ", "
           << inst.imm;
        break;
      case Opcode::lui:
        os << ' ' << r(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::beqz: case Opcode::bnez: case Opcode::bltz:
      case Opcode::bgez:
        os << ' ' << r(inst.rs1) << ", " << inst.imm;
        break;
      case Opcode::br:
        os << ' ' << inst.imm;
        if (inst.rd != 0)
            os << " (link " << r(inst.rd) << ")";
        break;
      case Opcode::halt:
        break;
    }

    if (isTriadic(inst.op) && inst.ni.any()) {
        switch (inst.ni.mode) {
          case SendMode::send:
            os << " !send=" << static_cast<int>(inst.ni.type);
            break;
          case SendMode::reply:
            os << " !reply=" << static_cast<int>(inst.ni.type);
            break;
          case SendMode::forward:
            os << " !forward=" << static_cast<int>(inst.ni.type);
            break;
          case SendMode::none:
            break;
        }
        if (inst.ni.next)
            os << " !next";
    }
    return os.str();
}

} // namespace isa
} // namespace tcpni

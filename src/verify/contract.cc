#include "verify/contract.hh"

#include <sstream>

#include "common/bitfield.hh"
#include "msg/protocol.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace verify
{

AbsVal
mergeVal(const AbsVal &a, const AbsVal &b)
{
    if (a == b)
        return a;
    return {};
}

std::set<unsigned>
requiredTypes(const ni::Model &model)
{
    std::set<unsigned> types = {
        msg::typeRead, msg::typeWrite, msg::typePRead, msg::typePWrite,
        msg::typeAck, msg::typeStop,
    };
    if (model.optimized && model.policy().escapeTable)
        types.insert(msg::typeEscape);
    return types;
}

std::set<unsigned>
requiredBasicIds()
{
    std::set<unsigned> ids = {msg::typeAck, msg::typeStop};
    for (const msg::KindInfo &k : msg::kinds)
        ids.insert(k.basicId);
    return ids;
}

void
basicIdContract(unsigned id, unsigned &min_words, unsigned &max_words)
{
    // An id that is not its kind's type code names a Send length
    // variant, whose length the id fixes.
    for (const msg::KindInfo &k : msg::kinds) {
        if (k.basicId == id && k.basicId != k.type) {
            min_words = max_words = k.words;
            return;
        }
    }
    msg::TypeContract c = msg::typeContract(id);
    min_words = c.minWords;
    max_words = c.maxWords;
}

using isa::Instruction;
using isa::Opcode;

std::optional<Word>
evalAlu(Opcode op, Word a, Word b)
{
    switch (op) {
      case Opcode::add: case Opcode::addi: return a + b;
      case Opcode::sub: return a - b;
      case Opcode::and_: case Opcode::andi: return a & b;
      case Opcode::or_: case Opcode::ori: return a | b;
      case Opcode::xor_: case Opcode::xori: return a ^ b;
      case Opcode::sll: case Opcode::slli: return a << (b & 31);
      case Opcode::srl: case Opcode::srli: return a >> (b & 31);
      default: return std::nullopt;
    }
}

AbsVal
readReg(const RegEnv &env, unsigned r)
{
    if (r == 0)
        return {VKind::constant, 0};
    return env[r];
}

namespace
{

/** First label bound to @p addr, if any. */
std::string
labelAt(const isa::Program &prog, Addr addr)
{
    for (const auto &[name, val] : prog.symbols) {
        if (val == addr && prog.contains(static_cast<Addr>(val)))
            return name;
    }
    return {};
}

/** Result of symbolically executing the straight-line setup block. */
struct SetupScan
{
    RegEnv env;
    std::map<Addr, AbsVal> stores;  //!< memory image the setup wrote
    Addr ipBase = 0;
    bool ipBaseFound = false;
    size_t instructions = 0;
};

/**
 * Symbolically execute straight-line code from `entry` until the
 * first control transfer (inclusive of its delay slot).  Only the
 * constant effects that the contract depends on are interpreted.
 */
SetupScan
scanSetup(const isa::Program &prog, bool reg_mapped, Addr entry)
{
    SetupScan scan;

    size_t idx = prog.indexOf(entry);
    bool in_delay = false;
    while (idx < prog.words.size() &&
           prog.kindOf[idx] == isa::WordKind::code) {
        Instruction inst = isa::decode(prog.words[idx]);
        ++scan.instructions;

        // Stores: record the written memory image (dispatch tables)
        // and watch for the cache-mapped IpBase installation.
        if (isa::isStore(inst.op)) {
            AbsVal base = readReg(scan.env, inst.rs1);
            AbsVal off = inst.op == Opcode::st
                ? readReg(scan.env, inst.rs2)
                : AbsVal{VKind::constant, static_cast<Word>(inst.imm)};
            if (base.kind == VKind::constant &&
                off.kind == VKind::constant) {
                Addr addr = base.value + off.value;
                AbsVal val = readReg(scan.env, inst.rd);
                if ((addr & ni::cmdaddr::niAddrBase) ==
                    ni::cmdaddr::niAddrBase) {
                    unsigned reg = (addr >> ni::cmdaddr::regShift) & 0xf;
                    if (reg == ni::regIpBase &&
                        val.kind == VKind::constant) {
                        scan.ipBase = val.value;
                        scan.ipBaseFound = true;
                    }
                } else {
                    scan.stores[addr] = val;
                }
            }
        } else if (auto rd = isa::regWritten(inst)) {
            AbsVal result;
            if (inst.op == Opcode::lui) {
                result = {VKind::constant,
                          static_cast<Word>(inst.imm) << 16};
            } else if (isa::isLoad(inst.op)) {
                result = {};
            } else if (isa::isTriadic(inst.op)) {
                AbsVal a = readReg(scan.env, inst.rs1);
                AbsVal b = readReg(scan.env, inst.rs2);
                if (a.kind == VKind::constant &&
                    b.kind == VKind::constant) {
                    if (auto v = evalAlu(inst.op, a.value, b.value))
                        result = {VKind::constant, *v};
                }
            } else {
                AbsVal a = readReg(scan.env, inst.rs1);
                if (a.kind == VKind::constant) {
                    if (auto v = evalAlu(inst.op, a.value,
                                         static_cast<Word>(inst.imm)))
                        result = {VKind::constant, *v};
                }
            }
            scan.env[*rd] = result;
            // Register-mapped kernels install IpBase by writing the
            // r30 alias directly.
            if (reg_mapped && *rd == isa::niRegBase + ni::regIpBase &&
                result.kind == VKind::constant) {
                scan.ipBase = result.value;
                scan.ipBaseFound = true;
            }
        }

        if (in_delay || inst.op == Opcode::halt)
            break;
        if (isa::isBranch(inst.op)) {
            in_delay = true;    // execute the delay slot, then stop
        }
        ++idx;
    }
    return scan;
}

/** Read a software dispatch table out of the setup's store image. */
std::map<unsigned, Addr>
tableFrom(const SetupScan &scan, Addr base, unsigned entries)
{
    std::map<unsigned, Addr> table;
    for (unsigned i = 0; i < entries; ++i) {
        auto it = scan.stores.find(base + 4 * i);
        if (it != scan.stores.end() &&
            it->second.kind == VKind::constant) {
            table[i] = it->second.value;
        }
    }
    return table;
}

/** Name a root after its label when one exists. */
std::string
rootName(const isa::Program &prog, Addr addr, const std::string &fallback)
{
    std::string label = labelAt(prog, addr);
    return label.empty() ? fallback : label;
}

void
commonDerive(const isa::Program &prog, Contract &c)
{
    auto entry_it = prog.symbols.find("entry");
    if (entry_it == prog.symbols.end() ||
        !prog.contains(static_cast<Addr>(entry_it->second))) {
        c.diags.add(Severity::error, "structure", prog.base, 0, "",
                    "kernel has no 'entry' label");
        return;
    }
    Addr entry = static_cast<Addr>(entry_it->second);

    SetupScan scan = scanSetup(prog, c.kernelRegMapped, entry);
    c.pinned = scan.env;
    c.ipBase = scan.ipBase;
    c.ipBaseFound = scan.ipBaseFound;
    c.swTable = tableFrom(scan, msg::basicDispatchTable, 16);
    c.escTable = tableFrom(scan, msg::escapeTableAddr, 16);

    // A register the setup pins is only trustworthy if no other code
    // in the image ever writes it.
    size_t setup_start = prog.indexOf(entry);
    size_t setup_end = setup_start + scan.instructions;
    for (size_t i = 0; i < prog.words.size(); ++i) {
        if (i >= setup_start && i < setup_end)
            continue;
        if (prog.kindOf[i] != isa::WordKind::code)
            continue;
        if (auto rd = isa::regWritten(isa::decode(prog.words[i])))
            c.pinned[*rd] = {};
    }

    Root setup;
    setup.entry = entry;
    setup.name = "entry";
    setup.kind = RootKind::setup;
    c.roots.push_back(setup);
}

} // namespace

Contract
deriveHandlerContract(const isa::Program &prog, const ni::Model &model)
{
    using ni::dispatch::handlerAddr;

    Contract c;
    // On-NI models compile their handlers against the HPU's permanent
    // register coupling, whether or not the host placement is
    // register-mapped.
    c.kernelRegMapped = model.policy().registerMapped ||
                        model.policy().handlersOnNi;
    commonDerive(prog, c);
    if (c.roots.empty())
        return c;

    std::set<unsigned> required = requiredTypes(model);

    // Collective kernels announce themselves by labelling the barrier
    // arrival handler; the four collective types are then required as
    // a set (a kernel that joins barriers but cannot release them is a
    // protocol bug, not a partial feature).
    bool collective =
        prog.symbols.count(model.optimized ? "h_barup" : "hb_barup") > 0;
    if (collective) {
        required.insert(msg::typeBarUp);
        required.insert(msg::typeBarDn);
        required.insert(msg::typeMcast);
        required.insert(msg::typeReduce);
    }

    if (model.optimized) {
        if (!c.ipBaseFound) {
            c.diags.add(Severity::error, "dispatch", prog.base, 0,
                        "entry", "setup never installs IpBase");
            return c;
        }
        // All 64 slots: 16 types x the four threshold variants.
        for (unsigned type = 0; type < 16; ++type) {
            for (unsigned variant = 0; variant < 4; ++variant) {
                bool iafull = variant & 2;
                bool oafull = variant & 1;
                Addr addr = handlerAddr(c.ipBase, type, iafull, oafull);
                std::ostringstream os;
                os << "slot[type=" << type << ",ia=" << iafull
                   << ",oa=" << oafull << "]";
                std::string fallback = os.str();

                if (!prog.contains(addr) ||
                    prog.kindOf[prog.indexOf(addr)] !=
                        isa::WordKind::code) {
                    Severity sev = (type == 0 ||
                                    type == ni::dispatch::excType ||
                                    required.count(type))
                        ? Severity::error
                        : Severity::warning;
                    c.diags.add(sev, "dispatch", addr, 0, fallback,
                                "dispatch slot holds no code");
                    continue;
                }

                Root r;
                r.entry = addr;
                r.name = rootName(prog, addr, fallback);
                r.type = type;
                r.iafull = iafull;
                if (type == 0) {
                    r.kind = RootKind::poll;
                } else if (type == ni::dispatch::excType) {
                    r.kind = RootKind::exception;
                } else if (required.count(type)) {
                    r.kind = RootKind::handler;
                    msg::TypeContract tc = msg::typeContract(type);
                    r.minWords = tc.minWords;
                    r.maxWords = tc.maxWords;
                    if (type == msg::typeEscape)
                        r.dispatchConsumed = {4};
                    // A live type whose slot is only a halt filler has
                    // no handler at all.  STOP is exempt: halting is
                    // precisely its contract.
                    if (type != msg::typeStop &&
                        isa::decode(prog.words[prog.indexOf(addr)]).op ==
                            Opcode::halt) {
                        c.diags.add(Severity::error, "dispatch", addr, 0,
                                    fallback,
                                    "live message type dispatches to a "
                                    "halt filler");
                        continue;
                    }
                } else {
                    r.kind = RootKind::deadSlot;
                }
                c.roots.push_back(r);
            }
        }

        // The type-0 inlets, reached through message word 1.
        for (const msg::KindInfo &in : msg::kinds) {
            if (!in.inlet)
                continue;
            auto it = prog.symbols.find(in.inlet);
            if (it == prog.symbols.end()) {
                c.diags.add(Severity::error, "dispatch", prog.base, 0,
                            in.inlet,
                            "type-0 inlet label missing from kernel");
                continue;
            }
            Root r;
            r.entry = static_cast<Addr>(it->second);
            r.name = in.inlet;
            r.kind = RootKind::inlet;
            r.type = msg::typeSend;
            r.minWords = r.maxWords = in.words;
            r.dispatchConsumed = {1};
            c.roots.push_back(r);
        }

        // Escape-dispatched handlers, when the kernel installs any.
        if (required.count(msg::typeEscape)) {
            if (c.escTable.empty()) {
                c.diags.add(Severity::error, "dispatch", prog.base, 0,
                            "entry",
                            "setup installs no escape-table entries");
            }
            for (const auto &[id, addr] : c.escTable) {
                if (!prog.contains(addr)) {
                    c.diags.add(Severity::error, "dispatch", addr, 0,
                                "esc[" + std::to_string(id) + "]",
                                "escape-table entry points outside the "
                                "kernel");
                    continue;
                }
                Root r;
                r.entry = addr;
                r.name = rootName(prog, addr,
                                  "esc[" + std::to_string(id) + "]");
                r.kind = RootKind::inlet;
                r.type = msg::typeEscape;
                r.minWords = 0;
                r.maxWords = 5;
                r.dispatchConsumed = {4};
                c.roots.push_back(r);
            }
        }
    } else {
        // Basic models dispatch in software through the id table the
        // setup installs.
        std::set<unsigned> ids = requiredBasicIds();
        if (collective) {
            ids.insert(msg::typeBarUp);
            ids.insert(msg::typeBarDn);
            ids.insert(msg::typeMcast);
            ids.insert(msg::typeReduce);
        }
        for (unsigned id : ids) {
            auto it = c.swTable.find(id);
            if (it == c.swTable.end()) {
                c.diags.add(Severity::error, "dispatch", prog.base, 0,
                            "id[" + std::to_string(id) + "]",
                            "software dispatch table has no entry for a "
                            "required id");
                continue;
            }
            Addr addr = it->second;
            if (!prog.contains(addr)) {
                c.diags.add(Severity::error, "dispatch", addr, 0,
                            "id[" + std::to_string(id) + "]",
                            "software dispatch entry points outside the "
                            "kernel");
                continue;
            }
            Root r;
            r.entry = addr;
            r.name = rootName(prog, addr,
                              "id[" + std::to_string(id) + "]");
            r.kind = RootKind::handler;
            r.type = id;
            basicIdContract(id, r.minWords, r.maxWords);
            // Word 4 carries the id; word 1 of the Send family names
            // the inlet the software table already encodes.
            r.dispatchConsumed = {4};
            if (msg::normalizeBasicId(id) == msg::typeSend)
                r.dispatchConsumed.insert(1);
            c.roots.push_back(r);
        }
    }
    return c;
}

Contract
deriveSenderContract(const isa::Program &prog, const ni::Model &model)
{
    Contract c;
    // Senders always run on the host CPU, so they see the placement's
    // own register mapping even on On-NI models.
    c.kernelRegMapped = model.policy().registerMapped;
    commonDerive(prog, c);
    // A sender is one straight entry walk; nothing is pinned for it
    // (the walk itself establishes every register it uses).
    c.pinned = {};
    return c;
}

} // namespace verify
} // namespace tcpni

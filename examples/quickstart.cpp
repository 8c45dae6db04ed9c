/**
 * @file
 * Quickstart: the paper's headline result, end to end.
 *
 * Two nodes on a mesh.  Node 1 runs the optimized register-mapped
 * handler server -- whose remote-read handler is the famous *two
 * RISC instructions* (a jump through NextMsgIp with a fused
 * load / SEND-reply / NEXT in its delay slot).  Node 0 runs a small
 * client program that issues three remote read requests and spins on
 * the replies.
 *
 * Build & run:  ./build/examples/quickstart
 *
 * To watch every message cross the machine, enable the debug trace
 * flags:  TCPNI_TRACE=NI,NOC,DISPATCH ./build/examples/quickstart
 * (CPU adds per-instruction retire lines; "all" enables everything).
 */

#include <cstdio>

#include "common/logging.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "system/system.hh"

using namespace tcpni;

int
main()
{
    // --- build a 2x1 machine with register-mapped optimized NIs ---
    sys::NodeConfig cfg;
    cfg.ni.placement = ni::Placement::registerFile;
    cfg.ni.optimized = true;
    sys::System machine("quickstart", 2, 1, cfg);

    // --- node 1: the server ---
    // The stock handler program from the kernel library: a dispatch
    // table at 0x4000 whose READ slot is the two-instruction handler.
    ni::Model server_model{ni::Placement::registerFile, true};
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(server_model));
    machine.node(1).boot(server, server.addrOf("entry"));

    // Data the client will read remotely.
    machine.node(1).mem().write(0x2000, 111);
    machine.node(1).mem().write(0x2004, 222);
    machine.node(1).mem().write(0x2008, 333);

    // --- node 0: the client ---
    // Issues three READ requests (type 2), then spins until three
    // replies arrive, stores the values at 0x100, sends STOP to the
    // server, and halts.
    isa::Program client = msg::assembleKernel(R"(
        .org 0x1000
    entry:
        li   r1, (1 << NODE_SHIFT) | 0x2000    ; remote address
        li   r2, (0 << NODE_SHIFT) | 0x0       ; reply FP: back to us
        lis  r3, 3                             ; outstanding replies
        lis  r4, 0x100                         ; where replies land
        lis  r6, 4

        ; -- send the three requests --
        add  o0, r1, r0
        add  o1, r2, r0 !send=2
        addi r1, r1, 4
        add  o0, r1, r0
        add  o1, r2, r0 !send=2
        addi r1, r1, 4
        add  o0, r1, r0
        add  o1, r2, r0 !send=2

        ; -- collect replies (type-0 Sends: value in word 2 = i2) --
    wait:
        and  r5, status, r7        ; r7 set below: msg-valid mask
        beqz r5, wait
        nop
        st   i2, r4, r0 !next      ; store reply value, advance
        addi r4, r4, 4
        addi r3, r3, -1
        bnez r3, wait
        nop

        ; -- stop the server and halt --
        li   o0, (1 << NODE_SHIFT)
        send 15
        halt

        ; constant setup executed first via the entry branch below
        ; (r7 = STATUS msg-valid mask)
    )");
    // Patch: set r7 before entering the loop by booting a tiny shim.
    // Simpler: the client reads STATUS's msg-valid bit; preload r7.
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);

    // --- run ---
    bool quiesced = machine.run(100000);

    std::printf("quiesced: %s\n", quiesced ? "yes" : "no");
    std::printf("replies received by node 0:\n");
    for (int k = 0; k < 3; ++k) {
        std::printf("  mem[0x%x] = %u\n", 0x100 + 4 * k,
                    machine.node(0).mem().read(0x100 + 4 * k));
    }
    std::printf("server instructions: %llu (halted: %s)\n",
                static_cast<unsigned long long>(
                    machine.node(1).cpu().instructions()),
                machine.node(1).cpu().halted() ? "yes" : "no");

    bool ok = machine.node(0).mem().read(0x100) == 111 &&
              machine.node(0).mem().read(0x104) == 222 &&
              machine.node(0).mem().read(0x108) == 333;
    std::printf("%s\n", ok ? "OK: remote reads served by the "
                             "two-instruction handler"
                           : "FAILED");
    return ok ? 0 : 1;
}

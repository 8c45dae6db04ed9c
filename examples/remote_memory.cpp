/**
 * @file
 * A remote-memory server machine, Section 3.1 style.
 *
 * Four nodes on a 2x2 mesh, all with *off-chip cache-mapped*
 * interfaces -- the NIC-chip configuration the authors built, where
 * every interface access is a load or store to the 0xffff0000 window
 * with commands encoded in the low address bits (Figure 9).
 *
 * Nodes 1..3 run the basic cache-mapped handler server (the Figure-5
 * software dispatch loop).  Node 0 writes a value to each server with
 * WRITE messages, reads them back with READ messages, and sums the
 * results: 10 + 20 + 30 = 60.
 *
 * Build & run:  ./build/examples/remote_memory
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
    sys::NodeConfig cfg;
    cfg.ni.placement = ni::Placement::offChipCache;
    cfg.ni.optimized = false;
    sys::System machine("remote-memory", 2, 2, cfg);

    // Servers on nodes 1..3: the basic (Figure 5) handler loop.
    ni::Model server_model{ni::Placement::offChipCache, false};
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(server_model));
    for (NodeId n = 1; n <= 3; ++n)
        machine.node(n).boot(server, server.addrOf("entry"));

    // Client on node 0: write 10*n to node n, read it back, sum, and
    // store the sum at local 0x200.  Basic interfaces carry the
    // message id in word 4 (o4).
    isa::Program client = msg::assembleKernel(R"(
        .org 0x1000
    entry:
        li   r10, NI_BASE
        li   r12, ST_MSGVALID
        li   r13, 0                ; our FP (node 0, local 0)
        lis  r11, 10
        lis  r1, 1                 ; current server node
        lis  r3, 0                 ; sum of read replies
        lis  r4, 3                 ; servers remaining

    next_server:
        ; WRITE 10*node to the server's address 0x3000.
        slli r5, r1, NODE_SHIFT
        ori  r5, r5, 0x3000
        sti  r5, r10, NI_O0        ; w0 = global address
        mul  r6, r1, r11
        sti  r6, r10, NI_O1        ; w1 = value
        addi r7, r0, T_WRITE
        sti  r7, r10, NI_O4        ; w4 = message id
        ldi  r0, r10, NI_SEND

        ; READ it back: w0 = addr, w1 = reply FP, w2 = reply IP.
        sti  r5, r10, NI_O0
        sti  r13, r10, NI_O1
        sti  r0, r10, NI_O2
        addi r7, r0, T_READ
        sti  r7, r10, NI_O4
        ldi  r0, r10, NI_SEND

        ; Poll for the reply (a Send message: value in word 2).
    wait:
        ldi  r8, r10, NI_STATUS
        and  r8, r8, r12
        beqz r8, wait
        nop
        ldi  r9, r10, NI_I2 | NI_NEXT
        add  r3, r3, r9            ; accumulate

        addi r1, r1, 1
        addi r4, r4, -1
        bnez r4, next_server
        nop

        sti  r3, r0, 0x200         ; publish the sum locally

        ; Stop all three servers.
        lis  r1, 1
        lis  r4, 3
    stop_loop:
        slli r5, r1, NODE_SHIFT
        sti  r5, r10, NI_O0
        addi r7, r0, T_STOP
        sti  r7, r10, NI_O4
        ldi  r0, r10, NI_SEND
        addi r1, r1, 1
        addi r4, r4, -1
        bnez r4, stop_loop
        nop
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));

    bool quiesced = machine.run(200000);

    Word sum = machine.node(0).mem().read(0x200);
    std::printf("quiesced: %s\n", quiesced ? "yes" : "no");
    for (NodeId n = 1; n <= 3; ++n) {
        std::printf("node %u mem[0x3000] = %u (halted: %s)\n", n,
                    machine.node(n).mem().read(0x3000),
                    machine.node(n).cpu().halted() ? "yes" : "no");
    }
    std::printf("sum of remote reads = %u (expected 60)\n", sum);

    bool ok = sum == 60 && machine.node(1).mem().read(0x3000) == 10 &&
              machine.node(2).mem().read(0x3000) == 20 &&
              machine.node(3).mem().read(0x3000) == 30;
    std::printf("%s\n", ok ? "OK: Figure-9 command addresses drove "
                             "remote memory across the mesh"
                           : "FAILED");
    return ok ? 0 : 1;
}

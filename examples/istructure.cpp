/**
 * @file
 * I-structure producer/consumer over PRead / PWrite messages.
 *
 * Node 1 hosts an I-structure array and runs the optimized
 * register-mapped handler server.  Node 0's consumer requests three
 * elements *before* they exist -- the requests defer at the server,
 * building the deferred-reader list in the server's memory.  Then the
 * producer (also node 0) PWrites the elements; the server's PWrite
 * handler walks the deferred list and FORWARDs the value to each
 * waiting reader (the Section-2.2.2 FORWARD mode), waking the
 * consumer.
 *
 * Build & run:  ./build/examples/istructure
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
    cfg.ni.placement = ni::Placement::registerFile;
    cfg.ni.optimized = true;
    sys::System machine("istructure", 2, 1, cfg);

    // Server: stock optimized register-mapped handler program.  The
    // I-structure elements live at 0x2200 (tag, value pairs); the
    // deferred-node allocator starts at 0x40000.
    ni::Model server_model{ni::Placement::registerFile, true};
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(server_model));
    machine.node(1).boot(server, server.addrOf("entry"));
    machine.node(1).mem().write(msg::allocPtrAddr, 0x40000);

    // Client: PRead elements 0..2 (they are EMPTY: the reads defer),
    // then PWrite them; replies arrive as the server forwards the
    // values.  Values land at local 0x100.
    isa::Program client = msg::assembleKernel(R"(
        .equ ELEM, (1 << NODE_SHIFT) | 0x2200
    entry:
        li   r1, ELEM
        li   r2, (0 << NODE_SHIFT) | 0x0   ; reply FP
        lis  r3, 3                         ; requests to issue
        lis  r9, 3                         ; replies to await
        lis  r4, 0x100

        ; -- consumer: three PReads of not-yet-written elements --
    request:
        add  o0, r1, r0
        add  o1, r2, r0 !send=4            ; T_PREAD
        addi r1, r1, 8                     ; next element (tag+value)
        addi r3, r3, -1
        bnez r3, request
        nop

        ; -- producer: now PWrite the three elements --
        li   r1, ELEM
        lis  r5, 100
        lis  r3, 3
    produce:
        add  o0, r1, r0                    ; w0 = element
        add  o1, r0, r0                    ; w1 = no ack
        add  o2, r5, r0 !send=5            ; w2 = value, T_PWRITE
        addi r1, r1, 8
        addi r5, r5, 11
        addi r3, r3, -1
        bnez r3, produce
        nop

        ; -- collect the three forwarded values --
    wait:
        and  r6, status, r7                ; r7 = msg-valid mask
        beqz r6, wait
        nop
        st   i2, r4, r0 !next
        addi r4, r4, 4
        addi r9, r9, -1
        bnez r9, wait
        nop

        ; stop the server, then halt
        li   o0, (1 << NODE_SHIFT)
        send 15
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);

    bool quiesced = machine.run(200000);

    std::printf("quiesced: %s\n", quiesced ? "yes" : "no");
    bool ok = true;
    for (int k = 0; k < 3; ++k) {
        Word v = machine.node(0).mem().read(0x100 + 4 * k);
        std::printf("forwarded value %d = %u (expected %d)\n", k, v,
                    100 + 11 * k);
        ok = ok && v == static_cast<Word>(100 + 11 * k);
    }

    // The server's element tags are FULL now.
    for (int k = 0; k < 3; ++k) {
        Word tag = machine.node(1).mem().read(0x2200 + 8 * k);
        ok = ok && tag == msg::tagFull;
    }
    std::printf("%s\n", ok ? "OK: deferred readers woken by FORWARD-"
                             "mode PWrite handlers"
                           : "FAILED");
    return ok ? 0 : 1;
}

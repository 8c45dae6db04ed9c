/**
 * @file
 * Flow control and hardware-assisted boundary conditions
 * (Sections 2.1.1 and 2.2.4), demonstrated end to end.
 *
 * Node 0 floods node 1 with messages.  Three mechanisms engage:
 *
 *  1. node 1's input queue crosses its threshold, so the MsgIp
 *     hardware starts dispatching to the *iafull variant* of the
 *     handler ("four versions of each message handler") -- here a
 *     fast-drain handler that defers its work;
 *  2. node 1's input queue fills entirely, backpressuring the mesh;
 *  3. node 0's output queue fills, and with the CONTROL stall-on-full
 *     policy the SEND instruction holds the processor at issue.
 *
 * The program prints how many messages each handler variant served
 * and how long the sender stalled.
 *
 * Build & run:  ./build/examples/congestion
 *
 * Observability: run with TCPNI_TRACE=NI,NOC to watch the queue
 * thresholds assert and the mesh backpressure engage cycle by cycle;
 * pass --json FILE to write the flood's counters from the metrics
 * registry (including the exact queue occupancy integrals) in the
 * tcpni-metrics-1 JSON schema.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/placement_policy.hh"
#include "system/system.hh"

using namespace tcpni;

namespace
{

/** An off-chip cache-mapped client: flood two-word Sends at node 1
 *  through the memory-mapped interface window, then stop the server.
 *  @p sendip is the server's two-word-Send inlet (optimized
 *  interfaces dispatch type-0 messages through word 1). */
std::string
floodClient(unsigned flood, Addr sendip)
{
    return ".equ FLOOD, " + std::to_string(flood) +
           "\n.equ SENDIP, " + std::to_string(sendip) + R"(
    entry:
        li   r10, NI_BASE
        li   r1, (1 << NODE_SHIFT) | 0x2000
        sti  r1, r10, NI_O0
        li   r1, SENDIP
        sti  r1, r10, NI_O1
        li   r1, 0x11
        sti  r1, r10, NI_O2
        li   r1, 0x22
        sti  r1, r10, NI_O3
        li   r1, ID_SEND2          ; software id of the two-word Send
        sti  r1, r10, NI_O4
        lis  r2, FLOOD
    flood:
        ldi  r0, r10, NI_SEND      ; wire type 0
        addi r2, r2, -1
        bnez r2, flood
        nop
        li   r1, (1 << NODE_SHIFT)
        sti  r1, r10, NI_O0
        li   r1, T_STOP
        sti  r1, r10, NI_O4
        ldi  r0, r10, NI_SEND | NI_TYPE*T_STOP
        halt
    )";
}

/** Occupancy split for one mixed-vs-uniform variant run. */
struct VariantResult
{
    bool ok = false;
    uint64_t cpuHandler = 0;   //!< server CPU dispatch+processing
    uint64_t hpuHandler = 0;   //!< server HPU dispatch+processing
    uint64_t ticks = 0;
};

uint64_t
handlerCycles(const std::map<std::string, uint64_t> &regions)
{
    uint64_t sum = 0;
    for (const char *k : {"dispatching", "processing"}) {
        auto it = regions.find(k);
        if (it != regions.end())
            sum += it->second;
    }
    return sum;
}

/** Run the flood against a server built from @p server_model, with an
 *  off-chip cache-mapped client -- per-node interface configurations
 *  are free to differ across the machine. */
VariantResult
runVariant(const ni::Model &server_model, unsigned flood)
{
    sys::NodeConfig client_cfg;
    client_cfg.ni =
        ni::Model{ni::Placement::offChipCache, true}.config();
    sys::NodeConfig server_cfg;
    server_cfg.ni = server_model.config();
    sys::System machine("mixed", 2, 1, {client_cfg, server_cfg});

    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(server_model));
    machine.node(1).boot(server, server.addrOf("entry"));
    machine.node(1).mem().write(msg::allocPtrAddr, 0x40000);
    if (server_model.policy().handlersOnNi) {
        isa::Program host = msg::assembleKernel(
            msg::hostProxyProgram(server_model));
        machine.node(1).bootHost(host, host.addrOf("entry"));
    }

    isa::Program client = msg::assembleKernel(
        floodClient(flood, server.addrOf("h_send2")));
    machine.node(0).boot(client, client.addrOf("entry"));

    VariantResult r;
    bool quiesced = machine.run(1000000);
    r.ok = quiesced &&
           machine.node(1).mem().read(0x2000) == 0x11 &&
           machine.node(1).mem().read(0x2004) == 0x22 &&
           machine.node(1).ni().numReceived() == flood + 1;
    r.cpuHandler = handlerCycles(machine.node(1).cpu().regionCycles());
    if (Hpu *hpu = machine.node(1).hpu())
        r.hpuHandler = handlerCycles(hpu->regionCycles());
    r.ticks = machine.eventq().curTick();
    return r;
}

/** Outcome of the threshold / stall-on-full flood. */
struct FloodResult
{
    bool quiesced = false;
    Word slow = 0;        //!< messages served by the normal handler
    Word fast = 0;        //!< messages served by the iafull variant
    uint64_t stalls = 0;  //!< sender SEND-stall cycles
};

/** Flood node 1 from node 0; with @p collector non-null, the
 *  machine's counters are deposited there. */
FloodResult
runFlood(metrics::Collector *collector)
{
    // Declared before the machine, so the scope outlives (and
    // collects) every group the machine registers.
    metrics::TaskScope telemetry(collector, 0, "congestion");

    sys::NodeConfig sender_cfg;
    sender_cfg.ni.placement = ni::Placement::registerFile;
    sender_cfg.ni.outputQueueDepth = 4;
    sender_cfg.ni.outputThreshold = 4;  // == depth: oafull never raises

    sys::NodeConfig server_cfg = sender_cfg;
    server_cfg.ni.inputQueueDepth = 8;
    server_cfg.ni.inputThreshold = 3;   // iafull above 3 queued

    sys::System machine("congestion", 2, 1,
                        {sender_cfg, server_cfg});

    // Server: type-2 messages have two handler variants.  The normal
    // one simulates expensive processing (a delay loop); the iafull
    // variant sheds load by just counting and draining.
    isa::Program server = msg::assembleKernel(R"(
        .org 0x4000
        ; ---- base variants (iafull = 0) ----
    poll:
        jmp  msgip
        nop
        .align HANDLER_STRIDE
    exc:
        halt
        .align HANDLER_STRIDE
    slow:                          ; type 2, queue healthy
        ldi  r1, r0, 0x600
        addi r1, r1, 1
        sti  r1, r0, 0x600         ; count[slow]++
        lis  r2, 8                 ; simulate expensive processing
    spin:
        addi r2, r2, -1
        bnez r2, spin
        nop
        next
        br   poll
        nop
        .align HANDLER_STRIDE
        .space (HANDLER_STRIDE/4) * 12      ; slots 3..14
    stop:
        halt
        .align HANDLER_STRIDE
        ; skip the 16 oafull-variant slots (+0x800, unused here)
        .space (HANDLER_STRIDE/4) * 16

        ; ---- iafull variants (+0x1000) ----
    poll_ia:
        jmp  msgip
        nop
        .align HANDLER_STRIDE
    exc_ia:
        halt
        .align HANDLER_STRIDE
    fast:                          ; type 2, input queue over threshold
        ldi  r1, r0, 0x604
        addi r1, r1, 1
        sti  r1, r0, 0x604         ; count[fast]++
        next
        br   poll
        nop
        .align HANDLER_STRIDE
        .space (HANDLER_STRIDE/4) * 12
    stop_ia:
        halt
        .align HANDLER_STRIDE

    entry:
        li   ipbase, 0x4000
        br   poll
        nop
    )");
    machine.node(1).boot(server, server.addrOf("entry"));

    // Sender: blast 40 type-2 messages, then STOP.
    isa::Program sender = msg::assembleKernel(R"(
    entry:
        li   o0, (1 << NODE_SHIFT)
        lis  r1, 40
    flood:
        send 2
        addi r1, r1, -1
        bnez r1, flood
        nop
        send 15
        halt
    )");
    machine.node(0).boot(sender, sender.addrOf("entry"));

    FloodResult r;
    r.quiesced = machine.run(100000);
    r.slow = machine.node(1).mem().read(0x600);
    r.fast = machine.node(1).mem().read(0x604);
    r.stalls = machine.node(0).cpu().niStallCycles();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_file;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_file = argv[++i];
    }

    metrics::Collector collector(0);
    FloodResult r = runFlood(json_file.empty() ? nullptr : &collector);

    std::printf("quiesced: %s\n", r.quiesced ? "yes" : "no");
    std::printf("messages served by the normal handler:  %u\n",
                r.slow);
    std::printf("messages served by the iafull variant:  %u\n",
                r.fast);
    std::printf("sender SEND-stall cycles (full output queue): %llu\n",
                static_cast<unsigned long long>(r.stalls));

    if (!json_file.empty()) {
        std::ofstream os(json_file);
        collector.writeJson(os);
        std::printf("wrote metrics telemetry to %s\n",
                    json_file.c_str());
    }

    bool ok = r.quiesced && r.slow + r.fast == 40 &&
              r.fast > 0 && r.slow > 0 && r.stalls > 0;
    std::printf("%s\n",
                ok ? "OK: thresholds, handler variants, and "
                     "stall-on-full all engaged"
                   : "FAILED");

    // ---- heterogeneous configurations: mixed vs uniform ----
    //
    // Interface configurations are per node, so one machine can mix
    // placements.  Re-run the flood against (a) a uniform fleet
    // (off-chip server, off-chip client) and (b) a mixed one where
    // only the congested server node pays for an On-NI interface: the
    // same stock handler kernels then run on the server's HPU and the
    // handler occupancy leaves its CPU entirely.
    std::printf("\nmixed vs uniform fleet (40-message flood, "
                "server handler cycles):\n");
    VariantResult uniform = runVariant(
        ni::Model{ni::Placement::offChipCache, true}, 40);
    VariantResult mixed =
        runVariant(ni::Model{ni::Placement::onNi, true}, 40);
    std::printf("  uniform (off-chip server): CPU %llu  HPU %llu  "
                "ticks %llu\n",
                static_cast<unsigned long long>(uniform.cpuHandler),
                static_cast<unsigned long long>(uniform.hpuHandler),
                static_cast<unsigned long long>(uniform.ticks));
    std::printf("  mixed   (On-NI server):    CPU %llu  HPU %llu  "
                "ticks %llu\n",
                static_cast<unsigned long long>(mixed.cpuHandler),
                static_cast<unsigned long long>(mixed.hpuHandler),
                static_cast<unsigned long long>(mixed.ticks));

    bool ok2 = uniform.ok && mixed.ok && uniform.cpuHandler > 0 &&
               mixed.cpuHandler == 0 && mixed.hpuHandler > 0;
    std::printf("%s\n",
                ok2 ? "OK: the mixed fleet moved the handler "
                      "occupancy off the server CPU"
                    : "FAILED (mixed-vs-uniform variant)");
    return ok && ok2 ? 0 : 1;
}

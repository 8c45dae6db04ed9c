#include "apps/pingpong.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"

namespace tcpni
{
namespace apps
{

using tam::CodeBlock;
using tam::Frame;
using tam::Machine;
using tam::Payload;
using tam::Value;

PingPongResult
runPingPong(unsigned round_trips, tam::MachineConfig cfg)
{
    Machine m(cfg);

    // Frame layout: [0] = remaining trips, [1] = received value,
    // [2] = peer frame id.
    auto cb = std::make_unique<CodeBlock>();
    cb->name = "pingpong";
    cb->numLocals = 3;

    // Inlet 0: a ball arrives.
    cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(1);
            mm.frameSet(f, 1, vals.at(0));
            mm.fork(f, 0);
        });

    // Thread 0: hit it back (or stop).
    cb->threads.push_back([](Machine &mm, Frame &f) {
        mm.iop(1);
        double remaining = mm.frameGet(f, 0);
        if (remaining < 0.5)
            return;
        mm.frameSet(f, 0, remaining - 1);
        mm.iop(1);
        Value v = mm.frameGet(f, 1) + 1;
        Frame &peer = mm.frame(
            static_cast<uint32_t>(mm.frameGet(f, 2)));
        mm.send(mm.cont(peer, 0), {v});
    });

    Frame &a = m.falloc(cb.get());
    Frame &b = m.falloc(cb.get());
    m.frameSet(a, 0, round_trips);
    m.frameSet(a, 2, b.id());
    m.frameSet(b, 0, round_trips);
    m.frameSet(b, 2, a.id());

    // Serve.
    m.send(m.cont(a, 0), {0.0});
    m.run();

    PingPongResult r;
    r.stats = m.stats();
    r.roundTrips = round_trips;
    r.finalValue = std::max(m.frameGet(a, 1), m.frameGet(b, 1));
    return r;
}

} // namespace apps
} // namespace tcpni

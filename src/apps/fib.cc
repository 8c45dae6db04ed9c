#include "apps/fib.hh"

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

FibResult
runFib(unsigned n, tam::MachineConfig cfg)
{
    Machine m(cfg);

    // Frame layout: [0] = n, [1] = parent frame id, [2] = accumulated
    // result, [3] = children outstanding.
    const unsigned slotN = 0, slotParent = 1, slotAcc = 2,
                   slotSync = 3;

    auto fib_cb = std::make_unique<CodeBlock>();
    auto root_cb = std::make_unique<CodeBlock>();
    CodeBlock *fib_ptr = fib_cb.get();
    uint64_t activations = 0;

    fib_cb->name = "fib";
    fib_cb->numLocals = 4;

    // Inlet 0: the call (n, parent frame).
    fib_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(2);
            mm.frameSet(f, slotN, vals.at(0));
            mm.frameSet(f, slotParent, vals.at(1));
            mm.fork(f, 0);
        });

    // Inlet 1: a child's result.
    fib_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(1);
            mm.iop(1);
            mm.frameSet(f, slotAcc,
                        mm.frameGet(f, slotAcc) + vals.at(0));
            mm.syncDec(f, slotSync, 1);
        });

    // Thread 0: the call body.
    fib_cb->threads.push_back([=, &activations](Machine &mm, Frame &f) {
        ++activations;
        mm.iop(1);
        double nv = mm.frameGet(f, slotN);
        if (nv < 2) {
            mm.fork(f, 1);
            mm.frameSet(f, slotAcc, 1);
            return;
        }
        mm.frameSet(f, slotAcc, 0);
        mm.frameSet(f, slotSync, 2);
        for (int child = 0; child < 2; ++child) {
            mm.iop(1);
            Frame &cf = mm.falloc(fib_ptr);
            mm.send(mm.cont(cf, 0),
                    {nv - 1 - child, static_cast<Value>(f.id())});
        }
    });

    // Thread 1: both children returned -- return to the parent.
    fib_cb->threads.push_back([=](Machine &mm, Frame &f) {
        Value acc = mm.frameGet(f, slotAcc);
        uint32_t parent =
            static_cast<uint32_t>(mm.frameGet(f, slotParent));
        mm.send(mm.cont(mm.frame(parent), 1), {acc});
        mm.ffree(f);
    });

    // Root: receives the final result in slot 0.
    root_cb->name = "fib_root";
    root_cb->numLocals = 1;
    root_cb->inlets.push_back(
        [](Machine &, Frame &, const Payload &) {});
    root_cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &vals) {
            mm.frameSet(f, 0, vals.at(0));
        });

    Frame &root = m.falloc(root_cb.get());
    Frame &top = m.falloc(fib_ptr);
    m.send(m.cont(top, 0),
           {static_cast<Value>(n), static_cast<Value>(root.id())});
    m.run();

    FibResult r;
    r.stats = m.stats();
    r.value = static_cast<uint64_t>(root.locals[0]);
    r.activations = activations;
    r.n = n;
    return r;
}

} // namespace apps
} // namespace tcpni

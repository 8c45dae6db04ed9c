#include "apps/matmul.hh"

#include <memory>
#include <vector>

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

namespace
{

/** Deterministic input matrices (exact in doubles). */
double
aVal(unsigned i, unsigned j)
{
    return static_cast<double>((i * 3 + j * 7) % 11) - 5.0;
}

double
bVal(unsigned i, unsigned j)
{
    return static_cast<double>((i * 5 + j * 2) % 13) - 6.0;
}

} // namespace

MatMulResult
runMatMul(unsigned n, unsigned block, tam::MachineConfig cfg)
{
    if (n == 0 || block == 0 || n % block != 0)
        fatal("matmul: n (%u) must be a positive multiple of the "
              "block size (%u)", n, block);

    Machine m(cfg);
    const unsigned nb = n / block;           // blocks per dimension
    const unsigned bb = block * block;       // elements per block

    tam::ArrayRef array_a = m.heapAlloc(n * n);
    tam::ArrayRef array_b = m.heapAlloc(n * n);
    tam::ArrayRef array_c = m.heapAlloc(n * n);

    // Block frame layout.
    const unsigned slotBi = 0, slotBj = 1, slotKb = 2, slotSync = 3;
    const unsigned slotAcc = 4;              // bb accumulators
    const unsigned slotA = slotAcc + bb;     // bb fetched A values
    const unsigned slotB = slotA + bb;       // bb fetched B values

    auto main_cb = std::make_unique<CodeBlock>();
    auto block_cb = std::make_unique<CodeBlock>();
    uint32_t main_frame_id = 0;

    // ---- the per-output-block code block ----
    block_cb->name = "mm_block";
    block_cb->numLocals = slotB + bb;

    // Inlet 0: arguments (bi, bj).
    block_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(2);
            mm.frameSet(f, slotBi, vals.at(0));
            mm.frameSet(f, slotBj, vals.at(1));
            mm.frameSet(f, slotKb, 0);
            mm.fork(f, 0);
        });

    // Inlets 1..2*bb: one landing site per fetched element.
    for (unsigned e = 0; e < 2 * bb; ++e) {
        unsigned slot = (e < bb ? slotA : slotB) + (e % bb);
        block_cb->inlets.push_back(
            [=](Machine &mm, Frame &f, const Payload &vals) {
                mm.move(1);
                mm.frameSet(f, slot, vals.at(0));
                mm.syncDec(f, slotSync, 1);
            });
    }

    // Thread 0: request the two input blocks for this k-step.
    block_cb->threads.push_back([=](Machine &mm, Frame &f) {
        unsigned bi = static_cast<unsigned>(mm.frameGet(f, slotBi));
        unsigned bj = static_cast<unsigned>(mm.frameGet(f, slotBj));
        unsigned kb = static_cast<unsigned>(mm.frameGet(f, slotKb));
        mm.frameSet(f, slotSync, 2.0 * bb);
        for (unsigned i = 0; i < block; ++i) {
            for (unsigned k = 0; k < block; ++k) {
                unsigned e = i * block + k;
                mm.iop(2);    // row*n + col address arithmetic
                mm.ifetch(array_a,
                          (bi * block + i) * n + (kb * block + k),
                          mm.cont(f, 1 + e));
                mm.iop(2);
                // B[kb*block+k][bj*block+i] lands in slot k*block+i.
                mm.ifetch(array_b,
                          (kb * block + k) * n + (bj * block + i),
                          mm.cont(f, 1 + bb + (k * block + i)));
            }
        }
    });

    // Thread 1: multiply-accumulate, then advance k or finish.
    block_cb->threads.push_back([=](Machine &mm, Frame &f) {
        for (unsigned i = 0; i < block; ++i) {
            for (unsigned j = 0; j < block; ++j) {
                for (unsigned k = 0; k < block; ++k) {
                    mm.iop(2);    // index arithmetic of the inner loop
                    Value a = mm.frameGet(f, slotA + i * block + k);
                    Value b = mm.frameGet(f, slotB + k * block + j);
                    Value acc = mm.frameGet(f, slotAcc + i * block + j);
                    mm.fop(2);    // multiply + add
                    mm.frameSet(f, slotAcc + i * block + j,
                                acc + a * b);
                }
            }
        }
        mm.iop(2);    // kb increment + compare
        unsigned kb = static_cast<unsigned>(mm.frameGet(f, slotKb)) + 1;
        mm.frameSet(f, slotKb, kb);
        mm.fork(f, kb < nb ? 0 : 2);
    });

    // Thread 2: istore the finished block and report completion.
    CodeBlock *main_ptr = main_cb.get();
    (void)main_ptr;
    block_cb->threads.push_back([=, &main_frame_id](Machine &mm,
                                                    Frame &f) {
        unsigned bi = static_cast<unsigned>(mm.frameGet(f, slotBi));
        unsigned bj = static_cast<unsigned>(mm.frameGet(f, slotBj));
        for (unsigned i = 0; i < block; ++i) {
            for (unsigned j = 0; j < block; ++j) {
                mm.iop(2);
                Value acc = mm.frameGet(f, slotAcc + i * block + j);
                mm.istore(array_c,
                          (bi * block + i) * n + (bj * block + j), acc);
            }
        }
        mm.send(mm.cont(mm.frame(main_frame_id), 0), {});
        mm.ffree(f);
    });

    // ---- the main code block ----
    main_cb->name = "mm_main";
    main_cb->numLocals = 1;      // [0] = blocks outstanding

    // Inlet 0: a block finished.
    main_cb->inlets.push_back(
        [](Machine &mm, Frame &f, const Payload &) {
            mm.syncDec(f, 0, 1);
        });

    // Thread 0: initialize all but the last block of rows of A/B,
    // then spawn every block, leaving the tail initialization to run
    // *after* the consumers have started (LIFO order), so fetches see
    // a natural, mostly-FULL mix with some EMPTY and DEFERRED
    // elements -- the kind of ratio Mint reported for the paper.
    const unsigned init_rows = n - block;
    CodeBlock *block_ptr = block_cb.get();
    main_cb->threads.push_back([=](Machine &mm, Frame &f) {
        mm.frameSet(f, 0, static_cast<Value>(nb) * nb);
        for (unsigned i = 0; i < init_rows; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                mm.iop(1);
                mm.istore(array_a, i * n + j, aVal(i, j));
                mm.iop(1);
                mm.istore(array_b, i * n + j, bVal(i, j));
            }
        }
        mm.fork(f, 2);    // second-half init runs last (LIFO)
        for (unsigned bi = 0; bi < nb; ++bi) {
            for (unsigned bj = 0; bj < nb; ++bj) {
                Frame &bf = mm.falloc(block_ptr);
                mm.send(mm.cont(bf, 0),
                        {static_cast<Value>(bi),
                         static_cast<Value>(bj)});
            }
        }
    });

    // Thread 1: all blocks done.
    main_cb->threads.push_back([](Machine &, Frame &) {});

    // Thread 2: initialize the remaining rows of A/B.
    main_cb->threads.push_back([=](Machine &mm, Frame &f) {
        (void)f;
        for (unsigned i = init_rows; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                mm.iop(1);
                mm.istore(array_a, i * n + j, aVal(i, j));
                mm.iop(1);
                mm.istore(array_b, i * n + j, bVal(i, j));
            }
        }
    });

    Frame &main_frame = m.falloc(main_cb.get());
    main_frame_id = main_frame.id();
    m.fork(main_frame, 0);
    m.run();

    // Verification against a straightforward reference product.
    bool ok = true;
    for (unsigned i = 0; i < n && ok; ++i) {
        for (unsigned j = 0; j < n && ok; ++j) {
            double ref = 0;
            for (unsigned k = 0; k < n; ++k)
                ref += aVal(i, k) * bVal(k, j);
            if (m.arrayState(array_c, i * n + j) != Presence::full ||
                m.arrayPeek(array_c, i * n + j) != ref) {
                ok = false;
            }
        }
    }

    MatMulResult result;
    result.stats = m.stats();
    result.verified = ok;
    result.n = n;
    result.flopsPerMessage =
        static_cast<double>(result.stats.flops()) /
        static_cast<double>(result.stats.totalMessages());
    return result;
}

} // namespace apps
} // namespace tcpni

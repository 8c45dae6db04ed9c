/**
 * @file
 * The Table-1 harness reuses state across runs: one node memory per
 * thread (cleared, page by page, for each run) and one process-wide
 * cache of assembled kernels.  These tests check that the reuse leaks
 * nothing: a model's results do not depend on what ran before it on
 * the thread, and a cached kernel is the program assembleKernel makes.
 */

#include <gtest/gtest.h>

#include <exception>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "cost/table1.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "tam/expand.hh"

using namespace tcpni;
using namespace tcpni::cost;
using msg::Kind;

namespace
{

const Kind allKinds[] = {Kind::send0, Kind::send1, Kind::send2,
                         Kind::read,  Kind::write, Kind::pread,
                         Kind::pwrite};

const ProcCase fixedCases[] = {
    ProcCase::send0,      ProcCase::send1,      ProcCase::send2,
    ProcCase::read,       ProcCase::write,      ProcCase::preadFull,
    ProcCase::preadEmpty, ProcCase::preadDeferred,
    ProcCase::pwriteEmpty,
};

/** A model's Table-1 column and its Figure-12 message costs. */
std::vector<double>
modelValues(const ni::Model &model)
{
    std::vector<double> v;
    Table1Harness h(model);
    for (Kind k : allKinds)
        v.push_back(h.sendingCost(k));
    for (ProcCase c : fixedCases) {
        ProcCost pc = h.processingCost(c);
        v.insert(v.end(), {pc.dispatching, pc.processing});
    }
    LinearCost lin = h.pwriteDeferredCost();
    v.insert(v.end(), {lin.base, lin.slope});

    const tam::CommCosts c = tam::measureCommCosts(model);
    v.insert(v.end(),
             {c.sendSend0, c.sendSend1, c.sendSend2, c.sendRead,
              c.sendWrite, c.sendPRead, c.sendPWrite, c.dispatch,
              c.dispSend0, c.dispSend1, c.dispSend2, c.dispRead,
              c.dispWrite, c.dispPReadFull, c.dispPReadEmpty,
              c.dispPReadDeferred, c.dispPWrite, c.procSend0,
              c.procSend1, c.procSend2, c.procRead, c.procWrite,
              c.procPReadFull, c.procPReadEmpty, c.procPReadDeferred,
              c.procPWriteEmpty, c.procPWriteDefBase,
              c.procPWriteDefSlope});
    return v;
}

/** @p fn's result, computed on a new thread (so with a new
 *  per-thread memory); an exception it throws is rethrown here. */
template <typename Fn>
auto
onNewThread(Fn fn)
{
    decltype(fn()) result;
    std::exception_ptr error;
    std::thread t([&] {
        try {
            result = fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    t.join();
    if (error)
        std::rethrow_exception(error);
    return result;
}

} // namespace

TEST(Table1Reuse, ResultsDoNotDependOnEarlierRunsOnTheThread)
{
    // The paper's six models and the three others.  The On-NI models
    // are the ones a stale word would derail: their host proxy reads
    // its ring indices from memory, so a leftover index from an
    // earlier run makes it drain entries that were never posted.
    const auto &models = ni::registeredModels();
    const size_t n = models.size();
    for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(models[i].name);
        const std::vector<double> fresh =
            onNewThread([&] { return modelValues(models[i].model); });
        for (bool reversed : {false, true}) {
            // Every other model first, in registry order or its
            // reverse, then this one, all on one thread.
            const std::vector<double> reused = onNewThread([&] {
                for (size_t j = 0; j < n; ++j) {
                    const size_t other = reversed ? n - 1 - j : j;
                    if (other != i)
                        modelValues(models[other].model);
                }
                return modelValues(models[i].model);
            });
            EXPECT_EQ(reused, fresh)
                << (reversed ? "after the others in reverse order"
                             : "after the others in registry order");
        }
    }
}

TEST(Table1Reuse, KernelCacheMatchesDirectAssemblyOnEveryThread)
{
    // All threads fetch the six paper handler kernels (the same
    // sources, so they race to assemble and insert each one) and the
    // seven sender kernels of their own message count (sources no
    // other thread asks for), starting together.
    constexpr unsigned threads = 4;
    std::vector<std::string> shared;
    for (const ni::Model &model : ni::paperModels())
        shared.push_back(msg::handlerProgram(model));
    std::vector<std::vector<std::string>> sources(threads, shared);
    for (unsigned t = 0; t < threads; ++t)
        for (Kind k : allKinds)
            sources[t].push_back(msg::senderProgram(
                ni::paperModels()[t], k, 5 + t));

    std::vector<std::vector<const isa::Program *>> got(threads);
    std::latch start(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            start.arrive_and_wait();
            for (const std::string &src : sources[t])
                got[t].push_back(&msg::cachedKernel(src));
        });
    }
    for (std::thread &w : workers)
        w.join();

    for (unsigned t = 0; t < threads; ++t) {
        ASSERT_EQ(got[t].size(), sources[t].size());
        for (size_t i = 0; i < sources[t].size(); ++i) {
            SCOPED_TRACE("thread " + std::to_string(t) + ", kernel " +
                         std::to_string(i));
            const isa::Program direct =
                msg::assembleKernel(sources[t][i]);
            const isa::Program &cached = *got[t][i];
            EXPECT_EQ(cached.base, direct.base);
            EXPECT_EQ(cached.words, direct.words);
            EXPECT_EQ(cached.regionOf, direct.regionOf);
            EXPECT_EQ(cached.regionNames, direct.regionNames);
            EXPECT_EQ(cached.symbols, direct.symbols);
            // One program per source, whichever thread assembled it.
            EXPECT_EQ(&msg::cachedKernel(sources[t][i]), got[t][i]);
            if (i < shared.size()) {
                EXPECT_EQ(got[t][i], got[0][i]);
            }
        }
    }
}

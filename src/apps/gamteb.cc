#include "apps/gamteb.hh"

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

/** Energy groups (coarse multigroup approximation). */
constexpr unsigned numGroups = 30;

/** Pair production occurs only above this energy (low group index). */
constexpr unsigned pairThreshold = 5;

/** Energy group of pair-production secondaries (0.511 MeV photons). */
constexpr unsigned pairGroup = 12;

/** Scaled (x1000) absorption probability per group: absorption grows
 *  as the photon loses energy. */
unsigned
absorbMil(unsigned group)
{
    return 120 + group * 14;
}

/** Scaled (x1000) pair-production probability per group. */
unsigned
pairMil(unsigned group)
{
    return group < pairThreshold ? 260 - group * 30 : 0;
}

/** Geometric escape probability per flight (x1000). */
constexpr unsigned escapeMil = 130;

} // namespace

GamtebResult
runGamteb(unsigned particles, tam::MachineConfig cfg)
{
    if (particles == 0)
        fatal("gamteb: need at least one source particle");

    Machine m(cfg);

    // Cross-section table: two I-structure entries per group.
    tam::ArrayRef xs = m.heapAlloc(2 * numGroups);

    // Tally cells, updated with Read + Write message pairs.
    tam::CellRef cell_escaped = m.cellAlloc(0);
    tam::CellRef cell_absorbed = m.cellAlloc(0);
    tam::CellRef cell_pairs = m.cellAlloc(0);
    tam::CellRef cell_collisions = m.cellAlloc(0);
    tam::CellRef cell_total = m.cellAlloc(0);

    // Photon frame layout.
    const unsigned slotGroup = 0, slotWeight = 1, slotSync = 2;
    const unsigned slotAbs = 3, slotPair = 4, slotCollisions = 5;
    const unsigned slotTallyTmp = 6, slotTallyCell = 7;

    auto photon_cb = std::make_unique<CodeBlock>();
    auto main_cb = std::make_unique<CodeBlock>();
    uint32_t main_frame_id = 0;

    photon_cb->name = "photon";
    photon_cb->numLocals = 8;
    CodeBlock *photon_ptr = photon_cb.get();

    // Inlet 0: birth (group, weight).
    photon_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(2);
            mm.frameSet(f, slotGroup, vals.at(0));
            mm.frameSet(f, slotWeight, vals.at(1));
            mm.frameSet(f, slotCollisions, 0);
            mm.fork(f, 0);
        });

    // Inlet 1/2: cross-section values arrive.
    for (unsigned e = 0; e < 2; ++e) {
        unsigned slot = e == 0 ? slotAbs : slotPair;
        photon_cb->inlets.push_back(
            [=](Machine &mm, Frame &f, const Payload &vals) {
                mm.move(1);
                mm.frameSet(f, slot, vals.at(0));
                mm.syncDec(f, slotSync, 1);
            });
    }

    // Inlet 3: tally read-modify-write: old value arrives, write back
    // the incremented tally, then finish dying (thread 2).
    photon_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &vals) {
            mm.move(1);
            mm.iop(1);
            tam::CellRef cell{static_cast<uint32_t>(
                mm.frameGet(f, slotTallyCell))};
            mm.remoteWrite(cell, vals.at(0) +
                                     mm.frameGet(f, slotTallyTmp));
            mm.fork(f, 2);
        });

    // Thread 0: fetch cross sections for the current group.
    photon_cb->threads.push_back([=](Machine &mm, Frame &f) {
        unsigned group = static_cast<unsigned>(
            mm.frameGet(f, slotGroup));
        mm.frameSet(f, slotSync, 2);
        mm.iop(1);
        mm.ifetch(xs, 2 * group, mm.cont(f, 1));
        mm.iop(1);
        mm.ifetch(xs, 2 * group + 1, mm.cont(f, 2));
    });

    // Thread 1: one collision / flight.
    photon_cb->threads.push_back([=, &main_frame_id](Machine &mm,
                                                     Frame &f) {
        mm.frameSet(f, slotCollisions,
                    mm.frameGet(f, slotCollisions) + 1);

        // Sample the flight distance (exponential) and the event.
        mm.fop(6);    // log, divide, compare against the boundary
        double u_esc = mm.rng().uniformDouble() * 1000.0;

        auto die = [&](tam::CellRef tally) {
            // Accumulate this photon's collision count, then the
            // tally read-modify-write (inlet 3 finishes the death).
            mm.iop(2);
            mm.frameSet(f, slotTallyTmp, 1);
            mm.frameSet(f, slotTallyCell, tally.id);
            mm.remoteRead(tally, mm.cont(f, 3));
        };

        if (u_esc < escapeMil) {
            die(cell_escaped);
            return;
        }

        double p_abs = mm.frameGet(f, slotAbs);
        double p_pair = mm.frameGet(f, slotPair);
        mm.fop(2);
        double u = mm.rng().uniformDouble() * 1000.0;

        if (u < p_abs) {
            die(cell_absorbed);
            return;
        }

        if (u < p_abs + p_pair) {
            // Pair production: two secondaries at 0.511 MeV.
            mm.iop(1);
            double w = mm.frameGet(f, slotWeight);
            mm.fop(1);
            for (int child = 0; child < 2; ++child) {
                Frame &cf = mm.falloc(photon_ptr);
                mm.send(mm.cont(cf, 0),
                        {static_cast<Value>(pairGroup), w / 2});
                // Tell main a particle was born.
                mm.send(mm.cont(mm.frame(main_frame_id), 0), {});
            }
            die(cell_pairs);
            return;
        }

        // Compton scatter: lose energy, keep tracking.
        mm.fop(4);    // scattering angle + energy update
        unsigned group = static_cast<unsigned>(
            mm.frameGet(f, slotGroup));
        group += 1 + (mm.rng().next32() & 1);
        if (group >= numGroups) {
            die(cell_absorbed);    // thermalized
            return;
        }
        mm.frameSet(f, slotGroup, static_cast<Value>(group));
        mm.fork(f, 0);
    });

    // Thread 2: finish dying -- flush the collision tally and report.
    photon_cb->threads.push_back([=, &main_frame_id](Machine &mm,
                                                     Frame &f) {
        // Collisions accumulate via a second read-modify-write pair,
        // done inline here (Read reply consumed immediately).
        mm.iop(1);
        mm.remoteWrite(cell_collisions,
                       mm.cellValue(cell_collisions) +
                           mm.frameGet(f, slotCollisions));
        // One death notification to main.
        mm.send(mm.cont(mm.frame(main_frame_id), 1), {});
        mm.ffree(f);
    });

    // ---- main ----
    main_cb->name = "gamteb_main";
    main_cb->numLocals = 2;     // [0] births, [1] deaths

    main_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &) {
            mm.iop(1);
            mm.frameSet(f, 0, mm.frameGet(f, 0) + 1);
            mm.remoteWrite(cell_total, mm.frameGet(f, 0));
        });
    main_cb->inlets.push_back(
        [=](Machine &mm, Frame &f, const Payload &) {
            mm.iop(1);
            mm.frameSet(f, 1, mm.frameGet(f, 1) + 1);
        });

    // Thread 0: spawn the source particles, then (LIFO: runs last)
    // thread 1 fills the cross-section table, so early fetches defer.
    main_cb->threads.push_back([=](Machine &mm, Frame &f) {
        mm.fork(f, 1);
        for (unsigned p = 0; p < particles; ++p) {
            Frame &pf = mm.falloc(photon_ptr);
            // Source spectrum: cycle over the high-energy groups.
            unsigned group = p % pairThreshold;
            mm.send(mm.cont(pf, 0),
                    {static_cast<Value>(group), 1.0});
            mm.send(mm.cont(f, 0), {});     // birth
        }
    });

    // Thread 1: initialize the cross-section table.
    main_cb->threads.push_back([=](Machine &mm, Frame &f) {
        (void)f;
        for (unsigned g = 0; g < numGroups; ++g) {
            mm.iop(1);
            mm.istore(xs, 2 * g, static_cast<Value>(absorbMil(g)));
            mm.iop(1);
            mm.istore(xs, 2 * g + 1, static_cast<Value>(pairMil(g)));
        }
    });

    Frame &main_frame = m.falloc(main_cb.get());
    main_frame_id = main_frame.id();
    m.fork(main_frame, 0);
    m.run();

    GamtebResult r;
    r.stats = m.stats();
    r.sourceParticles = particles;
    r.totalParticles = static_cast<uint64_t>(m.cellValue(cell_total));
    r.escaped = static_cast<uint64_t>(m.cellValue(cell_escaped));
    r.absorbed = static_cast<uint64_t>(m.cellValue(cell_absorbed));
    r.pairProductions =
        static_cast<uint64_t>(m.cellValue(cell_pairs));
    r.collisions =
        static_cast<uint64_t>(m.cellValue(cell_collisions));
    return r;
}

} // namespace apps
} // namespace tcpni

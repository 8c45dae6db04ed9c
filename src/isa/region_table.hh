/**
 * @file
 * Cost-region attribution for a processor's loaded programs.
 *
 * Every program word carries the `.region` its source line was tagged
 * with (Program::regionOf).  A processor model (Cpu, Hpu) keeps one
 * RegionTable: each loadProgram() adopts the program's regions for the
 * program's address range, and each executed instruction charges its
 * cycles and its retirement to the region of its address.  An address
 * outside every loaded program belongs to region "" (id 0).
 *
 * The table holds, per loaded program, its base address and a
 * per-word region-id array; a lookup scans the programs newest-first,
 * so where two loads overlap the later one wins.  A load drops every
 * older program it covers completely, so a processor that reloads the
 * same image keeps one entry, and the Table-1 harness's processors
 * hold one or two.
 */

#ifndef TCPNI_ISA_REGION_TABLE_HH
#define TCPNI_ISA_REGION_TABLE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "sim/types.hh"

namespace tcpni
{
namespace isa
{

class RegionTable
{
  public:
    /** Adopt @p prog's regions for its address range. */
    void load(const Program &prog);

    /** Region id of the word at @p addr (0: region ""). */
    uint16_t
    regionOf(Addr addr) const
    {
        for (auto it = programs_.rbegin(); it != programs_.rend(); ++it) {
            const Addr off = addr - it->base;
            if (addr >= it->base && off < it->ids.size() * 4 &&
                off % 4 == 0)
                return it->ids[off / 4];
        }
        return 0;
    }

    /** Charge @p n cycles to the region of address @p addr. */
    void chargeCycles(Addr addr, uint64_t n) { cycles_[regionOf(addr)] += n; }

    /** Count one instruction retired at address @p addr. */
    void countInstruction(Addr addr) { insts_[regionOf(addr)] += 1; }

    /** Zero every region's cycle and instruction counts. */
    void clearCounts();

    /** Cycles charged to each named region (nonzero ones only). */
    std::map<std::string, uint64_t> cycles() const;

    /** Instructions charged to each named region (nonzero ones). */
    std::map<std::string, uint64_t> instructions() const;

  private:
    /** One loaded program: ids[i] tags the word at base + 4 * i. */
    struct Loaded
    {
        Addr base;
        std::vector<uint16_t> ids;
    };

    /** Loaded programs, oldest first. */
    std::vector<Loaded> programs_;
    std::vector<std::string> names_{""};
    std::vector<uint64_t> cycles_{0};
    std::vector<uint64_t> insts_{0};
};

} // namespace isa
} // namespace tcpni

#endif // TCPNI_ISA_REGION_TABLE_HH

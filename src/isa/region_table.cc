#include "isa/region_table.hh"

#include <algorithm>

namespace tcpni
{
namespace isa
{

namespace
{

std::map<std::string, uint64_t>
byName(const std::vector<std::string> &names,
       const std::vector<uint64_t> &counts)
{
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < names.size(); ++i) {
        if (counts[i])
            out[names[i]] += counts[i];
    }
    return out;
}

} // namespace

void
RegionTable::load(const Program &prog)
{
    if (prog.words.empty())
        return;

    // Merge the program's region names into the table's.
    std::vector<uint16_t> remap(prog.regionNames.size());
    for (size_t i = 0; i < prog.regionNames.size(); ++i) {
        auto it = std::find(names_.begin(), names_.end(),
                            prog.regionNames[i]);
        if (it == names_.end()) {
            names_.push_back(prog.regionNames[i]);
            cycles_.push_back(0);
            insts_.push_back(0);
            it = names_.end() - 1;
        }
        remap[i] = static_cast<uint16_t>(it - names_.begin());
    }

    // The new program hides every word of an older one it covers
    // completely; such a program can never be looked up again.
    const Addr end = prog.base + prog.sizeBytes();
    std::erase_if(programs_, [&](const Loaded &old) {
        return old.base >= prog.base && (old.base - prog.base) % 4 == 0 &&
               old.base + old.ids.size() * 4 <= end;
    });

    Loaded &p = programs_.emplace_back();
    p.base = prog.base;
    p.ids.resize(prog.words.size());
    for (size_t i = 0; i < prog.words.size(); ++i)
        p.ids[i] = remap[prog.regionOf[i]];
}

void
RegionTable::clearCounts()
{
    std::fill(cycles_.begin(), cycles_.end(), 0);
    std::fill(insts_.begin(), insts_.end(), 0);
}

std::map<std::string, uint64_t>
RegionTable::cycles() const
{
    return byName(names_, cycles_);
}

std::map<std::string, uint64_t>
RegionTable::instructions() const
{
    return byName(names_, insts_);
}

} // namespace isa
} // namespace tcpni

/**
 * @file
 * The benchmark experiment definitions (Table 1, Figure 12, the
 * optimization ablation, the off-chip latency sensitivity, the
 * host-side performance bench, On-NI occupancy, collectives, scale
 * and serving), registered into the shared exp::ExperimentRegistry.
 * The `tcpni_bench` driver dispatches through this registry.
 */

#ifndef TCPNI_BENCH_EXPERIMENTS_HH
#define TCPNI_BENCH_EXPERIMENTS_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace tcpni
{
namespace bench
{

void registerTable1(exp::ExperimentRegistry &reg);
void registerFigure12(exp::ExperimentRegistry &reg);
void registerAblation(exp::ExperimentRegistry &reg);
void registerOffchipLatency(exp::ExperimentRegistry &reg);
void registerHostPerf(exp::ExperimentRegistry &reg);
void registerOnNi(exp::ExperimentRegistry &reg);
void registerCollective(exp::ExperimentRegistry &reg);
void registerScale(exp::ExperimentRegistry &reg);
void registerServe(exp::ExperimentRegistry &reg);

/**
 * How a BENCH_host.json section was produced, as a JSON object:
 * `git describe` of the source tree, build type, compiler, hardware
 * threads and the command line of @p experiment.
 */
std::string provenanceJson(const exp::Context &ctx,
                           const std::string &experiment);

/**
 * Parse a --sizes list: comma-separated decimal node counts, each in
 * [2, @p max_nodes].  Empty entries are skipped.  fatal()s, prefixed
 * with @p who, on a sign, a letter, an out-of-range count or an empty
 * list, before any machine is built.
 */
std::vector<unsigned> parseSizes(const std::string &csv, const char *who,
                                 unsigned max_nodes);

/** Sum of the cycles of the named cost @p keys in @p regions (absent
 *  regions count 0). */
uint64_t regionSum(const std::map<std::string, uint64_t> &regions,
                   std::initializer_list<const char *> keys);

/** Register every benchmark experiment. */
inline void
registerAll(exp::ExperimentRegistry &reg)
{
    registerTable1(reg);
    registerFigure12(reg);
    registerAblation(reg);
    registerOffchipLatency(reg);
    registerHostPerf(reg);
    registerOnNi(reg);
    registerCollective(reg);
    registerScale(reg);
    registerServe(reg);
}

} // namespace bench
} // namespace tcpni

#endif // TCPNI_BENCH_EXPERIMENTS_HH

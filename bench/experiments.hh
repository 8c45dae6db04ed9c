/**
 * @file
 * The benchmark experiment definitions (Table 1, Figure 12, the
 * optimization ablation, the off-chip latency sensitivity, and the
 * host-side performance bench), registered into the shared
 * exp::ExperimentRegistry.  The `tcpni_bench` driver and the thin
 * compatibility binaries (`table1`, `figure12`, ...) all dispatch
 * through this registry.
 */

#ifndef TCPNI_BENCH_EXPERIMENTS_HH
#define TCPNI_BENCH_EXPERIMENTS_HH

#include <string>

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

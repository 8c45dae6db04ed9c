/**
 * @file
 * The evaluation-model registry: one constant table of the nine
 * (placement, basic/optimized) models every experiment, test and
 * tcpni_lint draws from.
 *
 * The paper's six models (three placements x {basic, optimized}) come
 * first, in paperModels() order.  Three extensions follow: Section
 * 4.2.3's "far off-chip" variant (off-chip placement with load-use
 * delay 8) and the On-NI pair, whose handlers run on the interface's
 * HPU (src/hpu).  The paper's artifacts (table1, figure12) and
 * host_perf run the six; onni, collective and tcpni_lint run all
 * nine.
 */

#ifndef TCPNI_NI_MODEL_REGISTRY_HH
#define TCPNI_NI_MODEL_REGISTRY_HH

#include <array>
#include <string>
#include <vector>

#include "ni/config.hh"

namespace tcpni
{
namespace ni
{

/** One registry entry: canonical names plus the model they denote. */
struct ModelInfo
{
    std::string name;       //!< e.g. "Optimized Register Mapped"
    std::string shortName;  //!< e.g. "reg-opt" (CLI --model tag)
    std::string tableLabel; //!< e.g. "Opt Reg" (bench table column)
    Model model;
};

/** All nine models: the paper's six first, then faroff-opt,
 *  onni-basic and onni-opt. */
const std::vector<ModelInfo> &registeredModels();

/** Look up by name or shortName; nullptr when absent. */
const ModelInfo *findModel(const std::string &name_or_short);

/**
 * The paper's six models in the evaluation's canonical order
 * (optimized reg/on/off, then basic reg/on/off) -- the first six
 * entries of registeredModels(), and the fixed set the paper's
 * goldens are pinned to.
 */
const std::array<Model, 6> &paperModels();

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_MODEL_REGISTRY_HH

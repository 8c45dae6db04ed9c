#include "ni/config.hh"

#include "common/logging.hh"

namespace tcpni
{
namespace ni
{

void
NiConfig::validate() const
{
    if (inputQueueDepth == 0)
        fatal("NiConfig: inputQueueDepth must be nonzero");
    if (outputQueueDepth == 0)
        fatal("NiConfig: outputQueueDepth must be nonzero");
    if (inputThreshold > inputQueueDepth) {
        fatal("NiConfig: inputThreshold (%u) exceeds inputQueueDepth (%u); "
              "iafull would never raise", inputThreshold, inputQueueDepth);
    }
    if (outputThreshold > outputQueueDepth) {
        fatal("NiConfig: outputThreshold (%u) exceeds outputQueueDepth (%u); "
              "oafull would never raise", outputThreshold, outputQueueDepth);
    }

    // Transport knobs (src/transport): the policy name must resolve
    // in the policy table, the window must admit at least one in-flight
    // message, and the pacing rate must sit inside its AIMD bounds
    // (a rate outside [1, rateOne] would be "corrected" on the first
    // adaptation, silently ignoring the configuration).
    if (!transport::findPolicy(transport.policy)) {
        fatal("NiConfig: unknown transport policy '%s' (registered: "
              "%s)", transport.policy.c_str(),
              transport::policyNames().c_str());
    }
    if (transport.window < 1)
        fatal("NiConfig: transport.window must be >= 1");
    if (transport.paceRate < 1 || transport.paceRate > transport::rateOne) {
        fatal("NiConfig: transport.paceRate (%u) outside [1, %u]",
              transport.paceRate, transport::rateOne);
    }
    if (transport.paceBurst < 1)
        fatal("NiConfig: transport.paceBurst must be >= 1");
    if (transport.paceAiStep < 1 || transport.paceAiInterval < 1) {
        fatal("NiConfig: transport.paceAiStep and paceAiInterval must "
              "be >= 1");
    }
    if (transport.paceAiHoldoff < 1)
        fatal("NiConfig: transport.paceAiHoldoff must be >= 1");
}

std::string
Model::name() const
{
    return std::string(optimized ? "Optimized " : "Basic ") +
           policy().name;
}

std::string
Model::shortName() const
{
    return std::string(policy().shortName) +
           (optimized ? "-opt" : "-basic");
}

} // namespace ni
} // namespace tcpni

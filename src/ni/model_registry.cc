#include "ni/model_registry.hh"

namespace tcpni
{
namespace ni
{

namespace
{

/** The entry of a model named after its placement row. */
ModelInfo
entry(const Model &m)
{
    return {m.name(), m.shortName(),
            (m.optimized ? "Opt " : "Basic ") +
                std::string(m.policy().columnLabel),
            m};
}

} // namespace

const std::vector<ModelInfo> &
registeredModels()
{
    static const std::vector<ModelInfo> models = {
        entry({Placement::registerFile, true}),
        entry({Placement::onChipCache, true}),
        entry({Placement::offChipCache, true}),
        entry({Placement::registerFile, false}),
        entry({Placement::onChipCache, false}),
        entry({Placement::offChipCache, false}),
        // Section 4.2.3's far off-chip variant: same off-chip
        // placement row, load-use delay raised from 2 to 8 cycles.
        {"Optimized Far Off-chip", "faroff-opt", "Opt Far-off",
         Model{Placement::offChipCache, true}.withOffchipDelay(8)},
        // On-NI handler execution (src/hpu): handlers run on the
        // interface's HPU, so dispatching and processing cycles leave
        // the CPU load-use path entirely.
        entry({Placement::onNi, false}),
        entry({Placement::onNi, true}),
    };
    return models;
}

const ModelInfo *
findModel(const std::string &name_or_short)
{
    for (const ModelInfo &e : registeredModels()) {
        if (e.name == name_or_short || e.shortName == name_or_short)
            return &e;
    }
    return nullptr;
}

const std::array<Model, 6> &
paperModels()
{
    static const std::array<Model, 6> models = [] {
        std::array<Model, 6> six;
        for (size_t i = 0; i < six.size(); ++i)
            six[i] = registeredModels()[i].model;
        return six;
    }();
    return models;
}

} // namespace ni
} // namespace tcpni

/**
 * @file
 * Every kernel the repository assembles, pinned word for word: for
 * each registered model, one FNV-1a hash per kernelCorpus() job and
 * one for the On-NI host proxy (hostProxyProgram).
 *
 * A hash covers the load address, every assembled word, the per-word
 * region ids and the region-name table, and the addresses of the
 * labels harnesses read: `entry`, `h_send0..2`, `hb_send2` and the
 * collective marker (`h_barup` on optimized models, `hb_barup` on
 * basic ones).  Source comments, blank lines and internal label names
 * do not enter, so a kernel source may be restructured freely as long
 * as the machine code it produces stays the same.  The load-use notes'
 * source lines are pinned separately by tests/golden/lint.json.
 *
 * A re-pin changes what a kernel executes, so every simulated number
 * downstream of it moves: state the reason in the commit.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "../system/fnv1a.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"

using namespace tcpni;

namespace
{

uint64_t
kernelHash(const ni::Model &model, const std::string &src)
{
    isa::Program p = msg::assembleKernel(src);
    std::ostringstream os;
    os << std::hex << "base " << p.base << "\n";
    for (size_t i = 0; i < p.words.size(); ++i)
        os << p.words[i] << " " << p.regionOf[i] << "\n";
    for (const auto &name : p.regionNames)
        os << "region " << name << "\n";
    const char *labels[] = {
        "entry", "h_send0", "h_send1", "h_send2", "hb_send2",
        model.optimized ? "h_barup" : "hb_barup",
    };
    for (const char *l : labels) {
        auto it = p.symbols.find(l);
        os << l << " ";
        if (it == p.symbols.end())
            os << "-\n";
        else
            os << it->second << "\n";
    }
    return fnv1a(os.str());
}

/** model short name -> job name -> hash, recorded from the
 *  hand-written kernels before their sources were merged, except the
 *  cache-mapped optimized handlers-collective sets (on-opt, off-opt,
 *  faroff-opt): same words, re-pinned to charge coll_barup_up,
 *  coll_out and coll_red_up, which follow a mid-handler `jmp msgip`,
 *  to processing. */
const std::map<std::string, std::map<std::string, uint64_t>> pinned = {
    {"reg-opt", {
        {"handlers", 0x7c8a2474d45b4ecdULL},
        {"handlers-collective", 0xfdb6903cbb4b980bULL},
        {"send-PRead", 0xdb86b44665b994e7ULL},
        {"send-PWrite", 0x52b21aa6cb588ba3ULL},
        {"send-Read", 0x46486c58df984375ULL},
        {"send-Send (0 words)", 0xc800ccaeffb82c67ULL},
        {"send-Send (1 word)", 0x847daf1da890b2f3ULL},
        {"send-Send (2 words)", 0xdc7e42661ed1d1a6ULL},
        {"send-Write", 0xe4829b3f14af16f0ULL},
        {"send-collective", 0xb964e0da642ae247ULL},
    }},
    {"on-opt", {
        {"handlers", 0x669074b98b45b2a5ULL},
        {"handlers-collective", 0x237e91372e07f93ULL},
        {"handlers-no-overlap", 0xbb032a9a2b4f9145ULL},
        {"send-PRead", 0xb02fa85eb55880f5ULL},
        {"send-PWrite", 0xb85af746da24a7d8ULL},
        {"send-Read", 0xec9c88c8551f07c2ULL},
        {"send-Send (0 words)", 0x845671af1ba23276ULL},
        {"send-Send (1 word)", 0x5c05171f69f03e06ULL},
        {"send-Send (2 words)", 0xdd598da75808c288ULL},
        {"send-Write", 0x721c7fcae4d25da1ULL},
        {"send-collective", 0x1d3942300acc96d1ULL},
    }},
    {"off-opt", {
        {"handlers", 0x669074b98b45b2a5ULL},
        {"handlers-collective", 0x237e91372e07f93ULL},
        {"handlers-no-overlap", 0xbb032a9a2b4f9145ULL},
        {"send-PRead", 0xb02fa85eb55880f5ULL},
        {"send-PWrite", 0xb85af746da24a7d8ULL},
        {"send-Read", 0xec9c88c8551f07c2ULL},
        {"send-Send (0 words)", 0x845671af1ba23276ULL},
        {"send-Send (1 word)", 0x5c05171f69f03e06ULL},
        {"send-Send (2 words)", 0xdd598da75808c288ULL},
        {"send-Write", 0x721c7fcae4d25da1ULL},
        {"send-collective", 0x1d3942300acc96d1ULL},
    }},
    {"reg-basic", {
        {"handlers", 0x8dafc5f5b49784ffULL},
        {"handlers-collective", 0x4f61ccac8860054cULL},
        {"handlers-sw-checks", 0xfb2c6610ccc95855ULL},
        {"send-PRead", 0x85b9ab0a662bca43ULL},
        {"send-PWrite", 0x56bb292788964edaULL},
        {"send-Read", 0x40f0d493e1cca8c4ULL},
        {"send-Send (0 words)", 0x71d20406d8eac84ULL},
        {"send-Send (1 word)", 0x57700428d311877dULL},
        {"send-Send (2 words)", 0x8bebdbaa63d90d0aULL},
        {"send-Write", 0x4edc2cde878193c7ULL},
        {"send-collective", 0x9864e3d6b1a81cd6ULL},
    }},
    {"on-basic", {
        {"handlers", 0xe8611f614779111bULL},
        {"handlers-collective", 0x205379596afbe47eULL},
        {"handlers-sw-checks", 0x21c3155a4d2479fdULL},
        {"send-PRead", 0xc26b8dec9d94dc0aULL},
        {"send-PWrite", 0x311ddc22fa610917ULL},
        {"send-Read", 0xab09a215b307013fULL},
        {"send-Send (0 words)", 0x714c7a220a0d76fULL},
        {"send-Send (1 word)", 0x7d84424f8ea6bcf4ULL},
        {"send-Send (2 words)", 0x37c563eb7534d505ULL},
        {"send-Write", 0x4e796e281de8bea2ULL},
        {"send-collective", 0xf95d62abdc92fe7bULL},
    }},
    {"off-basic", {
        {"handlers", 0xe8611f614779111bULL},
        {"handlers-collective", 0x205379596afbe47eULL},
        {"handlers-sw-checks", 0x21c3155a4d2479fdULL},
        {"send-PRead", 0xc26b8dec9d94dc0aULL},
        {"send-PWrite", 0x311ddc22fa610917ULL},
        {"send-Read", 0xab09a215b307013fULL},
        {"send-Send (0 words)", 0x714c7a220a0d76fULL},
        {"send-Send (1 word)", 0x7d84424f8ea6bcf4ULL},
        {"send-Send (2 words)", 0x37c563eb7534d505ULL},
        {"send-Write", 0x4e796e281de8bea2ULL},
        {"send-collective", 0xf95d62abdc92fe7bULL},
    }},
    {"faroff-opt", {
        {"handlers", 0x669074b98b45b2a5ULL},
        {"handlers-collective", 0x237e91372e07f93ULL},
        {"handlers-no-overlap", 0xbb032a9a2b4f9145ULL},
        {"send-PRead", 0xb02fa85eb55880f5ULL},
        {"send-PWrite", 0xb85af746da24a7d8ULL},
        {"send-Read", 0xec9c88c8551f07c2ULL},
        {"send-Send (0 words)", 0x845671af1ba23276ULL},
        {"send-Send (1 word)", 0x5c05171f69f03e06ULL},
        {"send-Send (2 words)", 0xdd598da75808c288ULL},
        {"send-Write", 0x721c7fcae4d25da1ULL},
        {"send-collective", 0x1d3942300acc96d1ULL},
    }},
    {"onni-basic", {
        {"handlers", 0xf944b0de0ab9d7ddULL},
        {"handlers-collective", 0xc640357e35ae1db4ULL},
        {"handlers-sw-checks", 0xa31136efcd07e33dULL},
        {"host-proxy", 0x11064d60ddf1f4f1ULL},
        {"send-PRead", 0xc26b8dec9d94dc0aULL},
        {"send-PWrite", 0x311ddc22fa610917ULL},
        {"send-Read", 0xab09a215b307013fULL},
        {"send-Send (0 words)", 0x714c7a220a0d76fULL},
        {"send-Send (1 word)", 0x7d84424f8ea6bcf4ULL},
        {"send-Send (2 words)", 0x37c563eb7534d505ULL},
        {"send-Write", 0x4e796e281de8bea2ULL},
        {"send-collective", 0xf95d62abdc92fe7bULL},
    }},
    {"onni-opt", {
        {"handlers", 0x2f1feead84c72611ULL},
        {"handlers-collective", 0x4d63a1ef933f56cbULL},
        {"host-proxy", 0x82773fe272d2e9c4ULL},
        {"send-PRead", 0xb02fa85eb55880f5ULL},
        {"send-PWrite", 0xb85af746da24a7d8ULL},
        {"send-Read", 0xec9c88c8551f07c2ULL},
        {"send-Send (0 words)", 0x845671af1ba23276ULL},
        {"send-Send (1 word)", 0x5c05171f69f03e06ULL},
        {"send-Send (2 words)", 0xdd598da75808c288ULL},
        {"send-Write", 0x721c7fcae4d25da1ULL},
        {"send-collective", 0x1d3942300acc96d1ULL},
    }},
};

} // namespace

TEST(KernelPin, EveryKernelOfEveryModel)
{
    for (const auto &mi : ni::registeredModels()) {
        std::map<std::string, std::string> jobs;
        for (const auto &job : msg::kernelCorpus(mi.model))
            jobs[job.name] = job.source;
        if (mi.model.policy().handlersOnNi)
            jobs["host-proxy"] = msg::hostProxyProgram(mi.model);

        auto model_it = pinned.find(mi.shortName);
        for (const auto &[name, src] : jobs) {
            uint64_t got = kernelHash(mi.model, src);
            bool known = model_it != pinned.end() &&
                         model_it->second.count(name);
            EXPECT_TRUE(known && model_it->second.at(name) == got)
                << mi.shortName << " / " << name << ": hash 0x"
                << std::hex << got << " is not the pinned one";
        }
        if (model_it != pinned.end()) {
            EXPECT_EQ(model_it->second.size(), jobs.size())
                << mi.shortName << ": the corpus gained or lost a job";
        }
    }
    EXPECT_EQ(pinned.size(), ni::registeredModels().size());
}

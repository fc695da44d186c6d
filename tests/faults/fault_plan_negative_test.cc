/**
 * @file
 * Negative tests for `faults.*` configuration: every malformed or
 * out-of-range value and every key the plan does not read must land in
 * the documented error taxonomy — the fatal() message names the
 * offending key — rather than a generic throw, a silently clamped plan
 * or a silently ignored knob.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "faults/fault_plan.hh"
#include "util/config.hh"

using namespace cchunter;

namespace
{

template <typename Fn>
std::string
fatalMessageOf(Fn&& fn)
{
    try {
        fn();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(FaultPlanNegativeTest, EveryRateKeyRejectsOutOfRangeValues)
{
    const char* keys[] = {
        "faults.drop_quantum",  "faults.dup_quantum",
        "faults.truncate_batch", "faults.reorder_batch",
        "faults.corrupt_context", "faults.bloom_alias",
    };
    for (const char* key : keys) {
        for (const double bad : {-0.01, 1.01, 7.0}) {
            Config cfg;
            cfg.set(key, bad);
            const std::string msg = fatalMessageOf(
                [&] { FaultPlan::fromConfig(cfg); });
            EXPECT_NE(msg.find("outside [0, 1]"), std::string::npos)
                << key << " = " << bad << " got: " << msg;
            // The message names the short key so the operator can
            // find the bad entry (the "faults." prefix is implied).
            const std::string shortName =
                std::string(key).substr(std::string("faults.").size());
            EXPECT_NE(msg.find(shortName), std::string::npos)
                << key << " got: " << msg;
        }
    }
}

TEST(FaultPlanNegativeTest, NonNumericRateIsATypeError)
{
    Config cfg;
    cfg.set("faults.drop_quantum", std::string("lots"));
    const std::string msg =
        fatalMessageOf([&] { FaultPlan::fromConfig(cfg); });
    EXPECT_NE(msg.find("is not a number"), std::string::npos) << msg;
    EXPECT_NE(msg.find("faults.drop_quantum"), std::string::npos)
        << msg;
}

TEST(FaultPlanNegativeTest, NonBooleanSaturateIsATypeError)
{
    Config cfg;
    cfg.set("faults.saturate", std::string("kinda"));
    const std::string msg =
        fatalMessageOf([&] { FaultPlan::fromConfig(cfg); });
    EXPECT_NE(msg.find("is not a boolean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("faults.saturate"), std::string::npos) << msg;
}

TEST(FaultPlanNegativeTest, BoundaryRatesAreAccepted)
{
    // 0 and 1 are valid probabilities; the taxonomy must not
    // over-reject the closed interval's endpoints.
    Config cfg;
    cfg.set("faults.drop_quantum", 0.0);
    cfg.set("faults.bloom_alias", 1.0);
    const FaultPlan plan = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(plan.dropQuantumRate, 0.0);
    EXPECT_EQ(plan.bloomAliasRate, 1.0);
    EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanNegativeTest, UnreadKeyIsFatalAndNamesTheReadKeys)
{
    // A retired knob (faults.corrupt_batch, the snapshot-byte rates no
    // run ever drew from) or a misspelt one must stop the run rather
    // than leave it silently clean; keys outside the faults.*
    // namespace belong to other parsers and pass through.
    for (const char* key :
         {"faults.corrupt_batch", "faults.snap_bit_flip",
          "faults.snap_truncate", "faults.snap_clobber_magic",
          "faults.drop_quanta"}) {
        Config cfg;
        cfg.set(key, 0.5);
        cfg.set("evasion.strategy", std::string("gaps"));
        const std::string msg =
            fatalMessageOf([&] { FaultPlan::fromConfig(cfg); });
        EXPECT_NE(msg.find(std::string("unknown key '") + key + "'"),
                  std::string::npos)
            << msg;
        for (const char* read :
             {"faults.seed", "faults.drop_quantum", "faults.saturate",
              "faults.bloom_alias"})
            EXPECT_NE(msg.find(read), std::string::npos)
                << read << " got: " << msg;
    }
    Config other;
    other.set("evasion.strategy", std::string("gaps"));
    EXPECT_FALSE(FaultPlan::fromConfig(other).enabled());
}

TEST(FaultPlanNegativeTest, RoundTripThroughConfigIsLossless)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.dropQuantumRate = 0.25;
    plan.bloomAliasRate = 0.125;
    plan.saturatePaperWidths = true;
    plan.corruptContextRate = 0.5;
    plan.reorderBatchRate = 0.0625;
    plan.truncateBatchRate = 0.03125;
    Config cfg;
    plan.toConfig(cfg);
    const FaultPlan back = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(back.seed, 42u);
    EXPECT_EQ(back.dropQuantumRate, 0.25);
    EXPECT_EQ(back.bloomAliasRate, 0.125);
    EXPECT_TRUE(back.saturatePaperWidths);
    EXPECT_EQ(back.corruptContextRate, 0.5);
    EXPECT_EQ(back.reorderBatchRate, 0.0625);
    EXPECT_EQ(back.truncateBatchRate, 0.03125);
}

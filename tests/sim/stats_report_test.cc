#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/machine.hh"
#include "sim/stats_report.hh"

namespace cchunter
{
namespace
{

class MixWorkload : public Workload
{
  public:
    Action
    nextAction(const ExecView&) override
    {
        switch (i_++ % 4) {
          case 0:
            return Action::read(0x1000 + (i_ % 64) * 64);
          case 1:
            return Action::divideBatch(4);
          case 2:
            return Action::multiplyBatch(4);
          default:
            return Action::compute(100);
        }
    }

    std::string name() const override { return "mix"; }

  private:
    std::uint64_t i_ = 0;
};

MachineParams
smallMachine()
{
    MachineParams p;
    p.mem.l1 = CacheGeometry{1024, 2, 64};
    p.mem.l2 = CacheGeometry{4096, 2, 64};
    p.scheduler.quantum = 100000;
    return p;
}

TEST(StatsReportTest, CollectsAllComponentCounters)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<MixWorkload>(), 0);
    m.runQuanta(2);

    const auto stats = collectMachineStats(m);
    auto find = [&](const std::string& name) -> double {
        for (const auto& e : stats)
            if (e.name == name)
                return e.value;
        ADD_FAILURE() << "missing stat " << name;
        return -1.0;
    };
    EXPECT_GT(find("sim.ticks"), 0.0);
    EXPECT_DOUBLE_EQ(find("sched.quanta"), 2.0);
    EXPECT_GT(find("core0.divider.ops"), 0.0);
    EXPECT_GT(find("core0.multiplier.ops"), 0.0);
    EXPECT_GT(find("ctx0.l1.hits") + find("ctx0.l1.misses"), 0.0);
    EXPECT_GE(find("bus.transfers"), 1.0);
    EXPECT_DOUBLE_EQ(find("bus.throttled_locks"), 0.0);
}

TEST(StatsReportTest, DumpRendersEveryEntry)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<MixWorkload>(), 0);
    m.runQuanta(1);
    std::ostringstream os;
    dumpMachineStats(m, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("sim.ticks"), std::string::npos);
    EXPECT_NE(s.find("core3.l2.misses"), std::string::npos);
    EXPECT_NE(s.find("# L2 misses"), std::string::npos);
}

TEST(StatsReportTest, ProcessTableListsProcesses)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<MixWorkload>(), 0);
    m.addProcess(std::make_unique<MixWorkload>(), 1);
    m.runQuanta(1);
    std::ostringstream os;
    dumpProcessStats(m, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("mix"), std::string::npos);
    EXPECT_NE(s.find("busy cycles"), std::string::npos);
}

TEST(StatsReportTest, EmptyMachineStillReports)
{
    Machine m(smallMachine());
    std::ostringstream os;
    EXPECT_NO_THROW(dumpMachineStats(m, os));
    EXPECT_NO_THROW(dumpProcessStats(m, os));
}

TEST(StatsReportTest, DumpStatEntriesRendersTitleAndValues)
{
    std::ostringstream os;
    dumpStatEntries({{"pipe.count", 42.0, "an integral counter"},
                     {"pipe.mean", 1.5, "a fractional value"}},
                    os, "pipeline");
    const std::string s = os.str();
    EXPECT_NE(s.find("---------- pipeline ----------"),
              std::string::npos);
    EXPECT_NE(s.find("pipe.count"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("1.500"), std::string::npos);
    EXPECT_NE(s.find("# an integral counter"), std::string::npos);
}

TEST(StatsReportTest, DumpStatEntriesOmitsEmptyTitle)
{
    std::ostringstream os;
    dumpStatEntries({{"x", 1.0, "d"}}, os);
    EXPECT_EQ(os.str().find("----------"), std::string::npos);
}

TEST(StatsReportTest, ParseRoundTripsNestedPrefixHierarchy)
{
    // Two-level prefix groups (fleet.shardN.*) alongside flat names,
    // an integral counter, a fractional value, and a name wider than
    // the 28-character name column.
    const std::vector<StatEntry> entries = {
        {"fleet.tenants", 16.0, "tenant machines in the plan"},
        {"fleet.shard0.tenants", 8.0, "tenants on shard 0"},
        {"fleet.shard0.recovered", 3.0, "tenants restored"},
        {"fleet.shard1.tenants", 8.0, "tenants on shard 1"},
        {"fleet.shard1.latencyMeanUs.analysis", 12.625,
         "mean analysis latency"},
        {"fleet.incidents.critical", 2.0, "critical incidents"},
    };
    std::ostringstream os;
    dumpStatEntries(entries, os, "fleet audit");

    std::istringstream is(os.str());
    const auto parsed = parseStatEntries(is);
    ASSERT_EQ(parsed.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(parsed[i].name, entries[i].name);
        EXPECT_DOUBLE_EQ(parsed[i].value, entries[i].value);
        EXPECT_EQ(parsed[i].description, entries[i].description);
    }
}

TEST(StatsReportTest, ParseSkipsTitlesAndBlankLines)
{
    std::istringstream is(
        "---------- section one ----------\n"
        "a.b                                         1  # first\n"
        "\n"
        "---------- section two ----------\n"
        "a.c                                     2.500  # second\n");
    const auto parsed = parseStatEntries(is);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name, "a.b");
    EXPECT_DOUBLE_EQ(parsed[0].value, 1.0);
    EXPECT_EQ(parsed[0].description, "first");
    EXPECT_EQ(parsed[1].name, "a.c");
    EXPECT_DOUBLE_EQ(parsed[1].value, 2.5);
    EXPECT_EQ(parsed[1].description, "second");
}

TEST(StatsReportTest, ParseOfMachineDumpMatchesCollected)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<MixWorkload>(), 0);
    m.runQuanta(1);

    const auto collected = collectMachineStats(m);
    std::ostringstream os;
    dumpStatEntries(collected, os, "machine statistics");
    std::istringstream is(os.str());
    const auto parsed = parseStatEntries(is);

    ASSERT_EQ(parsed.size(), collected.size());
    for (std::size_t i = 0; i < collected.size(); ++i) {
        EXPECT_EQ(parsed[i].name, collected[i].name);
        // The dump renders fractional values at three decimals, so
        // the round trip is exact for counters and 1e-3-close
        // otherwise.
        EXPECT_NEAR(parsed[i].value, collected[i].value, 5e-4);
    }
}

} // namespace
} // namespace cchunter

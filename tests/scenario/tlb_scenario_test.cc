#include <gtest/gtest.h>

#include "channels/prime_probe.hh"
#include "scenario/experiment.hh"

namespace cchunter
{
namespace
{

/** Small quanta keep integration tests fast while still giving the
 *  correlogram a few hundred oscillation periods per bit. */
ScenarioOptions
tlbOptions()
{
    ScenarioOptions opts;
    opts.quantum = 2500000; // 1 ms
    opts.quanta = 12;
    opts.bandwidthBps = 1000.0; // one bit per quantum
    opts.noiseProcesses = 3;
    return opts;
}

OnlineAuditOptions
tlbAudit(const ScenarioOptions& scenario)
{
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::Tlb;
    options.scenario = scenario;
    return options;
}

TEST(TlbScenarioTest, DetectsOscillationAndDecodes)
{
    AuditRun run(tlbAudit(tlbOptions()));
    run.run();
    const OnlineAuditResult r = run.result();
    EXPECT_TRUE(r.finalVerdicts[0].oscillation.detected);
    EXPECT_FALSE(run.daemon().conflictRecords(0).empty());
    EXPECT_FALSE(dynamic_cast<const PrimeProbeSpy&>(*run.spy()).ratios().empty());
    EXPECT_GT(run.machine().mem().tlb(0).conflicts(), 0u);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.2);
    // No protocol: the wire is the payload and both error rates agree.
    EXPECT_EQ(run.wire().toString(), run.payload().toString());
    EXPECT_DOUBLE_EQ(r.channel.payloadBitErrorRate,
                     r.channel.wireBitErrorRate);
    EXPECT_EQ(r.channel.protocolStats.frames, 0u);
}

TEST(TlbScenarioTest, ProtocolCodingRecoversThePayload)
{
    ScenarioOptions opts = tlbOptions();
    opts.protocol.enabled = true;
    // One byte of payload codes to a single 96-bit wire burst; at ten
    // bits per quantum the run covers the whole burst with room to
    // spare, so the receiver's link layer can resynchronize and vote.
    opts.message = Message::fromBits(
        {true, false, true, true, false, false, true, false});
    opts.bandwidthBps = 10000.0;
    AuditRun run(tlbAudit(opts));
    run.run();
    const OnlineAuditResult r = run.result();
    EXPECT_TRUE(r.finalVerdicts[0].oscillation.detected);
    // The wire burst is longer than the payload (preamble + repeats +
    // parity + gap) and the spy decodes it back through the protocol.
    EXPECT_EQ(run.wire().size(), opts.protocol.burstBits());
    EXPECT_GT(run.wire().size(), run.payload().size());
    EXPECT_GT(r.channel.protocolStats.frames, 0u);
    EXPECT_LE(r.channel.payloadBitErrorRate, r.channel.wireBitErrorRate);
    EXPECT_LT(r.channel.payloadBitErrorRate, 0.05);
}

TEST(TlbScenarioTest, DeterministicForSeed)
{
    ScenarioOptions opts = tlbOptions();
    opts.quanta = 6;
    AuditRun a(tlbAudit(opts));
    AuditRun b(tlbAudit(opts));
    a.run();
    b.run();
    EXPECT_EQ(a.spy()->decoded().toString(), b.spy()->decoded().toString());
    EXPECT_EQ(a.daemon().labelSeries(0), b.daemon().labelSeries(0));
    EXPECT_EQ(a.machine().mem().tlb(0).conflicts(),
              b.machine().mem().tlb(0).conflicts());
}

TEST(TlbOnlineAuditTest, TlbWorkloadJudgedByOscillationPath)
{
    const OnlineAuditResult r = runOnlineAudit(tlbAudit(tlbOptions()));
    ASSERT_EQ(r.finalVerdicts.size(), 1u);
    const UnitOutcome& outcome = r.finalVerdicts[0];
    EXPECT_EQ(outcome.unit, MonitorTarget::Tlb);
    EXPECT_EQ(outcome.kind, AlarmKind::Oscillation);
    EXPECT_TRUE(outcome.detected);
    EXPECT_GT(r.quantaRecorded, 0u);
}

TEST(TlbOnlineAuditTest, BenignPairUnderTlbAuditStaysQuiet)
{
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::BenignPair;
    options.benignUnits = BenignAuditUnits::TlbBus;
    options.scenario = tlbOptions();
    options.scenario.quanta = 8;
    const OnlineAuditResult r = runOnlineAudit(options);
    ASSERT_EQ(r.finalVerdicts.size(), 2u);
    EXPECT_EQ(r.finalVerdicts[0].unit, MonitorTarget::Tlb);
    EXPECT_EQ(r.finalVerdicts[1].unit, MonitorTarget::MemoryBus);
    for (const UnitOutcome& outcome : r.finalVerdicts)
        EXPECT_FALSE(outcome.detected)
            << monitorTargetName(outcome.unit);
    EXPECT_TRUE(r.alarms.empty());
}

TEST(TlbScenarioConfigTest, EchoesTlbAndProtocolKeys)
{
    ScenarioOptions opts = tlbOptions();
    const Config plain = scenarioConfig(opts);
    // The TLB-geometry key is part of every run's reproducibility
    // record; the protocol keys appear only when the adversary is on,
    // keeping older runs' config dumps byte-identical.
    EXPECT_EQ(plain.getUint("tlb_sets"), opts.tlbChannelSets);
    EXPECT_FALSE(plain.has("protocol.enabled"));

    opts.protocol.enabled = true;
    const Config coded = scenarioConfig(opts);
    EXPECT_TRUE(coded.getBool("protocol.enabled"));
    EXPECT_EQ(coded.getUint("protocol.frame_nibbles"),
              opts.protocol.frameNibbles);
    EXPECT_EQ(coded.getUint("protocol.repeats"),
              opts.protocol.repeats);
    EXPECT_EQ(coded.getUint("protocol.ack_gap_bits"),
              opts.protocol.ackGapBits);
}

} // namespace
} // namespace cchunter

/**
 * @file
 * Canned experiment scenarios reproducing the paper's evaluation setup:
 * a quad-core SMT machine at 2.5 GHz, a trojan/spy pair on one shared
 * resource, at least three other active processes for interference, the
 * CC-Auditor programmed on the attacked unit, and the software daemon
 * recording each OS time quantum.
 */

#ifndef CCHUNTER_SCENARIO_EXPERIMENT_HH
#define CCHUNTER_SCENARIO_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "auditor/daemon.hh"
#include "channels/channel_spy.hh"
#include "channels/evasion.hh"
#include "channels/message.hh"
#include "channels/protocol.hh"
#include "detect/detector.hh"
#include "detect/indicator2.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "mitigate/response_plan.hh"
#include "sim/machine.hh"
#include "units/unit_registry.hh"
#include "util/config.hh"
#include "util/types.hh"

namespace cchunter
{

/** Options common to all channel scenarios. */
struct ScenarioOptions
{
    double bandwidthBps = 10.0;
    std::size_t quanta = 4;          //!< OS time quanta to simulate
    Tick quantum = defaultQuantumTicks;
    std::uint64_t seed = 1;
    unsigned noiseProcesses = 3;     //!< paper: at least three
    double noiseIntensity = 1.0;     //!< background activity scaling
    Message message;                 //!< empty selects random64(seed)
    /**
     * Per-bit signalling window cap; 0 selects the default of
     * min(bit slot, 25 M cycles = 10 ms), so low-bandwidth bits signal
     * briefly and lie dormant (paper section VI-A).
     */
    Tick maxSignalTicks = 0;

    // Cache-channel specific.
    std::size_t channelSets = 512;   //!< sets across G1 and G0
    std::size_t cacheNoiseEvery = 24; //!< spy "surrounding code" noise
    std::size_t linesPerSet = 1;
    Tick cacheDormantNoiseGap = 0;   //!< spy cover-program noise period
    /**
     * Prime/probe rounds per bit; 0 selects automatically from the
     * signal window (one round per ~800k cycles, at most 64) so that
     * even a single low-bandwidth bit yields many oscillation periods.
     */
    std::size_t cacheRoundsPerBit = 0;

    /** Rounds actually used for a given signal window. */
    std::size_t effectiveCacheRounds() const;

    // TLB-channel specific.
    std::size_t tlbChannelSets = 32; //!< TLB sets across G1 and G0

    /**
     * Link-layer protocol adversary (channels/protocol.hh): when
     * enabled, the transmitted wire message is the protocol-coded
     * payload — preamble synchronization, frame retransmission and
     * Hamming(7,4) ECC — for *any* channel workload.  Disabled by
     * default, leaving runs bit-identical to raw-payload output.
     */
    ProtocolParams protocol;

    /**
     * Evasive transmission schedule (channels/evasion.hh), shared by
     * both ends of the pair through ChannelTiming.  The default (None)
     * plan leaves every run bit-identical to the classic schedule;
     * enabling a strategy is how the detection-quality corpus builds
     * its labelled evasive positives.
     */
    EvasionPlan evasion;

    /** Audit the L2 with the ideal LRU-stack tracker instead of the
     *  practical generation/bloom scheme (ablation studies). */
    bool idealTracker = false;

    /** Parameters of the practical tracker (bloom sizing etc.). */
    ConflictTrackerParams trackerParams;

    /** Bus-trojan decoy-lock spacing for evasion experiments
     *  (0 = no evasion attempt). */
    Cycles busEvasionPeriod = 0;

    /**
     * Deterministic fault-injection plan (robustness studies).  All
     * rates default to zero, which leaves the run bit-identical to an
     * uninstrumented one — no injector is even constructed.
     */
    FaultPlan faults;

    /**
     * Decision cut-offs for both analysis paths, defaulted to the
     * paper's values (0.5 likelihood ratio; published oscillation
     * peaks).  Default thresholds leave runs bit-identical to the
     * pre-parameterisation harness; the detection-quality subsystem
     * sweeps them for ROC curves.
     */
    DetectionThresholds thresholds;

    /**
     * The response axis: a mitigation plan engaged from the start of
     * the run (mitigate/response_plan.hh).  Observe, the default,
     * leaves runs bit-identical to the pre-response harness; the other
     * rungs are how the respond subsystem measures residual channel
     * bandwidth and benign performance tax under each ladder level.
     */
    ResponsePlan response;

    /** Effective signal window for the configured bandwidth. */
    Tick effectiveSignalTicks() const;
};

/**
 * The effective configuration of a scenario as a Config, for echoing
 * into logs (Config::dump()) so any run is reproducible from its
 * output alone.
 */
Config scenarioConfig(const ScenarioOptions& options);

/** Expected bit values for the first n transmitted slots. */
Message expectedBits(const Message& sent, std::size_t n);

/** BER between sent (cyclic) and the spy's slot-indexed decodes. */
double slotBitErrorRate(
    const Message& sent,
    const std::vector<std::pair<std::size_t, bool>>& decoded);

// AuditedWorkload, BenignAuditUnits and the workload name maps now
// live with the unit registry (units/unit_registry.hh): the scenario
// layer looks descriptors up instead of switching on the enum.

/** Options of one live-audited (online-analysis) run. */
struct OnlineAuditOptions
{
    AuditedWorkload workload = AuditedWorkload::Divider;
    ScenarioOptions scenario;

    /**
     * Online-analysis cadence.  A clustering interval longer than the
     * run is clamped to scenario.quanta so a short run still gets one
     * end-of-run clustering pass.
     */
    OnlineAnalysisParams online;

    /** Benchmark pair for AuditedWorkload::BenignPair. */
    std::string benignA = "mcf";
    std::string benignB = "gobmk";

    /**
     * For AuditedWorkload::BenignPair: which pair of units to watch.
     * CacheBus puts the shared L2 on slot 0 so benign workloads also
     * exercise the oscillation path (cache-unit negatives for the
     * detection-quality corpus — e.g. cache-thrashing streamer pairs
     * that must NOT read as channels).
     */
    BenignAuditUnits benignUnits = BenignAuditUnits::BusDivider;

    /**
     * Close the loop inside the run: once the daemon has raised
     * `alarmThreshold` alarms, engage `plan` at the next quantum
     * boundary (detection-triggered mitigation, as opposed to the
     * whole-run scenario.response axis).  Forces synchronous online
     * analysis so the engagement quantum is deterministic.
     */
    struct AutoResponse
    {
        bool enabled = false;
        ResponsePlan plan;
        std::size_t alarmThreshold = 1;
    };
    AutoResponse autoRespond;

    /**
     * Defer the end-of-run oscillation verdicts: instead of running
     * the final full-window transform per cache slot inside the run,
     * carry the retained label series (and the oscillation params the
     * run would have used) in the UnitOutcome for a later
     * finalizeDeferredOscillations() pass, which the fleet auditor
     * runs on each tenant's outcomes before handing its batch off;
     * outcomes are identical to the undeferred path.  Alarms are
     * unaffected either way.
     */
    bool deferOscillationVerdicts = false;
};

/** Final verdict of one monitored slot after a live-audited run. */
struct UnitOutcome
{
    unsigned slot = 0;

    /** Hardware unit kind the slot was programmed on. */
    MonitorTarget unit = MonitorTarget::None;

    /** Analysis path the unit is judged by (caches oscillate,
     *  combinational units show contention bursts). */
    AlarmKind kind = AlarmKind::Contention;

    /** End-of-run verdict over the retained window (the matching one
     *  of the two is filled in, per `kind`). */
    ContentionVerdict contention;
    OscillationVerdict oscillation;

    /**
     * Second-moment backend score for the same retained window
     * (detect/indicator2.hh), always computed alongside the classic
     * verdict so detection-quality scoring can sweep both backends
     * from one simulation.
     */
    Indicator2Result indicator2;

    /** Backend that renders `detected` (copied from the run's
     *  thresholds so deferred finalization re-decides consistently). */
    DetectBackend backend = DetectBackend::CCHunter;

    /** Indicator2 cut-off used when `backend` selects it. */
    double indicator2Threshold = 0.5;

    /** The selected backend's detected flag (thresholds.backend). */
    bool detected = false;

    /** Daemon confidence for this verdict (coverage x integrity). */
    double confidence = 1.0;

    /** Oscillation verdict not yet computed: `pendingSeries` holds
     *  the retained label window awaiting a (batched)
     *  finalizeDeferredOscillations() pass under `pendingParams`. */
    bool deferredOscillation = false;
    std::vector<double> pendingSeries;
    OscillationParams pendingParams;
};

/**
 * Resolve deferred oscillation outcomes in one pass: each series is
 * dispatched exactly as the undeferred path dispatches it, the ones
 * above the FFT thresholds through the calling thread's cached plans
 * and scratch buffers.  Each outcome's verdict fields are filled and
 * its pending series released.  Returns the number of series that
 * went through the FFT path.
 */
std::size_t finalizeDeferredOscillations(
    std::vector<UnitOutcome*>& pending);

/**
 * Ground-truth decode oracle of a channel run: what the spy actually
 * recovered, and the channel's effective bandwidth after accounting
 * for protocol overhead and the BSC capacity at the observed payload
 * error rate.  This is the number the respond subsystem compares
 * before/after mitigation — "residual bandwidth", the metric the
 * countermeasure literature says must be measured, not assumed zero.
 */
struct ChannelDecodeOutcome
{
    bool present = false; //!< false for benign-pair runs
    /** Wire-level bit slots the spy decoded. */
    std::uint64_t wireBitsDecoded = 0;
    /** Wire-slot BER against the transmitted bits. */
    double wireBitErrorRate = 1.0;
    /** Payload BER after protocol decoding (== wire BER when the
     *  protocol adversary is disabled). */
    double payloadBitErrorRate = 1.0;
    ProtocolDecodeStats protocolStats;
    /** Simulated wall-clock of the run, in seconds. */
    double seconds = 0.0;
    /** Payload bits/s recovered: decode rate scaled by the protocol's
     *  payload fraction and the BSC capacity at the payload BER. */
    double effectiveBandwidthBps = 0.0;
};

/** Whether/when the in-run auto-response engaged. */
struct ResponseEngagement
{
    bool engaged = false;
    std::uint64_t quantum = 0; //!< boundary index that triggered it
    ResponseLevel level = ResponseLevel::Observe;
};

/**
 * Result of one live-audited run: the online alarm stream (each alarm
 * carrying its channel signature and confidence) plus the pipeline and
 * degradation ledgers.  For a fixed option set this is deterministic —
 * including across analysisThreads values — which is what lets the
 * fleet auditor shard tenants freely.
 */
struct OnlineAuditResult
{
    std::vector<Alarm> alarms;
    PipelineStats pipeline;
    DegradedStats degraded;
    std::uint64_t quantaRecorded = 0;
    unsigned monitoredSlots = 0;

    /** Decode oracle (channel workloads only). */
    ChannelDecodeOutcome channel;

    /** In-run auto-response outcome. */
    ResponseEngagement response;

    /** Combined action count of the first two processes — the
     *  trojan/spy or benign pair — for performance-tax accounting. */
    std::uint64_t pairActions = 0;
    /** Quanta the pair actually got scheduled. */
    std::uint64_t pairScheduledQuanta = 0;

    /**
     * End-of-run offline verdict per monitored slot (ascending slot
     * order), computed over the daemon's retained window with the same
     * hunter params the online cadence used.  Carries the full
     * analysis structures, so detection-quality scoring can re-decide
     * each unit across a threshold grid without re-running the
     * simulation.
     */
    std::vector<UnitOutcome> finalVerdicts;
};

/**
 * One live-audited run, built from the unit registry.  The constructor
 * builds the machine, the workload (the unit's trojan/spy pair or the
 * benign benchmark pair), the noise processes, the CC-Auditor, the
 * fault injector, the whole-run response plan and the online daemon
 * from the descriptor hooks; run() simulates the quanta; result()
 * assembles the OnlineAuditResult from the live state.
 *
 * The live machine, daemon and spy stay reachable, so a figure bench
 * reads what it plots (per-quantum histograms, label series, spy
 * samples, unit counters) off the same run the fleet and the quality
 * gate use, and may attach its own listeners between construction and
 * run().
 */
class AuditRun
{
  public:
    explicit AuditRun(const OnlineAuditOptions& options);

    AuditRun(const AuditRun&) = delete;
    AuditRun& operator=(const AuditRun&) = delete;

    /** Simulate the scenario's quanta under live audit. */
    void run();

    /** The run's alarms, ledgers, decode oracle and end-of-run
     *  verdicts, computed from the live state on each call. */
    OnlineAuditResult result() const;

    Machine& machine() { return *machine_; }
    CCAuditor& auditor() { return *auditor_; }
    const AuditDaemon& daemon() const { return *daemon_; }

    /** The channel's receiver (nullptr for a benign pair). */
    const ChannelSpy* spy() const { return spy_; }

    /** The payload message and the wire bits actually transmitted
     *  (protocol-coded when the protocol adversary is enabled). */
    const Message& payload() const { return payload_; }
    const Message& wire() const { return ctx_.message; }

  private:
    /** Engage a response plan on the run's pair. */
    void applyPlan(const ResponsePlan& plan);

    OnlineAuditOptions options_;
    const UnitDescriptor* unit_ = nullptr;
    Message payload_;
    UnitRunContext ctx_;
    OnlineAnalysisParams online_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<CCAuditor> auditor_;
    std::optional<FaultInjector> injector_;
    const ChannelSpy* spy_ = nullptr;
    ResponseEngagement response_;
    // Declared last so it is destroyed first, while the machine and
    // auditor it observes still exist.
    std::unique_ptr<AuditDaemon> daemon_;
};

/** Run one machine under live audit: AuditRun's run() then result(). */
OnlineAuditResult runOnlineAudit(const OnlineAuditOptions& options);

} // namespace cchunter

#endif // CCHUNTER_SCENARIO_EXPERIMENT_HH

/**
 * @file
 * The CC-Hunter software daemon (paper section V-B).
 *
 * A background process records the auditor's histogram buffers at each
 * OS time quantum (contention channels) and drains the conflict vector
 * registers (cache channels), translating hardware context IDs into
 * process IDs using the OS's knowledge of the schedule — this is how
 * trojan/spy pairs are identified correctly despite migration across
 * contexts.
 *
 * Recording is *streaming*: each slot keeps a retention-bounded
 * sliding window (a RingBuffer) of quantum histograms and conflict
 * records instead of an ever-growing log, with explicit eviction
 * counters.  The merged contention histogram and the per-quantum
 * label series are maintained incrementally (add-on-drain /
 * subtract-on-evict), so both daemon memory and per-quantum analysis
 * cost are flat in the total run length.  Online analyses run inline
 * at each quantum boundary, after the drain, as the paper's single
 * background process does.
 */

#ifndef CCHUNTER_AUDITOR_DAEMON_HH
#define CCHUNTER_AUDITOR_DAEMON_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "auditor/cc_auditor.hh"
#include "detect/detector.hh"
#include "faults/fault_injector.hh"
#include "sim/stats_report.hh"
#include "util/histogram.hh"
#include "util/ring_buffer.hh"
#include "util/thread_pool.hh"
#include "util/types.hh"

namespace cchunter
{

/** A conflict miss translated to schedulable-entity identities. */
struct ConflictRecord
{
    Tick time = 0;
    ContextId replacerContext = invalidContext;
    ContextId victimContext = invalidContext;
    ProcessId replacerPid = invalidProcess;
    ProcessId victimPid = invalidProcess;
    std::uint64_t quantum = 0;
};

/** Retention policy for the daemon's per-slot sliding windows. */
struct DaemonRetention
{
    /** Quantum histograms retained per contention slot (default: the
     *  paper's 512-quantum clustering window). */
    std::size_t contentionQuanta = 512;

    /** Conflict records retained per cache slot. */
    std::size_t conflictRecords = std::size_t{1} << 20;
};

/**
 * Online analysis cadence (paper section V-B).  Autocorrelation runs
 * at the end of every OS time quantum; clustering on the interval
 * below.
 */
struct OnlineAnalysisParams
{
    /** Pattern clustering runs once per this many quanta (the paper's
     *  51.2 s at a 0.1 s quantum). */
    std::size_t clusteringIntervalQuanta = 512;

    /**
     * Worker threads for the per-quantum analysis fan-out.  1 keeps
     * the serial path; larger values analyse the monitored units
     * concurrently on a fixed pool, applying verdicts in slot order so
     * the alarm stream is identical to the serial path.  0 sizes the
     * pool to the hardware concurrency.
     */
    std::size_t analysisThreads = 1;

    /**
     * Contention-histogram retention while online; 0 selects the
     * clustering interval (the window each clustering pass consumes).
     */
    std::size_t retentionQuanta = 0;

    /** Analysis parameters. */
    CCHunterParams hunter;
};

/** Per-stage observability counters for the observation pipeline. */
struct PipelineStats
{
    std::uint64_t drainedHistograms = 0; //!< quantum snapshots drained
    std::uint64_t drainedConflicts = 0;  //!< conflict records drained
    std::uint64_t evictedQuanta = 0;     //!< histograms aged out
    std::uint64_t evictedConflicts = 0;  //!< conflict records aged out
    std::uint64_t analysesRun = 0;       //!< analysis passes completed
    double latencyMinUs = 0.0;           //!< fastest analysis pass
    double latencyMaxUs = 0.0;           //!< slowest analysis pass
    double latencyTotalUs = 0.0;         //!< summed analysis time

    /** Mean per-pass analysis latency in microseconds. */
    double latencyMeanUs() const;

    /** Fold another stats block in (counter sums, min/max combines). */
    void accumulate(const PipelineStats& other);

    /** Human-readable one-line pipeline health summary: the simulated
     *  counts only, so two runs of one scenario print the same line
     *  (the wall-clock latencies reach pipelineStatEntries). */
    std::string summary() const;
};

/** PipelineStats as flat stat entries for sim/stats_report dumps. */
std::vector<StatEntry> pipelineStatEntries(
    const PipelineStats& stats, const std::string& prefix = "daemon.");

/**
 * Degraded-operation counters: everything the pipeline observed going
 * wrong with its own sensors, kept alongside (not inside) the
 * throughput-oriented PipelineStats so a clean run reads all-zeros.
 */
struct DegradedStats
{
    std::uint64_t missedQuanta = 0;     //!< daemon wakeups that never ran
    std::uint64_t duplicatedQuanta = 0; //!< snapshots recorded twice
    std::uint64_t truncatedBatches = 0; //!< conflict batches cut short
    std::uint64_t truncatedEvents = 0;  //!< conflict events lost to cuts
    std::uint64_t reorderedBatches = 0; //!< conflict batches shuffled
    std::uint64_t corruptedContexts = 0; //!< bogus context IDs ingested
    std::uint64_t bloomAliases = 0;     //!< forced Bloom false positives
    std::uint64_t saturatedBinEvents = 0; //!< histogram bins clamped at 16 bit
    std::uint64_t accumulatorSaturations = 0; //!< event increments lost at 16 bit
    std::uint64_t unmergeUnderflows = 0; //!< merged-window bins clamped at 0

    std::uint64_t degradedAlarms = 0;  //!< alarms with confidence < 1
    double minAlarmConfidence = 1.0;   //!< weakest alarm raised
    double windowCoverage = 1.0;       //!< attended / scheduled quanta

    /** Fold another block in (sums; min-combines the qualities). */
    void accumulate(const DegradedStats& other);

    /** Total faults observed. */
    std::uint64_t totalFaults() const;

    /** Human-readable one-line summary. */
    std::string summary() const;
};

/** DegradedStats as flat stat entries for sim/stats_report dumps. */
std::vector<StatEntry> degradedStatEntries(
    const DegradedStats& stats,
    const std::string& prefix = "daemon.degraded.");

/** Which analysis path raised an alarm. */
enum class AlarmKind : std::uint8_t
{
    Contention,  //!< recurrent-burst verdict on a combinational unit
    Oscillation, //!< autocorrelation verdict on a cache conflict train
};

/** Short lower-case name of an alarm kind. */
const char* alarmKindName(AlarmKind kind);

/** One raised alarm. */
struct Alarm
{
    unsigned slot = 0;
    Tick when = 0;
    std::uint64_t quantum = 0;
    std::string summary;

    /**
     * How much of the nominal observation actually backed this
     * verdict, in [0, 1]: window coverage times the fraction of the
     * evidence untouched by saturation (contention) or conflict-path
     * corruption (oscillation).  1.0 on a clean sensor; "detected
     * despite 30% sensor loss" reads as ~0.7.
     */
    double confidence = 1.0;

    /** Hardware unit kind the alarmed slot was programmed on. */
    MonitorTarget unit = MonitorTarget::None;

    /** Analysis path that produced the verdict. */
    AlarmKind kind = AlarmKind::Contention;

    /**
     * Dominant spectral feature of the detected pattern: the burst
     * distribution's peak histogram bin (contention) or the dominant
     * autocorrelation lag (oscillation).  Deterministic for a given
     * observation window, so two hosts carrying the same channel
     * report the same value.
     */
    std::uint64_t dominantFeature = 0;

    /**
     * Stable identity of the detected channel for cross-host
     * correlation: unit kind, analysis path and dominant feature
     * packed into one comparable word (no string parsing).  Equal
     * signatures mean "the same kind of channel on the same kind of
     * hardware with the same dominant period/bin"; the packing is
     * byte-stable across runs, shard layouts and thread counts.
     */
    std::uint64_t channelSignature() const;
};

/** Invoked whenever an online analysis pass flags a channel. */
using AlarmCallback = std::function<void(const Alarm&)>;

/**
 * The daemon: quantum-driven recording plus analysis entry points.
 */
class AuditDaemon
{
  public:
    /**
     * Constructing the daemon registers it as a quantum observer on the
     * machine's scheduler; it then records every active auditor slot at
     * every quantum boundary into retention-bounded sliding windows.
     */
    AuditDaemon(Machine& machine, CCAuditor& auditor,
                DaemonRetention retention = {});

    AuditDaemon(const AuditDaemon&) = delete;
    AuditDaemon& operator=(const AuditDaemon&) = delete;

    /** Retained per-quantum density histograms for a contention slot,
     *  oldest first (a copy of the sliding window). */
    std::vector<Histogram> contentionQuanta(unsigned slot) const;

    /** The retained histogram window itself (no copy). */
    const RingBuffer<Histogram>& contentionWindow(unsigned slot) const;

    /** Retained conflict records for a cache slot, oldest first (a
     *  copy of the sliding window). */
    std::vector<ConflictRecord> conflictRecords(unsigned slot) const;

    /** The retained conflict-record window itself (no copy). */
    const RingBuffer<ConflictRecord>& conflictWindow(
        unsigned slot) const;

    /**
     * Label series for oscillation analysis over the retained window:
     * one value per conflict record, 1.0 when the replacer pid is the
     * smaller of the pair and 0.0 otherwise (every ordered pair maps
     * to a stable label).
     */
    std::vector<double> labelSeries(unsigned slot) const;

    /** Run the recurrent-burst pipeline on a contention slot's
     *  retained window. */
    ContentionVerdict analyzeContention(unsigned slot,
                                        CCHunterParams params = {}) const;

    /** Run the oscillation pipeline on a cache slot's retained
     *  window. */
    OscillationVerdict analyzeOscillation(
        unsigned slot, CCHunterParams params = {}) const;

    /** Quanta recorded so far (including quanta since evicted). */
    std::uint64_t quantaRecorded() const { return quanta_; }

    /** Effective retention policy. */
    const DaemonRetention& retention() const { return retention_; }

    /** Histograms aged out of a slot's window so far. */
    std::uint64_t evictedQuanta(unsigned slot) const;

    /** Conflict records aged out of a slot's window so far. */
    std::uint64_t evictedConflicts(unsigned slot) const;

    /** Pipeline observability snapshot. */
    PipelineStats pipelineStats() const;

    /**
     * Degraded-operation snapshot: the daemon's own fault ledger plus
     * the sensor-side counters read off the auditor hardware (bin
     * saturations, forced Bloom aliases, merged-window underflow
     * clamps).
     */
    DegradedStats degradedStats() const;

    /**
     * Attach a fault injector: quantum drops/duplications, conflict-
     * batch mutations and Bloom aliasing all start flowing through
     * it.  The injector must outlive the
     * daemon (or a detach with nullptr).  The daemon stays on its
     * graceful-degradation path either way; a null injector simply
     * means no faults fire.
     */
    void attachFaultInjector(FaultInjector* injector);

    /** Fraction of scheduled quanta the daemon actually attended over
     *  the retained window (1.0 before any quantum elapses). */
    double windowCoverage() const;

    /**
     * Fraction of a cache slot's conflict evidence that arrived
     * unmangled: 1 - (corrupted + truncated + aliased) / observed.
     */
    double conflictIntegrity(unsigned slot) const;

    /** Confidence of a contention verdict on `slot`: window coverage
     *  degraded by the saturated-bin fraction.  Rates online alarms
     *  and end-of-run verdicts alike. */
    double contentionConfidence(unsigned slot,
                                const ContentionVerdict& verdict) const;

    /** Confidence of an oscillation verdict on `slot`: window coverage
     *  times conflict-path integrity.  Rates online alarms and
     *  end-of-run verdicts alike. */
    double oscillationConfidence(unsigned slot) const;

    /**
     * Switch on live analysis at the paper's cadence: recurrent-burst
     * clustering every clusteringIntervalQuanta, oscillation analysis
     * on each quantum's conflict labels.  The callback fires for every
     * positive verdict; raised alarms are also retained.  Adjusts the
     * contention retention to params.retentionQuanta (or the
     * clustering interval when 0).
     */
    void enableOnlineAnalysis(OnlineAnalysisParams params,
                              AlarmCallback callback = {});

    /** Alarms raised by online analysis so far. */
    const std::vector<Alarm>& alarms() const;

    /** Quantum index of the first alarm on a slot (detection latency);
     *  returns SIZE_MAX when the slot never alarmed. */
    std::uint64_t firstAlarmQuantum(unsigned slot) const;

  private:
    /** Per-slot streaming state. */
    struct SlotState
    {
        /** Sliding window of per-quantum density histograms. */
        RingBuffer<Histogram> window{512};

        /** Sliding window of translated conflict records. */
        RingBuffer<ConflictRecord> records{std::size_t{1} << 20};

        /** Bin-wise sum of `window`, maintained incrementally. */
        Histogram merged{1};
        bool mergedInit = false;

        /** Labels drained during the current quantum (reused each
         *  quantum; feeds the oscillation analysis without a fresh
         *  series materialisation). */
        std::vector<double> quantumLabels;

        // Conflict-path integrity accounting.
        std::uint64_t conflictsIngested = 0;
        std::uint64_t conflictsTruncated = 0;
        std::uint64_t conflictsCorrupted = 0;
    };

    /** One slot's share of an analysis pass. */
    struct SlotWork
    {
        unsigned slot = 0;
        bool hasContention = false;
        bool hasOscillation = false;
        ContentionVerdict contention;
        OscillationVerdict oscillation;
    };

    /** One quantum's analysis work. */
    struct AnalysisBatch
    {
        std::uint64_t quantum = 0;
        Tick now = 0;
        std::vector<SlotWork> work;
    };

    void onQuantum(std::uint64_t quantum_index, Tick now);
    void wireCacheSlot(unsigned slot);
    void ingestConflicts(unsigned slot,
                         const std::vector<ConflictMissEvent>& evs);
    void dispatchAnalyses(std::uint64_t quantum_index, Tick now);
    void analyzeBatch(AnalysisBatch& batch);
    void applyVerdicts(AnalysisBatch& batch);
    void recordAnalysisLatency(double micros);
    void setContentionRetention(std::size_t quanta);
    const SlotState& slotState(unsigned slot) const;

    Machine& machine_;
    CCAuditor& auditor_;
    DaemonRetention retention_;
    std::vector<SlotState> slots_;
    FaultInjector* injector_ = nullptr;
    /** 1 per attended quantum, 0 per missed one, over the contention
     *  retention window. */
    RingBuffer<std::uint8_t> presence_{512};
    DegradedStats degraded_;
    std::uint64_t currentQuantum_ = 0;
    std::uint64_t quanta_ = 0;
    bool online_ = false;
    OnlineAnalysisParams onlineParams_;
    AlarmCallback alarmCallback_;
    std::vector<Alarm> alarms_;
    std::unique_ptr<ThreadPool> pool_;

    // Pipeline observability (drain-side counters live here; eviction
    // counters are read off the rings).
    PipelineStats stats_;
};

} // namespace cchunter

#endif // CCHUNTER_AUDITOR_DAEMON_HH

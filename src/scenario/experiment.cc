#include "scenario/experiment.hh"

#include <algorithm>

#include "channels/capacity.hh"
#include "detect/autocorrelation.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/suites.hh"

namespace cchunter
{

namespace
{

/** Default cap on per-bit signalling: 25 M cycles = 10 ms @ 2.5 GHz. */
constexpr Tick defaultSignalCap = 25000000;

Message
resolveMessage(const ScenarioOptions& opts)
{
    if (!opts.message.empty())
        return opts.message;
    Rng rng(opts.seed ^ 0xabcdef);
    return Message::random64(rng);
}

/** Translate scenario options into the unit-agnostic hook context. */
UnitRunContext
makeUnitContext(const ScenarioOptions& opts, Message wire,
                ChannelTiming timing)
{
    UnitRunContext ctx;
    ctx.message = std::move(wire);
    ctx.timing = timing;
    ctx.seed = opts.seed;
    ctx.channelSets = opts.channelSets;
    ctx.linesPerSet = opts.linesPerSet;
    ctx.cacheNoiseEvery = opts.cacheNoiseEvery;
    ctx.cacheDormantNoiseGap = opts.cacheDormantNoiseGap;
    ctx.roundsPerBit = opts.effectiveCacheRounds();
    ctx.tlbChannelSets = opts.tlbChannelSets;
    ctx.busEvasionPeriod = opts.busEvasionPeriod;
    ctx.idealTracker = opts.idealTracker;
    ctx.trackerParams = opts.trackerParams;
    return ctx;
}

ChannelTiming
makeTiming(const ScenarioOptions& opts)
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = opts.bandwidthBps;
    t.maxSignalTicks = opts.effectiveSignalTicks();
    if (opts.evasion.enabled())
        opts.evasion.validate();
    t.evasion = opts.evasion;
    return t;
}

MachineParams
makeMachine(const ScenarioOptions& opts)
{
    MachineParams mp;
    mp.scheduler.quantum = opts.quantum;
    mp.scheduler.seed = opts.seed;
    return mp;
}

void
addNoise(Machine& machine, const ScenarioOptions& opts)
{
    // A rotating selection of benchmark proxies provides the "at least
    // three other active processes" of the paper's setup.  They float
    // across the non-pinned contexts.
    const std::vector<std::string> pool{"mcf", "gobmk", "stream",
                                        "bzip2", "webserver"};
    for (unsigned i = 0; i < opts.noiseProcesses; ++i) {
        machine.addProcess(makeBenchmark(pool[i % pool.size()],
                                         opts.seed + 100 + i,
                                         opts.noiseIntensity));
    }
}

} // namespace

Tick
ScenarioOptions::effectiveSignalTicks() const
{
    if (maxSignalTicks != 0)
        return maxSignalTicks;
    return defaultSignalCap;
}

std::size_t
ScenarioOptions::effectiveCacheRounds() const
{
    if (cacheRoundsPerBit != 0)
        return cacheRoundsPerBit;
    ChannelTiming t;
    t.bandwidthBps = bandwidthBps;
    t.maxSignalTicks = effectiveSignalTicks();
    const Tick signal = t.signalTicks();
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(signal / 800000), 1, 64);
}

Config
scenarioConfig(const ScenarioOptions& opts)
{
    Config cfg;
    cfg.set("bandwidth", opts.bandwidthBps);
    cfg.set("quanta", static_cast<std::int64_t>(opts.quanta));
    cfg.set("quantum", static_cast<std::int64_t>(opts.quantum));
    cfg.set("seed", static_cast<std::int64_t>(opts.seed));
    cfg.set("noise", static_cast<std::int64_t>(opts.noiseProcesses));
    cfg.set("noise_intensity", opts.noiseIntensity);
    cfg.set("signal_ticks",
            static_cast<std::int64_t>(opts.effectiveSignalTicks()));
    cfg.set("sets", static_cast<std::int64_t>(opts.channelSets));
    cfg.set("lines_per_set",
            static_cast<std::int64_t>(opts.linesPerSet));
    cfg.set("cache_rounds",
            static_cast<std::int64_t>(opts.effectiveCacheRounds()));
    cfg.set("tlb_sets", static_cast<std::int64_t>(opts.tlbChannelSets));
    cfg.set("ideal_tracker", opts.idealTracker);
    // The decision cut-offs are part of the reproducibility record:
    // a ROC sweep's runs differ in nothing else.
    cfg.set("detect.likelihood", opts.thresholds.contentionLikelihood);
    cfg.set("detect.osc_peak", opts.thresholds.oscillationPeak);
    cfg.set("detect.osc_strong_peak",
            opts.thresholds.oscillationStrongPeak);
    // The backend keys appear only off the default, keeping classic
    // runs' config dumps byte-identical to pre-arms-race output.
    if (opts.thresholds.backend != DetectBackend::CCHunter) {
        cfg.set("detect.backend",
                std::string(detectBackendName(opts.thresholds.backend)));
        cfg.set("detect.indicator2",
                opts.thresholds.indicator2Threshold);
    }
    // Evasion keys likewise: only an enabled plan is echoed.
    if (opts.evasion.enabled())
        opts.evasion.toConfig(cfg);
    // Fault keys are echoed only when a plan is active, keeping clean
    // runs' config dumps byte-identical to pre-fault-injection output.
    if (opts.faults.enabled())
        opts.faults.toConfig(cfg);
    // Same contract for the protocol adversary's keys.
    if (opts.protocol.enabled) {
        cfg.set("protocol.enabled", true);
        cfg.set("protocol.frame_nibbles",
                static_cast<std::int64_t>(opts.protocol.frameNibbles));
        cfg.set("protocol.repeats",
                static_cast<std::int64_t>(opts.protocol.repeats));
        cfg.set("protocol.ack_gap_bits",
                static_cast<std::int64_t>(opts.protocol.ackGapBits));
    }
    // And for the response axis: only an engaged plan is echoed.
    if (opts.response.active()) {
        cfg.set("respond.level",
                std::string(responseLevelName(opts.response.level)));
        cfg.set("respond.bus_lock_interval",
                static_cast<std::int64_t>(opts.response.busLockInterval));
        cfg.set("respond.throttle_period",
                static_cast<std::int64_t>(opts.response.throttlePeriod));
        cfg.set("respond.throttle_active",
                static_cast<std::int64_t>(opts.response.throttleActive));
    }
    return cfg;
}

Message
expectedBits(const Message& sent, std::size_t n)
{
    std::vector<bool> bits;
    bits.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        bits.push_back(sent.bitCyclic(i));
    return Message::fromBits(std::move(bits));
}

double
slotBitErrorRate(
        const Message& sent,
        const std::vector<std::pair<std::size_t, bool>>& decoded)
{
    if (decoded.empty() || sent.empty())
        return 1.0;
    std::size_t errors = 0;
    for (const auto& [slot, value] : decoded)
        errors += value != sent.bitCyclic(slot);
    return static_cast<double>(errors) /
           static_cast<double>(decoded.size());
}

AuditRun::AuditRun(const OnlineAuditOptions& options)
    : options_(options)
{
    const ScenarioOptions& opts = options_.scenario;
    const UnitRegistry& registry = UnitRegistry::instance();
    payload_ = resolveMessage(opts);
    ctx_ = makeUnitContext(opts, encodeProtocol(payload_, opts.protocol),
                           makeTiming(opts));

    // A channel workload maps to exactly one registered unit; the
    // benign pair maps to none and instead audits the pairing's two
    // unit slots.
    unit_ = registry.byWorkload(options_.workload);
    if (!unit_ && options_.workload != AuditedWorkload::BenignPair)
        fatal("runOnlineAudit: workload ",
              static_cast<int>(options_.workload),
              " has no registered unit");
    const BenignPairing* pairing =
        unit_ ? nullptr : &benignPairing(options_.benignUnits);

    MachineParams mp = makeMachine(opts);
    if (unit_) {
        if (unit_->configureMachine)
            unit_->configureMachine(mp, ctx_);
    } else {
        // Benign audits of hardware that is off by default (the TLB)
        // still need that hardware present.
        for (const MonitorTarget target : pairing->slots) {
            const UnitDescriptor& d = registry.require(target);
            if (d.configureBenignMachine)
                d.configureBenignMachine(mp, ctx_);
        }
    }
    machine_ = std::make_unique<Machine>(mp);

    if (unit_) {
        unit_->buildWorkload(*machine_, ctx_);
        // Recover the receiver through the common ChannelSpy
        // interface (no per-unit dispatch).
        for (const auto& p : machine_->scheduler().processes())
            if ((spy_ = dynamic_cast<const ChannelSpy*>(&p->workload())))
                break;
    } else {
        machine_->addProcess(
            makeBenchmark(options_.benignA, opts.seed + 1), 0);
        machine_->addProcess(
            makeBenchmark(options_.benignB, opts.seed + 2), 1);
    }
    addNoise(*machine_, opts);

    auditor_ = std::make_unique<CCAuditor>(*machine_);
    // An all-zero fault plan constructs and attaches nothing, so a
    // clean run executes exactly the uninstrumented code paths.
    if (opts.faults.enabled()) {
        opts.faults.validate();
        if (opts.faults.saturatePaperWidths) {
            HistogramBufferParams hp = auditor_->histogramParams();
            hp.saturate16 = true;
            auditor_->setHistogramParams(hp);
        }
        injector_.emplace(opts.faults);
    }
    const AuditKey key = requestAuditKey(true);
    if (unit_) {
        unit_->program(*auditor_, key, 0, ctx_);
    } else {
        // No channel to pin down: watch two of the units the pair
        // actually shares (the two-slot auditor limit).  The default
        // covers both contention units; the other pairings let benign
        // runs feed the oscillation path and the SMT multiplier, so
        // every unit kind accumulates negatives.  Benign runs always
        // use the deployable tracker, never the oracle.
        UnitRunContext benign_ctx = ctx_;
        benign_ctx.idealTracker = false;
        for (unsigned slot = 0; slot < pairing->slots.size(); ++slot)
            registry.require(pairing->slots[slot])
                .program(*auditor_, key, slot, benign_ctx);
    }
    daemon_ = std::make_unique<AuditDaemon>(*machine_, *auditor_);
    if (injector_)
        daemon_->attachFaultInjector(&*injector_);

    // Whole-run response axis: the plan is engaged before the first
    // quantum (measuring a channel *under* an already-applied
    // response, e.g. a residual-bandwidth probe).
    if (opts.response.active())
        applyPlan(opts.response);

    online_ = options_.online;
    if (opts.quanta != 0 &&
        online_.clusteringIntervalQuanta > opts.quanta)
        online_.clusteringIntervalQuanta = opts.quanta;
    online_.hunter = opts.thresholds.apply(online_.hunter);
    daemon_->enableOnlineAnalysis(online_);

    // Closed loop: engage the configured plan at the first quantum
    // boundary whose cumulative alarm count crosses the threshold.
    // Registered after the daemon's observer, so it sees the alarms
    // the boundary's own analysis just raised.
    if (options_.autoRespond.enabled) {
        machine_->scheduler().addQuantumObserver(
            [this](std::uint64_t q, Tick) {
                if (response_.engaged ||
                    daemon_->alarms().size() <
                        options_.autoRespond.alarmThreshold)
                    return;
                applyPlan(options_.autoRespond.plan);
                response_.engaged = true;
                response_.quantum = q;
                response_.level = options_.autoRespond.plan.level;
            });
    }
}

void
AuditRun::applyPlan(const ResponsePlan& plan)
{
    if (unit_)
        applyResponsePlan(*machine_, unit_->id, plan);
    else
        applyResponsePlan(*machine_, {ContextId{0}, ContextId{1}}, plan);
}

void
AuditRun::run()
{
    machine_->runQuanta(options_.scenario.quanta);
}

OnlineAuditResult
AuditRun::result() const
{
    const ScenarioOptions& opts = options_.scenario;
    const UnitRegistry& registry = UnitRegistry::instance();
    OnlineAuditResult result;
    result.alarms = daemon_->alarms();
    result.pipeline = daemon_->pipelineStats();
    result.degraded = daemon_->degradedStats();
    result.quantaRecorded = daemon_->quantaRecorded();
    result.response = response_;

    // Performance-tax accounting: the first two processes are always
    // the trojan/spy or benign pair (noise is added after them).
    {
        const auto& procs = machine_->scheduler().processes();
        const std::size_t n = std::min<std::size_t>(2, procs.size());
        for (std::size_t i = 0; i < n; ++i) {
            result.pairActions += procs[i]->stats().actions;
            result.pairScheduledQuanta +=
                procs[i]->stats().scheduledQuanta;
        }
    }

    // Decode oracle: score what the spy recovered.
    if (spy_) {
        ChannelDecodeOutcome& ch = result.channel;
        ch.present = true;
        const Message& wire = ctx_.message;
        ch.wireBitsDecoded = spy_->decodedSlots().size();
        ch.wireBitErrorRate = slotBitErrorRate(wire, spy_->decodedSlots());
        ch.payloadBitErrorRate = ch.wireBitErrorRate;
        double payload_fraction = 1.0;
        if (opts.protocol.enabled && !wire.empty()) {
            // The receiver's link layer sees one wire pass; frame
            // repeats inside the wire already vote retransmissions.
            const Message decoded_wire = spy_->decoded();
            std::vector<bool> received;
            const std::size_t limit =
                std::min(decoded_wire.size(), wire.size());
            received.reserve(limit);
            for (std::size_t i = 0; i < limit; ++i)
                received.push_back(decoded_wire.bit(i));
            const Message recovered = decodeProtocol(
                Message::fromBits(std::move(received)), opts.protocol,
                payload_.size(), &ch.protocolStats);
            ch.payloadBitErrorRate = payload_.bitErrorRate(recovered);
            payload_fraction = static_cast<double>(payload_.size()) /
                               static_cast<double>(wire.size());
        }
        ch.seconds = ticksToSeconds(
            static_cast<Tick>(opts.quanta) * opts.quantum);
        const double good_bits =
            static_cast<double>(ch.wireBitsDecoded) * payload_fraction;
        ch.effectiveBandwidthBps =
            ch.seconds > 0.0 ? good_bits / ch.seconds *
                                   bscCapacity(ch.payloadBitErrorRate)
                             : 0.0;
    }

    for (unsigned s = 0; s < auditor_->numSlots(); ++s) {
        if (!auditor_->slotActive(s))
            continue;
        ++result.monitoredSlots;
        UnitOutcome outcome;
        outcome.slot = s;
        outcome.unit = auditor_->slotTarget(s);
        outcome.backend = opts.thresholds.backend;
        outcome.indicator2Threshold =
            opts.thresholds.indicator2Threshold;
        // Both backends score the same retained window; the selected
        // one renders `detected`, the other rides along for the
        // detection-quality head-to-head.  The squash scale is the
        // unit's own calibration constant from the registry.
        const UnitDescriptor& descriptor =
            registry.require(outcome.unit);
        Indicator2Params i2params;
        if (descriptor.indicator2Scale > 0.0) {
            if (descriptor.policy == AlarmKind::Oscillation)
                i2params.runScale = descriptor.indicator2Scale;
            else
                i2params.contentionScale = descriptor.indicator2Scale;
        }
        const Indicator2 indicator2(i2params);
        const bool byIndicator2 =
            outcome.backend == DetectBackend::Indicator2;
        if (descriptor.policy == AlarmKind::Oscillation) {
            outcome.kind = AlarmKind::Oscillation;
            outcome.confidence = daemon_->oscillationConfidence(s);
            outcome.indicator2 =
                indicator2.scoreOscillation(daemon_->labelSeries(s));
            if (options_.deferOscillationVerdicts) {
                outcome.deferredOscillation = true;
                outcome.pendingSeries = daemon_->labelSeries(s);
                outcome.pendingParams = online_.hunter.oscillation;
                if (byIndicator2)
                    outcome.detected = outcome.indicator2.detectedAt(
                        outcome.indicator2Threshold);
            } else {
                outcome.oscillation =
                    daemon_->analyzeOscillation(s, online_.hunter);
                outcome.detected =
                    byIndicator2
                        ? outcome.indicator2.detectedAt(
                              outcome.indicator2Threshold)
                        : outcome.oscillation.detected;
            }
        } else {
            outcome.kind = AlarmKind::Contention;
            outcome.contention =
                daemon_->analyzeContention(s, online_.hunter);
            outcome.indicator2 =
                indicator2.scoreContention(daemon_->contentionQuanta(s));
            outcome.detected =
                byIndicator2 ? outcome.indicator2.detectedAt(
                                   outcome.indicator2Threshold)
                             : outcome.contention.detected;
            outcome.confidence =
                daemon_->contentionConfidence(s, outcome.contention);
        }
        result.finalVerdicts.push_back(std::move(outcome));
    }
    return result;
}

OnlineAuditResult
runOnlineAudit(const OnlineAuditOptions& options)
{
    AuditRun run(options);
    run.run();
    return run.result();
}

std::size_t
finalizeDeferredOscillations(std::vector<UnitOutcome*>& pending)
{
    // autocorrelogram() applies the dispatch rule the undeferred path
    // applies, on this thread's FFT plans and scratch, so a deferred
    // outcome is bit-identical to its inline counterpart.
    std::size_t batched = 0;
    for (UnitOutcome* outcome : pending) {
        if (!outcome || !outcome->deferredOscillation)
            continue;
        const std::vector<double>& series = outcome->pendingSeries;
        const std::size_t lag = outcome->pendingParams.maxLag;
        if (autocorrelogramUsesFft(series.size(), lag))
            ++batched;
        OscillationAnalysis& analysis = outcome->oscillation.analysis;
        analysis.seriesLength = series.size();
        analysis.correlogram = autocorrelogram(series, lag);
        decideOscillation(analysis, outcome->pendingParams);
        outcome->oscillation.detected = analysis.oscillating;
        outcome->detected =
            outcome->backend == DetectBackend::Indicator2
                ? outcome->indicator2.detectedAt(
                      outcome->indicator2Threshold)
                : outcome->oscillation.detected;
        outcome->deferredOscillation = false;
        outcome->pendingSeries.clear();
        outcome->pendingSeries.shrink_to_fit();
    }
    return batched;
}

} // namespace cchunter

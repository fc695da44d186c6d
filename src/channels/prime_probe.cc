#include "channels/prime_probe.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

Addr
PrimeProbeLayout::addr(Addr base, bool trojan, bool group1,
                       std::size_t idx, std::size_t entry) const
{
    if (idx >= setsPerGroup())
        panic("PrimeProbeLayout: set index out of range");
    if (entry >= (trojan ? trojanDepth : spyDepth))
        panic("PrimeProbeLayout: entry index out of range");
    const std::size_t offset = (group1 ? 0 : setsPerGroup()) + idx;
    const Addr set = static_cast<Addr>(firstSet + offset);
    const Addr slot = static_cast<Addr>((trojan ? channelSets : 0) + offset);
    return base + (set + static_cast<Addr>(entry) * numSets) * setStride +
           slot * slotBytes;
}

void
PrimeProbeLayout::validate(const std::string& who) const
{
    if (channelSets < 2 || channelSets % 2 != 0)
        fatal(who, ": channelSets must be even and >= 2");
    if (firstSet + channelSets > numSets)
        fatal(who, ": channel sets exceed the ", unit);
    if (trojanDepth == 0 || spyDepth == 0)
        fatal(who, ": entries per set must be positive");
    if (2 * channelSets * slotBytes > setStride)
        fatal(who, ": too many channel sets for the in-entry slots");
}

namespace
{

/**
 * Where `now` falls among the prime/probe rounds of bit `bit`'s signal
 * window [winStart, winStart + signal): the trojan primes during the
 * first half of each round, the spy probes during the second.
 */
struct Round
{
    std::uint64_t key; //!< unique per (bit, round); restarts cursors
    Tick start;        //!< first tick of the round
    Tick ticks;        //!< round length
    bool last;         //!< no later round starts inside the window
};

Round
roundAt(Tick now, std::size_t bit, Tick winStart, Tick signal,
        std::size_t roundsPerBit)
{
    const std::size_t rounds = std::max<std::size_t>(1, roundsPerBit);
    const Tick ticks = std::max<Tick>(2, signal / rounds);
    const std::size_t round = std::min<std::size_t>(
        rounds - 1,
        static_cast<std::size_t>((now - winStart) / ticks));
    const Tick start = winStart + round * ticks;
    return {static_cast<std::uint64_t>(bit) * rounds + round, start,
            ticks,
            !(round + 1 < rounds && start + ticks < winStart + signal)};
}

} // namespace

PrimeProbeTrojan::PrimeProbeTrojan(PrimeProbeTrojanParams params)
    : params_(std::move(params))
{
    if (params_.message.empty())
        fatal(name(), ": empty message");
    params_.layout.validate(name());
}

Action
PrimeProbeTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const std::size_t bit = t.bitIndexAt(now);
    if (!params_.repeat && bit >= params_.message.size())
        return Action::halt();

    const Tick win_start = t.signalStart(bit);
    const Tick signal = t.activeTicks(bit);
    if (now >= win_start + signal)
        return Action::sleepUntil(t.bitStart(bit + 1));
    if (now < win_start)
        return Action::sleepUntil(win_start);

    const Round r =
        roundAt(now, bit, win_start, signal, params_.roundsPerBit);
    if (r.key != lastRoundKey_) {
        lastRoundKey_ = r.key;
        primeCursor_ = 0;
    }

    const bool value = params_.message.bitCyclic(bit);
    const PrimeProbeLayout& l = params_.layout;
    if (primeCursor_ >= l.entriesPerGroup(true) ||
        now >= r.start + r.ticks / 2)
        return Action::sleepUntil(r.last ? t.bitStart(bit + 1)
                                         : r.start + r.ticks);

    // Entry-major: visit every set at entry k before moving to entry
    // k+1, so the spy's (most recently used) entries are displaced in
    // one contiguous burst by the final pass.
    const std::size_t idx = primeCursor_ % l.setsPerGroup();
    const std::size_t entry = primeCursor_ / l.setsPerGroup();
    ++primeCursor_;
    ++primesIssued_;
    return Action::read(l.addr(params_.addrBase, true, value, idx, entry));
}

PrimeProbeSpy::PrimeProbeSpy(PrimeProbeSpyParams params)
    : params_(std::move(params)), rng_(params_.seed)
{
    params_.layout.validate(name());
}

void
PrimeProbeSpy::finishBit()
{
    if (g1Count_ == 0 || g0Count_ == 0)
        return;
    const double g1 = g1Sum_ / static_cast<double>(g1Count_);
    const double g0 = g0Sum_ / static_cast<double>(g0Count_);
    const double ratio = g0 > 0.0 ? g1 / g0 : 0.0;
    ratios_.push_back(ratio);
    decodedSlots_.emplace_back(lastBit_, ratio > 1.0);
    g1Sum_ = g0Sum_ = 0.0;
    g1Count_ = g0Count_ = 0;
}

Action
PrimeProbeSpy::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    const PrimeProbeLayout& l = params_.layout;

    if (pendingMeasure_) {
        pendingMeasure_ = false;
        const double lat = static_cast<double>(view.lastLatency);
        if (measuringG1_) {
            g1Sum_ += lat;
            ++g1Count_;
        } else {
            g0Sum_ += lat;
            ++g0Count_;
        }
    }

    if (done_)
        return Action::halt();
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const std::size_t bit = t.bitIndexAt(now);
    if (bit != lastBit_) {
        finishBit();
        lastBit_ = bit;
        probeCursor_ = 0;
        if (params_.maxBits != 0 &&
            decodedSlots_.size() >= params_.maxBits) {
            done_ = true;
            return Action::halt();
        }
    }

    // While dormant (outside the signal window), optionally behave
    // like the embedding cover program: sparse random reads, not pure
    // sleep.
    const Tick win_start = t.signalStart(bit);
    const Tick signal = t.activeTicks(bit);
    auto dormant_until = [&](Tick until) -> Action {
        if (params_.dormantNoiseGap == 0)
            return Action::sleepUntil(until);
        if (now >= nextDormantRead_) {
            nextDormantRead_ = now + params_.dormantNoiseGap;
            return Action::read(params_.noiseBase +
                                rng_.nextBelow(l.numSets * 2) *
                                    l.setStride);
        }
        return Action::sleepUntil(std::min(nextDormantRead_, until));
    };
    if (now >= win_start + signal)
        return dormant_until(t.bitStart(bit + 1));
    if (now < win_start)
        return dormant_until(win_start);

    const Round r =
        roundAt(now, bit, win_start, signal, params_.roundsPerBit);
    if (r.key != lastRoundKey_) {
        lastRoundKey_ = r.key;
        probeCursor_ = 0;
    }
    const Tick probe_start = r.start + r.ticks / 2;
    if (now < probe_start)
        return Action::sleepUntil(probe_start);

    const std::size_t per_group = l.entriesPerGroup(false);
    if (probeCursor_ >= 2 * per_group) {
        if (!r.last)
            return Action::sleepUntil(r.start + r.ticks);
        finishBit();
        return dormant_until(t.bitStart(bit + 1));
    }

    // Occasional "surrounding code" accesses: random entries that may
    // collide with channel sets and interleave noise conflicts.
    if (params_.noiseEvery != 0 &&
        ++sinceNoise_ >= params_.noiseEvery) {
        sinceNoise_ = 0;
        return Action::read(params_.noiseBase +
                            rng_.nextBelow(l.numSets * 4) * l.setStride);
    }

    const bool in_g1 = probeCursor_ < per_group;
    const std::size_t within =
        in_g1 ? probeCursor_ : probeCursor_ - per_group;
    const std::size_t idx = within % l.setsPerGroup();
    const std::size_t entry = within / l.setsPerGroup();
    ++probeCursor_;
    pendingMeasure_ = true;
    measuringG1_ = in_g1;
    return Action::read(
        l.addr(params_.addrBase, false, in_g1, idx, entry));
}

} // namespace cchunter

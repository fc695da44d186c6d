#include "channels/bus_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

BusTrojan::BusTrojan(BusTrojanParams params)
    : params_(std::move(params)), rng_(params_.seed)
{
    if (params_.message.empty())
        fatal("BusTrojan: empty message");
    if (params_.lockPeriod == 0)
        fatal("BusTrojan: lockPeriod must be positive");
}

Addr
BusTrojan::nextUnalignedAddr()
{
    // Cycle a small pool of line-pair bases; the lock is asserted
    // regardless of cache state, the pool just varies the footprint.
    const Addr base =
        params_.addrBase + (addrCursor_ % 16) * 128;
    ++addrCursor_;
    return base + 60; // offset so the access spans two lines
}

Action
BusTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const std::size_t bit = t.bitIndexAt(now);
    if (!params_.repeat && bit >= params_.message.size())
        return Action::halt();

    if (bit != lastBit_) {
        lastBit_ = bit;
        ++bitsSignalled_;
        nextLockAt_ = t.signalStart(bit);
    }

    const bool value = params_.message.bitCyclic(bit);
    const Tick signal_end = t.signalEnd(bit);
    if (!value || now >= signal_end) {
        // Dormant.  With evasion enabled, emit jittered decoy locks
        // instead of staying silent.
        const Tick next_bit = t.bitStart(bit + 1);
        if (params_.evasionLockPeriod == 0)
            return Action::sleepUntil(next_bit);
        if (now >= nextDecoyAt_) {
            nextDecoyAt_ =
                now + params_.evasionLockPeriod / 2 +
                rng_.nextBelow(params_.evasionLockPeriod);
            ++locksIssued_;
            return Action::lockedAccess(nextUnalignedAddr());
        }
        return Action::sleepUntil(
            std::min(nextDecoyAt_, next_bit));
    }

    if (now < t.signalStart(bit))
        return Action::sleepUntil(t.signalStart(bit));
    if (now < nextLockAt_) {
        const Tick pad = std::min(nextLockAt_, signal_end) - now;
        return Action::compute(static_cast<Cycles>(pad));
    }
    nextLockAt_ = now + params_.lockPeriod;
    ++locksIssued_;
    return Action::lockedAccess(nextUnalignedAddr());
}

BusSpy::BusSpy(BusSpyParams params)
    : params_(std::move(params))
{
    if (params_.sampleAccesses == 0)
        fatal("BusSpy: sampleAccesses must be positive");
    if (params_.regionBytes < 64)
        fatal("BusSpy: region too small");
}

double
BusSpy::currentThreshold() const
{
    if (params_.adaptiveDecode && haveSlotMeans_ &&
        maxSlotMean_ > 1.3 * minSlotMean_) {
        return 0.5 * (minSlotMean_ + maxSlotMean_);
    }
    return static_cast<double>(params_.decodeThreshold);
}

void
BusSpy::finishSlot()
{
    if (slotCount_ == 0)
        return;
    const double mean = slotSum_ / static_cast<double>(slotCount_);
    if (!haveSlotMeans_) {
        minSlotMean_ = maxSlotMean_ = mean;
        haveSlotMeans_ = true;
    } else {
        minSlotMean_ = std::min(minSlotMean_, mean);
        maxSlotMean_ = std::max(maxSlotMean_, mean);
    }
    slotMeans_.emplace_back(currentSlot_, mean);
    decodedSlots_.emplace_back(currentSlot_, mean > currentThreshold());
    slotSum_ = 0.0;
    slotCount_ = 0;
}

Action
BusSpy::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;

    if (pendingMeasure_) {
        pendingMeasure_ = false;
        const double lat = static_cast<double>(view.lastLatency);
        sampleSum_ += lat;
        slotSum_ += lat;
        ++slotCount_;
        if (++sampleCount_ >= params_.sampleAccesses) {
            samples_.push_back(sampleSum_ /
                               static_cast<double>(sampleCount_));
            sampleSum_ = 0.0;
            sampleCount_ = 0;
        }
    }

    if (done_)
        return Action::halt();
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const std::size_t slot = t.bitIndexAt(now);
    if (slot != currentSlot_) {
        finishSlot();
        currentSlot_ = slot;
        if (params_.maxBits != 0 &&
            decodedSlots_.size() >= params_.maxBits) {
            done_ = true;
            return Action::halt();
        }
    }

    // Sample only inside the signal window: low-bandwidth channels lie
    // dormant for most of each bit slot and so does the receiver.
    if (now >= t.signalEnd(slot)) {
        finishSlot();
        return Action::sleepUntil(t.bitStart(slot + 1));
    }
    if (now < t.signalStart(slot))
        return Action::sleepUntil(t.signalStart(slot));

    // Stream through the private region to force L2 misses.
    const std::size_t lines = params_.regionBytes / 64;
    const Addr addr = params_.addrBase + (addrCursor_ % lines) * 64;
    ++addrCursor_;
    pendingMeasure_ = true;
    return Action::read(addr);
}

} // namespace cchunter

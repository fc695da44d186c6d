#include "channels/divider_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

DividerTrojan::DividerTrojan(DividerTrojanParams params)
    : params_(std::move(params))
{
    if (params_.message.empty())
        fatal("DividerTrojan: empty message");
    if (params_.chunkOps == 0)
        fatal("DividerTrojan: chunkOps must be positive");
}

Action
DividerTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const std::size_t bit = t.bitIndexAt(now);
    if (!params_.repeat && bit >= params_.message.size())
        return Action::halt();

    const bool value = params_.message.bitCyclic(bit);
    if (!value || now >= t.signalEnd(bit))
        return Action::sleepUntil(t.bitStart(bit + 1));
    if (now < t.signalStart(bit))
        return Action::sleepUntil(t.signalStart(bit));

    opsIssued_ += params_.chunkOps;
    return params_.useMultiplier
               ? Action::multiplyBatch(params_.chunkOps)
               : Action::divideBatch(params_.chunkOps);
}

DividerSpy::DividerSpy(DividerSpyParams params)
    : params_(std::move(params)), rng_(params_.seed)
{
    if (params_.opsPerIteration == 0)
        fatal("DividerSpy: opsPerIteration must be positive");
    if (params_.iterationsPerSample == 0)
        fatal("DividerSpy: iterationsPerSample must be positive");
}

void
DividerSpy::finishSlot()
{
    if (slotCount_ == 0)
        return;
    const double mean = slotSum_ / static_cast<double>(slotCount_);
    slotMeans_.emplace_back(currentSlot_, mean);
    decodedSlots_.emplace_back(
        currentSlot_,
        mean > static_cast<double>(params_.decodeThreshold));
    slotSum_ = 0.0;
    slotCount_ = 0;
}

Action
DividerSpy::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;

    if (pendingMeasure_) {
        pendingMeasure_ = false;
        const double lat = static_cast<double>(view.lastLatency);
        sampleSum_ += lat;
        slotSum_ += lat;
        ++slotCount_;
        if (++sampleCount_ >= params_.iterationsPerSample) {
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

    // Sample only inside the signal window (see BusSpy).
    if (now >= t.signalEnd(slot)) {
        finishSlot();
        return Action::sleepUntil(t.bitStart(slot + 1));
    }
    if (now < t.signalStart(slot))
        return Action::sleepUntil(t.signalStart(slot));

    // Loop overhead between timed iterations.
    if (params_.gapMax > 0 && !gapPending_) {
        gapPending_ = true;
        return Action::compute(static_cast<Cycles>(
            1 + rng_.nextBelow(params_.gapMax)));
    }
    gapPending_ = false;
    pendingMeasure_ = true;
    return params_.useMultiplier
               ? Action::multiplyBatch(params_.opsPerIteration)
               : Action::divideBatch(params_.opsPerIteration);
}

} // namespace cchunter

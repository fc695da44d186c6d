/**
 * @file
 * The common receiver interface every channel spy implements: what it
 * decoded, slot by slot.  The response subsystem uses this as the
 * ground-truth oracle for residual channel bandwidth — after a
 * mitigation engages, the trojan/spy pair is re-run and the spy's
 * surviving decode rate (through the link-layer protocol decoder) is
 * the channel's residual capacity.
 *
 * The interface lets the scenario layer recover the spy from a machine
 * built by any registry descriptor's buildWorkload hook, with no
 * per-unit dispatch.
 */

#ifndef CCHUNTER_CHANNELS_CHANNEL_SPY_HH
#define CCHUNTER_CHANNELS_CHANNEL_SPY_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "channels/message.hh"

namespace cchunter
{

/** Decode-side view of a covert-channel receiver. */
class ChannelSpy
{
  public:
    virtual ~ChannelSpy() = default;

    /** (bit-slot index, decoded value) pairs, in decode order. */
    virtual const std::vector<std::pair<std::size_t, bool>>&
    decodedSlots() const = 0;

    /** Bits decoded so far (wire bits, pre-protocol). */
    Message
    decoded() const
    {
        const auto& slots = decodedSlots();
        std::vector<bool> bits;
        bits.reserve(slots.size());
        for (const auto& [slot, value] : slots)
            bits.push_back(value);
        return Message::fromBits(std::move(bits));
    }
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_CHANNEL_SPY_HH

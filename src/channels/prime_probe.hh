/**
 * @file
 * The prime+probe covert timing channel on a set-indexed shared
 * structure: the shared L2 cache (paper section IV-C, after Xu et al.)
 * or the per-core TLB that SMT siblings share (TLBleed-style).
 *
 * Trojan and spy agree (during synchronization) on two groups of sets,
 * G1 and G0.  To transmit '1' the trojan visits G1 and fills the
 * constituent sets with its own entries (evicting the spy's); for '0'
 * it fills G0.  The spy then probes *both* groups, timing them: the
 * group whose accesses miss (higher latency) names the transmitted
 * bit, and the probe simultaneously re-installs the spy's entries for
 * the next round.
 *
 * Each prime step that evicts a spy entry is a T->S conflict and each
 * probe step of the primed group re-evicts a trojan entry (S->T), so
 * the labelled conflict train oscillates with a period close to the
 * total number of channel sets — the signature figure 8 detects, on
 * whichever structure the layout describes.
 */

#ifndef CCHUNTER_CHANNELS_PRIME_PROBE_HH
#define CCHUNTER_CHANNELS_PRIME_PROBE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "channels/channel_spy.hh"
#include "channels/message.hh"
#include "channels/timing.hh"
#include "sim/workload.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cchunter
{

/**
 * Geometry of the agreed-on set groups, shared by both sides.  The
 * defaults are the paper's cache channel: 512 sets of a direct-mapped
 * 4096-set L2 with 64-byte lines.
 */
struct PrimeProbeLayout
{
    std::string unit = "cache"; //!< processes are "<unit>-trojan/-spy"
    std::size_t numSets = 4096; //!< sets in the monitored structure
    std::size_t setStride = 64; //!< bytes per set step: line or page
    std::size_t channelSets = 512; //!< total sets across G1 and G0
    std::size_t firstSet = 0;      //!< first set used by the channel
    std::size_t trojanDepth = 1;   //!< entries the trojan fills per set
    std::size_t spyDepth = 1;      //!< entries the spy keeps per set
    /**
     * Byte stride of the slots inside one entry (0 = none).  A TLB
     * entry maps a whole page: spy entries use in-page slots
     * [0, channelSets) and trojan entries [channelSets,
     * 2*channelSets), so the two sides never share a cache line and
     * the probe-latency difference is purely TLB-induced.
     */
    std::size_t slotBytes = 0;

    std::size_t
    setsPerGroup() const
    {
        return channelSets / 2;
    }

    /** Entries one side touches per pass over one group. */
    std::size_t
    entriesPerGroup(bool trojan) const
    {
        return setsPerGroup() * (trojan ? trojanDepth : spyDepth);
    }

    /**
     * Address of one side's `entry`-th entry in the `idx`-th set of a
     * group: base + (set + entry * numSets) * setStride +
     * slot * slotBytes.  Adding multiples of numSets * setStride
     * changes the tag while preserving the set index.
     */
    Addr addr(Addr base, bool trojan, bool group1, std::size_t idx,
              std::size_t entry) const;

    /** Fatal unless the groups fit the structure and the slots fit
     *  the set stride; `who` names the caller. */
    void validate(const std::string& who) const;
};

/** Configuration of the trojan. */
struct PrimeProbeTrojanParams
{
    ChannelTiming timing;
    Message message;
    PrimeProbeLayout layout;
    bool repeat = true;
    Addr addrBase = 0x40000000; //!< trojan's private tag space
    /**
     * Prime/probe rounds per bit.  Reliable transmission needs "a
     * certain number of conflicts per second" (paper section VI-A):
     * both sides repeat the prime/probe cycle throughout the signal
     * window, so even one bit produces many oscillation periods.
     */
    std::size_t roundsPerBit = 1;
};

/**
 * The transmitting side: primes one group per round.
 */
class PrimeProbeTrojan : public Workload
{
  public:
    explicit PrimeProbeTrojan(PrimeProbeTrojanParams params);

    Action nextAction(const ExecView& view) override;
    std::string
    name() const override
    {
        return params_.layout.unit + "-trojan";
    }

    std::uint64_t primesIssued() const { return primesIssued_; }

  private:
    PrimeProbeTrojanParams params_;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t primeCursor_ = 0;
    std::uint64_t primesIssued_ = 0;
};

/** Configuration of the spy. */
struct PrimeProbeSpyParams
{
    ChannelTiming timing;
    PrimeProbeLayout layout;
    Addr addrBase = 0x80000000; //!< spy's private tag space
    Addr noiseBase = 0xc0000000; //!< "surrounding code" noise region
    /** Issue one random (noise) access every N probes; 0 disables.
     *  Models the random conflict misses of surrounding code that
     *  shift the autocorrelation peak slightly beyond the set count. */
    std::size_t noiseEvery = 0;
    /**
     * While dormant (outside the probe window), issue one random
     * "cover program" access every this-many ticks; 0 disables.  On
     * very low-bandwidth channels these accesses interleave random
     * conflict labels between the sparse signalling episodes, diluting
     * whole-series autocorrelation (the effect paper figure 11
     * counters with finer observation windows).
     */
    Tick dormantNoiseGap = 0;
    std::size_t maxBits = 0; //!< stop after N bits (0 = forever)
    std::uint64_t seed = 99;
    /** Prime/probe rounds per bit; must match the trojan's. */
    std::size_t roundsPerBit = 1;
};

/**
 * The receiving side: probes both groups per round and decodes each
 * bit from the G1/G0 access-time ratio.
 */
class PrimeProbeSpy : public Workload, public ChannelSpy
{
  public:
    explicit PrimeProbeSpy(PrimeProbeSpyParams params);

    Action nextAction(const ExecView& view) override;
    std::string
    name() const override
    {
        return params_.layout.unit + "-spy";
    }

    /** G1/G0 access-time ratios, one per bit (paper figure 7). */
    const std::vector<double>& ratios() const { return ratios_; }

    const std::vector<std::pair<std::size_t, bool>>& decodedSlots()
        const override
    {
        return decodedSlots_;
    }

  private:
    void finishBit();

    PrimeProbeSpyParams params_;
    Rng rng_;
    std::vector<double> ratios_;
    std::vector<std::pair<std::size_t, bool>> decodedSlots_;
    std::size_t lastBit_ = SIZE_MAX;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t probeCursor_ = 0;
    bool pendingMeasure_ = false;
    bool measuringG1_ = false;
    double g1Sum_ = 0.0;
    std::size_t g1Count_ = 0;
    double g0Sum_ = 0.0;
    std::size_t g0Count_ = 0;
    std::size_t sinceNoise_ = 0;
    Tick nextDormantRead_ = 0;
    bool done_ = false;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_PRIME_PROBE_HH

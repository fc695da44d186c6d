/**
 * @file
 * Declarative description of the hardware/OS faults to inject into a
 * run of the observation pipeline.
 *
 * The CC-Auditor is real hardware with hard limits — 16-bit event
 * accumulators and histogram entries, a 3-hash Bloom filter per
 * generation — and its software daemon is an ordinary OS process that
 * can be preempted past a quantum boundary.  A FaultPlan names which
 * of those failure modes to exercise and at what rate; every rate is
 * a per-opportunity Bernoulli probability drawn from its own seeded
 * stream, so a plan plus a seed reproduces the exact same fault
 * schedule on every run.
 */

#ifndef CCHUNTER_FAULTS_FAULT_PLAN_HH
#define CCHUNTER_FAULTS_FAULT_PLAN_HH

#include <cstdint>
#include <string>

#include "util/config.hh"

namespace cchunter
{

/**
 * The fault schedule for one run.  All rates are probabilities in
 * [0, 1]; a default-constructed plan injects nothing.
 */
struct FaultPlan
{
    /** Seed of the per-fault decision streams. */
    std::uint64_t seed = 1;

    /** P(the daemon misses a quantum boundary entirely) — models the
     *  recording daemon being preempted past its wakeup. */
    double dropQuantumRate = 0.0;

    /** P(a quantum's histogram snapshot is recorded twice) — models a
     *  double wakeup / replayed drain. */
    double duplicateQuantumRate = 0.0;

    /** P(a drained conflict-event batch loses its tail) — models the
     *  128-byte vector registers overflowing before the drain. */
    double truncateBatchRate = 0.0;

    /** P(a drained conflict-event batch arrives out of order). */
    double reorderBatchRate = 0.0;

    /** P(one conflict event's (replacer, victim) 3-bit context ID is
     *  corrupted), applied per event. */
    double corruptContextRate = 0.0;

    /** P(a Bloom-filter probe that should miss reports a hit) — forces
     *  aliasing in the conflict-miss tracker beyond its natural
     *  false-positive rate. */
    double bloomAliasRate = 0.0;

    /** Clamp histogram-buffer accumulators and bins at the paper's
     *  16-bit hardware widths (saturation, not wrap). */
    bool saturatePaperWidths = false;

    /** True when any fault is scheduled. */
    bool enabled() const;

    /** Fatal when any rate lies outside [0, 1]. */
    void validate() const;

    /** Parse the `faults.*` keys of a Config (missing keys keep their
     *  defaults); validates the result.  A `faults.*` key the plan
     *  does not read is fatal, naming the keys it does read. */
    static FaultPlan fromConfig(const Config& cfg);

    /** Echo the plan into a Config under the `faults.*` keys. */
    void toConfig(Config& cfg) const;

    /** One-line human-readable rendering of the scheduled faults. */
    std::string summary() const;
};

} // namespace cchunter

#endif // CCHUNTER_FAULTS_FAULT_PLAN_HH

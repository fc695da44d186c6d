/**
 * @file
 * The benchmark's three seeded fleet workloads and the untraced fleet
 * pass that runs them through the public entry points.
 *
 * A workload is generated from one seed (the corpus base seed or the
 * synthetic-fleet seed); the program under test sees only the
 * resulting TenantRegistry and FleetAuditParams.  README.md in this
 * directory says why each workload exists and which layer it loads.
 */

#ifndef FLEETBENCH_WORKLOADS_HH
#define FLEETBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_auditor.hh"

namespace fleetbench
{

/** Ground truth of one tenant, from its corpus label or the mix. */
struct TenantTruth
{
    cchunter::TenantId id = 0;
    bool covert = false;

    /** The unit a covert tenant's channel runs on (None otherwise). */
    cchunter::MonitorTarget channelUnit = cchunter::MonitorTarget::None;

    /** Quanta the tenant simulates per pass. */
    std::size_t quanta = 0;
};

/** Full size for measurement; tiny for the package's own tests. */
enum class Size
{
    Full,
    Tiny,
};

/** One benchmark workload: the generated fleet and how it runs. */
struct Workload
{
    std::string name;
    cchunter::TenantRegistry registry;

    /** Parameters of an uninterrupted pass (persistence, when on,
     *  points at `stateDir`). */
    cchunter::FleetAuditParams params;

    /** Ascending tenant id order, like the registry. */
    std::vector<TenantTruth> truth;

    /** Kill the first run of each pass after this many batches, then
     *  resume from the state directory; 0 runs uninterrupted. */
    std::uint64_t killAfterBatches = 0;

    /** Where persisted state lands (crash-resume and restart probe). */
    std::string stateDir;

    /** Simulated quanta in the fleet, each tenant counted once. */
    std::uint64_t simulatedQuanta = 0;
};

/** Build workload `name` from `seed`; throws on an unknown name. */
Workload buildWorkload(const std::string& name, std::uint64_t seed,
                       Size size, const std::string& stateDir);

/** What one untraced fleet pass produced. */
struct PassResult
{
    /** The finalized report (the resumed run's, on crash-resume). */
    cchunter::FleetAuditReport report;

    /** From registry in to incident stream and action log out: the
     *  CPU seconds of every thread (core-seconds), and wall-seconds. */
    double coreSeconds = 0.0;
    double wallSeconds = 0.0;
};

/**
 * One closed-loop fleet pass: FleetAuditor::run (killed and resumed
 * for crash-resume).  The state directory is emptied before the clock
 * starts.
 */
PassResult runPass(const Workload& workload);

/** The pass with the kill switch off: the uninterrupted reference the
 *  resumed stream must equal. */
cchunter::FleetAuditReport runUninterrupted(const Workload& workload);

/**
 * Leave `dir` as a run of the workload killed after half its batches
 * leaves it, with persistence on whatever the workload's own passes
 * do.  This is the directory a restart reads.
 */
void prepareKilledDirectory(const Workload& workload,
                            const std::string& dir);

/** The action log hash, or 0 when the response loop was off. */
std::uint64_t actionHash(const cchunter::FleetAuditReport& report);

/** Detection outcome of a finalized incident stream. */
struct Quality
{
    std::size_t covert = 0;
    std::size_t covertDetected = 0;
    std::size_t negatives = 0;
    std::size_t negativesFlagged = 0;

    /** Mean and median over covert tenants of (first incident quantum
     *  + 1).  A missed tenant is not dropped: it counts as its run
     *  length + 1, the first quantum that never came. */
    double detectQuantaMean = 0.0;
    double detectQuantaP50 = 0.0;

    double tpr() const;
    double tnr() const;
};

Quality scoreQuality(const Workload& workload,
                     const cchunter::IncidentStore& incidents);

} // namespace fleetbench

#endif // FLEETBENCH_WORKLOADS_HH

/**
 * @file
 * The traced fleet pass: per-layer attribution from the benchmark's
 * own code.
 *
 * The pass is single-threaded and walks shards and tenants in the
 * fleet auditor's canonical order.  It rebuilds each tenant from the
 * same public pieces runOnlineAudit uses, times every call it makes
 * into a layer's public functions as a span, and then re-runs the
 * fleet stages (aggregation, persistence at the workload's cadence
 * with its kill point and recovery, response) itself.  Nothing inside
 * src/ is instrumented.  Fidelity is checked, not assumed: every
 * tenant's alarms must equal runOnlineAudit's, and the caller compares
 * the pass's stream hashes with the untraced pass's.
 */

#ifndef FLEETBENCH_TRACED_HH
#define FLEETBENCH_TRACED_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hh"

namespace fleetbench
{

/** One timed call into a layer (kept in memory, written at exit). */
struct Span
{
    std::string name;   //!< layer, or layer.part
    double start = 0.0; //!< seconds since the pass began
    double end = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 for none
    std::int64_t tenant = -1; //!< tenant id, -1 for fleet-level work
};

/** What one traced pass measured. */
struct TracedPass
{
    /** The pass's core-seconds (it runs on one thread). */
    double coreSeconds = 0.0;

    /** Per-layer metrics (name without unit, value), in report order;
     *  trace.overhead is left to the caller. */
    std::vector<std::pair<std::string, double>> metrics;

    std::vector<Span> spans;

    std::uint64_t incidentHash = 0;
    std::uint64_t actionHash = 0;

    /** Tenant audits attempted / missing from the finalized stream. */
    std::uint64_t tenantAudits = 0;
    std::uint64_t tenantsMissing = 0;

    /** Empty when every tenant's alarms equalled runOnlineAudit's;
     *  otherwise names the first tenant that differed. */
    std::string fidelityError;
};

/** One traced pass; `untraced` is a finished untraced pass of the
 *  same workload (its shard count and hand-off queue gauge). */
TracedPass runTracedPass(const Workload& workload,
                         const cchunter::FleetAuditReport& untraced);

/** Write spans as tab-separated lines (name, start, end, parent,
 *  tenant) to `path`. */
void writeSpans(const std::vector<Span>& spans, const std::string& path);

} // namespace fleetbench

#endif // FLEETBENCH_TRACED_HH

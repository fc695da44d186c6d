/**
 * @file
 * The fleet-audit benchmark program.
 *
 *   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--size full|tiny] [--state-dir <dir>]
 *              [--pin-incident <hex>] [--pin-action <hex>]
 *              [--spans <file>]
 *
 * One process of one run.  Untraced (--trace 0): set up (registry +
 * one warm-up pass), then run closed-loop fleet passes back to back
 * until --seconds are spent; prints the end-to-end metrics.
 * run.py splits an untraced run over several such processes and takes
 * medians.  Traced (--trace 1): a few untraced passes for the overhead
 * baseline, then traced passes and a restart probe; prints the
 * per-layer metrics of the median traced pass.
 *
 * Output checks, on any seed: repeated passes reproduce the warm-up
 * stream; a killed-and-resumed stream equals an uninterrupted one; a
 * traced stream equals the untraced one; every tenant's traced alarms
 * equal runOnlineAudit's.  At the default seed and full size the
 * stream hashes must also equal the pinned ones (or the --pin-*
 * overrides, at any size).  A failed check exits 1 with no result
 * line.  The last stdout line is the result as one JSON object.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu_time.hh"
#include "persist/recovery.hh"
#include "traced.hh"
#include "workloads.hh"

using namespace cchunter;

namespace fleetbench
{

namespace
{

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kMinPasses = 3;

/** Restarts the traced run's probe times: p99 has 10 samples beyond. */
constexpr std::size_t kRecoveryCalls = 1000;

/** Stream hashes at the default seed, full size. */
struct Pin
{
    const char* workload;
    std::uint64_t incidentHash;
    std::uint64_t actionHash; //!< 0: the response loop is off
};

const Pin kPins[] = {
    {"contention-1shard", 0xc432ab0e963adaae, 0},
    {"oscillation-2shard", 0xa90a68f3bcccf621, 0},
    {"crash-resume-1shard", 0xbb647cdb74ed7e18, 0xe87ab8353ce4d9a0},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string stateDir;
    std::optional<std::uint64_t> pinIncident;
    std::optional<std::uint64_t> pinAction;
    std::string spansPath;
};

std::uint64_t
parseUint(const std::string& flag, const std::string& text, int base)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used, base);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size())
        throw std::invalid_argument(flag + ": not a number: '" + text +
                                    "'");
    return v;
}

double
parseSeconds(const std::string& flag, const std::string& text)
{
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size())
        throw std::invalid_argument(flag + ": not a number: '" + text +
                                    "'");
    return v;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = parseUint(flag, value, 10);
        else if (flag == "--seconds")
            a.seconds = parseSeconds(flag, value);
        else if (flag == "--trace")
            a.trace = parseUint(flag, value, 10) != 0;
        else if (flag == "--size" && (value == "full" || value == "tiny"))
            a.size = value == "tiny" ? Size::Tiny : Size::Full;
        else if (flag == "--state-dir")
            a.stateDir = value;
        else if (flag == "--pin-incident")
            a.pinIncident = parseUint(flag, value, 16);
        else if (flag == "--pin-action")
            a.pinAction = parseUint(flag, value, 16);
        else if (flag == "--spans")
            a.spansPath = value;
        else
            throw std::invalid_argument("unknown argument " + flag + " " +
                                        value);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    if (a.stateDir.empty())
        a.stateDir = ".bench_state/" + a.workload + "-" +
                     std::to_string(::getpid());
    return a;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Thrown by a failed output check: exit 1, no result line. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

void
expectEqual(const char* what, std::uint64_t got, std::uint64_t want)
{
    if (got != want)
        throw CheckFailure(std::string(what) + ": got " + hex(got) +
                           ", expected " + hex(want));
}

/** Failure accounting across every operation the run attempted. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** A pass audits every tenant once; a tenant missing from the
     *  finalized report failed. */
    void pass(const Workload& w, const FleetAuditReport& report)
    {
        attempted += w.registry.size();
        if (report.tenantsAudited < w.registry.size())
            failed += w.registry.size() - report.tenantsAudited;
    }
};

/** The restart a killed fleet pays: fingerprint + recovery of `dir`,
 *  both read-only.  Fails on any defect or a cold start. */
struct RecoveryProbe
{
    std::vector<double> ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void sample(const Workload& w, const std::string& dir,
                std::size_t calls)
    {
        persist::PersistPolicy policy;
        policy.dir = dir;
        for (std::size_t i = 0; i < calls; ++i) {
            persist::PersistStats stats;
            const double t0 = threadCpuSeconds();
            const std::uint64_t fp = persist::registryFingerprint(w.registry);
            const persist::RecoveredFleetState state =
                persist::recoverFleetState(policy, fp, stats);
            ms.push_back(1e3 * (threadCpuSeconds() - t0));
            ++attempted;
            if (stats.defects.total() != 0 || stats.coldStarts != 0 ||
                state.batches.empty())
                ++failed;
        }
    }
};

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
printResult(bool correct, const Ledger& ledger,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", ledger.attempted,
                ledger.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Units of the per-layer metrics, by name suffix. */
const char*
layerUnit(const std::string& name)
{
    const auto endsWith = [&](const char* suffix) {
        const std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (endsWith("_s"))
        return "s";
    if (endsWith("ns_per_event"))
        return "ns";
    if (endsWith("us_per_analysis"))
        return "us";
    if (endsWith("_bytes"))
        return "bytes";
    if (endsWith("ratio"))
        return "ratio";
    if (endsWith("per_quantum"))
        return "events/quantum";
    return "count";
}

int
run(const Args& args)
{
    Ledger ledger;

    // --- set-up: registry + one warm-up pass ---
    const double setupStart = processCpuSeconds();
    Workload w = buildWorkload(args.workload, args.seed, args.size,
                               args.stateDir);
    const PassResult warm = runPass(w);
    const double setupSeconds = processCpuSeconds() - setupStart;
    ledger.pass(w, warm.report);
    const std::uint64_t incidentHash = warm.report.incidents.streamHash();
    const std::uint64_t actions = actionHash(warm.report);
    std::fprintf(stderr,
                 "%s seed=%" PRIu64 " registry=%s tenants=%zu quanta=%" PRIu64
                 " incidents=%zu hash=%s actions=%s\n",
                 w.name.c_str(), args.seed,
                 hex(persist::registryFingerprint(w.registry)).c_str(),
                 w.registry.size(), w.simulatedQuanta,
                 warm.report.incidents.incidents().size(),
                 hex(incidentHash).c_str(), hex(actions).c_str());

    // --- pins ---
    std::optional<std::uint64_t> pinIncident = args.pinIncident;
    std::optional<std::uint64_t> pinAction = args.pinAction;
    if (args.seed == kDefaultSeed && args.size == Size::Full)
        for (const Pin& pin : kPins)
            if (w.name == pin.workload) {
                if (!pinIncident)
                    pinIncident = pin.incidentHash;
                if (!pinAction && pin.actionHash != 0)
                    pinAction = pin.actionHash;
            }
    if (pinIncident)
        expectEqual("pinned incident-stream hash", incidentHash,
                    *pinIncident);
    if (pinAction)
        expectEqual("pinned action-log hash", actions, *pinAction);

    // --- a resumed stream must equal an uninterrupted run's ---
    if (w.killAfterBatches != 0) {
        const FleetAuditReport whole = runUninterrupted(w);
        ledger.pass(w, whole);
        expectEqual("resumed vs uninterrupted incident hash", incidentHash,
                    whole.incidents.streamHash());
        expectEqual("resumed vs uninterrupted action hash", actions,
                    actionHash(whole));
    }

    std::vector<Metric> metrics;
    const auto start = std::chrono::steady_clock::now();
    // Untraced passes: the timed loop, or the overhead baseline.
    std::vector<double> cores;
    std::vector<double> walls;
    const double passBudget = (args.trace ? 0.3 : 1.0) * args.seconds;
    for (std::size_t tried = 0;
         tried < kMinPasses || secondsSince(start) < passBudget; ++tried) {
        PassResult p;
        try {
            p = runPass(w);
        } catch (const std::exception& e) {
            // A pass that throws fails every tenant audit it owed.
            std::fprintf(stderr, "pass failed: %s\n", e.what());
            ledger.attempted += w.registry.size();
            ledger.failed += w.registry.size();
            continue;
        }
        ledger.pass(w, p.report);
        expectEqual("repeated pass incident hash",
                    p.report.incidents.streamHash(), incidentHash);
        expectEqual("repeated pass action hash", actionHash(p.report),
                    actions);
        cores.push_back(p.coreSeconds);
        walls.push_back(p.wallSeconds);
    }
    if (cores.empty())
        throw std::runtime_error("every timed pass failed");
    const double untracedCore = median(cores);

    if (!args.trace) {
        std::vector<double> rates;
        for (const double core : cores)
            rates.push_back(static_cast<double>(w.simulatedQuanta) / core);
        const Quality q = scoreQuality(w, warm.report.incidents);
        struct rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"quanta_per_core_s", median(rates), "quanta/s"},
            {"setup_s", setupSeconds, "s"},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
             "MB"},
            {"tpr", q.tpr(), "fraction"},
            {"tnr", q.tnr(), "fraction"},
            {"detect_quanta_mean", q.detectQuantaMean, "quanta"},
        };
        std::fprintf(stderr,
                     "passes=%zu core_s p25/p50/p75=%.4f/%.4f/%.4f "
                     "wall_s p50=%.4f covert=%zu/%zu "
                     "negatives_flagged=%zu/%zu\n",
                     cores.size(), quantile(cores, 0.25), untracedCore,
                     quantile(cores, 0.75), median(walls), q.covertDetected,
                     q.covert, q.negativesFlagged, q.negatives);
    } else {
        // The traced pass interleaves its replays with the fleet work.
        // Under glibc's adaptive thresholds their large buffers would
        // keep handing the heap back to the kernel, and the fleet
        // work would pay fresh page faults an untraced pass does not
        // (tripling crash-resume's tenant-build time).  Fixed
        // thresholds keep the heap warm for both.
        ::mallopt(M_MMAP_THRESHOLD, 256 << 20);
        ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
        std::vector<TracedPass> traced;
        while (traced.empty() || secondsSince(start) < args.seconds) {
            TracedPass t = runTracedPass(w, warm.report);
            ledger.attempted += t.tenantAudits;
            ledger.failed += t.tenantsMissing;
            if (!t.fidelityError.empty())
                throw CheckFailure(t.fidelityError);
            expectEqual("traced vs untraced incident hash", t.incidentHash,
                        incidentHash);
            expectEqual("traced vs untraced action hash", t.actionHash,
                        actions);
            traced.push_back(std::move(t));
        }
        // Report the pass with the median time, so its layer times
        // still sum to its own time.
        std::sort(traced.begin(), traced.end(),
                  [](const TracedPass& a, const TracedPass& b) {
                      return a.coreSeconds < b.coreSeconds;
                  });
        const TracedPass& mid = traced[traced.size() / 2];
        // The restart probe: a thousand restarts of a killed run's
        // directory.
        const std::string probeDir = w.stateDir + "-probe";
        prepareKilledDirectory(w, probeDir);
        RecoveryProbe probe;
        probe.sample(w, probeDir, kRecoveryCalls);
        std::filesystem::remove_all(probeDir);
        ledger.attempted += probe.attempted;
        ledger.failed += probe.failed;
        for (const auto& [name, value] : mid.metrics)
            metrics.push_back({name, value, layerUnit(name)});
        metrics.push_back({"persist.recover_ms_p50",
                           quantile(probe.ms, 0.5), "ms"});
        metrics.push_back({"persist.recover_ms_p99",
                           quantile(probe.ms, 0.99), "ms"});
        metrics.push_back(
            {"detect.quanta_p50",
             scoreQuality(w, warm.report.incidents).detectQuantaP50,
             "quanta"});
        metrics.push_back({"trace.overhead",
                           mid.coreSeconds / untracedCore - 1.0, "ratio"});
        if (!args.spansPath.empty())
            writeSpans(mid.spans, args.spansPath);
        std::fprintf(stderr, "traced_passes=%zu traced_core_s=%.4f "
                             "untraced_core_s=%.4f\n",
                     traced.size(), mid.coreSeconds, untracedCore);
    }

    std::filesystem::remove_all(w.stateDir);
    printResult(true, ledger, metrics);
    return 0;
}

} // namespace

} // namespace fleetbench

int
main(int argc, char** argv)
{
    fleetbench::Args args;
    try {
        args = fleetbench::parseArgs(argc, argv);
        return fleetbench::run(args);
    } catch (const fleetbench::CheckFailure& e) {
        std::fprintf(stderr, "fleetbench: CHECK FAILED: %s\n", e.what());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetbench: error: %s\n", e.what());
    }
    if (!args.stateDir.empty()) {
        std::filesystem::remove_all(args.stateDir);
        std::filesystem::remove_all(args.stateDir + "-probe");
    }
    return 1;
}

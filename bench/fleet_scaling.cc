/**
 * @file
 * Fleet-scaling benchmark: tenants/second versus shard count.
 *
 * Runs the same synthetic fleet at increasing shard counts, timing
 * each full FleetAuditor pass, and emits the series as
 * BENCH_fleet.json.  Two gates guard the run:
 *
 *  - Equivalence (always): every shard count must produce the same
 *    incident-stream hash — the subsystem's determinism contract.
 *  - Scaling (hardware-permitting): with >= 4 cores available, the
 *    1 -> 4 shard speedup on the default 16-tenant fleet must reach
 *    2.5x.  On smaller machines the expectation scales down to
 *    min(shards, cores) and the JSON records the cores seen, so CI
 *    on a big runner enforces the real target while a laptop (or a
 *    one-core container) still checks equivalence honestly instead
 *    of faking throughput.
 *
 * Arguments (key=value): tenants=16, quanta=8, quantum=2500000,
 * seed=1, max_shards=8, workers=0 (0 = hardware), out=BENCH_fleet.json.
 * Kernel knobs: analysis.simd=1 (vectorised analysis kernels),
 * fleet.batchedFft=1 (batched end-of-run transforms) — flip either
 * off to measure its contribution; the incident stream must stay
 * identical either way.  Any other key is a fatal error, so a retired
 * knob cannot be passed and silently ignored.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "fleet/fleet_auditor.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

/** The keys this bench reads; anything else is rejected. */
const std::vector<std::string> kKeys = {
    "tenants", "quanta", "quantum", "seed", "max_shards", "workers",
    "out", "analysis.simd", "fleet.batchedFft"};

void
rejectUnknownKeys(const Config& cfg)
{
    for (const std::string& key : cfg.keys()) {
        if (std::find(kKeys.begin(), kKeys.end(), key) != kKeys.end())
            continue;
        std::string known;
        for (const std::string& k : kKeys)
            known += (known.empty() ? "" : ", ") + k;
        fatal("bench_fleet_scaling: unknown key '", key,
              "' (reads: ", known, ")");
    }
}

struct ScalePoint
{
    std::size_t shards = 0;
    double wallMs = 0.0;
    double tenantsPerSec = 0.0;
    double speedup = 1.0;
    std::uint64_t incidentHash = 0;
    std::uint64_t alarms = 0;
    std::size_t incidents = 0;
};

void
writeJson(const std::string& path, const SyntheticFleetOptions& fleet,
          std::size_t hardware, bool equivalent,
          const std::vector<ScalePoint>& points)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"fleet_scaling\",\n");
    std::fprintf(f, "  \"tenants\": %zu,\n", fleet.tenants);
    std::fprintf(f, "  \"quanta\": %zu,\n", fleet.quanta);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(fleet.seed));
    std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", hardware);
    std::fprintf(f, "  \"equivalent\": %s,\n",
                 equivalent ? "true" : "false");
    std::fprintf(f, "  \"incident_hash\": \"0x%016llx\",\n",
                 points.empty()
                     ? 0ull
                     : static_cast<unsigned long long>(
                           points.front().incidentHash));
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint& p = points[i];
        std::fprintf(f,
                     "    {\"shards\": %zu, \"wall_ms\": %.2f, "
                     "\"tenants_per_sec\": %.3f, \"speedup\": %.3f, "
                     "\"alarms\": %llu, \"incidents\": %zu}%s\n",
                     p.shards, p.wallMs, p.tenantsPerSec, p.speedup,
                     static_cast<unsigned long long>(p.alarms),
                     p.incidents, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    try {
        rejectUnknownKeys(cfg);
    } catch (const std::runtime_error&) {
        return 2; // fatal() has already reported the key
    }
    SyntheticFleetOptions fleet;
    fleet.tenants = cfg.getUint("tenants", 16);
    fleet.quanta = cfg.getUint("quanta", 8);
    fleet.quantum = cfg.getUint("quantum", 2500000);
    fleet.seed = cfg.getUint("seed", 1);
    const std::size_t maxShards = cfg.getUint("max_shards", 8);
    const auto workers =
        static_cast<std::size_t>(cfg.getUint("workers", 0));
    const std::string out = cfg.getString("out", "BENCH_fleet.json");
    setSimdEnabled(cfg.getBool("analysis.simd", true));
    const bool batchedFft = cfg.getBool("fleet.batchedFft", true);

    const std::size_t hardware = ThreadPool::hardwareConcurrency();

    banner("Fleet scaling: tenants/second vs shard count",
           "The same fleet at every shard count must yield the same "
           "incident stream; added shards may only buy wall-clock "
           "time (up to the cores actually available).");
    std::printf("tenants=%zu quanta=%zu seed=%llu cores=%zu\n\n",
                fleet.tenants, fleet.quanta,
                static_cast<unsigned long long>(fleet.seed), hardware);

    const TenantRegistry registry = TenantRegistry::synthetic(fleet);

    std::vector<ScalePoint> points;
    TableWriter t({"shards", "wall ms", "tenants/s", "speedup",
                   "alarms", "incidents", "hash"});
    for (std::size_t shards = 1; shards <= maxShards; shards *= 2) {
        FleetAuditParams params;
        params.shards = shards;
        params.workerThreads = workers;
        params.batchedFft = batchedFft;
        FleetAuditor auditor(registry, params);

        const auto start = std::chrono::steady_clock::now();
        FleetAuditReport report = auditor.run();
        const auto end = std::chrono::steady_clock::now();

        ScalePoint p;
        p.shards = shards;
        p.wallMs = std::chrono::duration<double, std::milli>(
                       end - start)
                       .count();
        p.tenantsPerSec = p.wallMs > 0.0
                              ? 1000.0 * static_cast<double>(
                                             fleet.tenants) /
                                    p.wallMs
                              : 0.0;
        p.speedup = points.empty() || p.wallMs <= 0.0
                        ? 1.0
                        : points.front().wallMs / p.wallMs;
        p.incidentHash = report.incidents.streamHash();
        p.alarms = report.alarmsTotal;
        p.incidents = report.incidents.incidents().size();
        points.push_back(p);

        char hash[24];
        std::snprintf(hash, sizeof(hash), "0x%016llx",
                      static_cast<unsigned long long>(p.incidentHash));
        t.addRow({std::to_string(p.shards), fmtDouble(p.wallMs, 1),
                  fmtDouble(p.tenantsPerSec, 2),
                  fmtDouble(p.speedup, 2), std::to_string(p.alarms),
                  std::to_string(p.incidents), hash});
    }
    t.render(std::cout);

    bool equivalent = true;
    for (const ScalePoint& p : points)
        equivalent &= p.incidentHash == points.front().incidentHash;

    writeJson(out, fleet, hardware, equivalent, points);

    if (!equivalent) {
        std::fprintf(stderr, "FAIL: incident stream depends on the "
                             "shard count\n");
        return 1;
    }

    // Scaling gate, scaled to the hardware actually present: at the
    // 4-shard point the ideal speedup is min(4, cores); demand 2.5x
    // when 4+ cores exist and a proportional fraction (62.5%) of the
    // ideal otherwise.  A single-core machine is exempt (ideal = 1).
    for (const ScalePoint& p : points) {
        if (p.shards != 4)
            continue;
        const double ideal = static_cast<double>(
            std::min<std::size_t>(p.shards, hardware));
        const double required = ideal * (2.5 / 4.0);
        if (ideal > 1.0 && p.speedup < required) {
            std::fprintf(stderr,
                         "FAIL: 1->4 shard speedup %.2fx below the "
                         "%.2fx floor for %zu core(s)\n",
                         p.speedup, required, hardware);
            return 1;
        }
    }
    return 0;
}

/**
 * @file
 * Detection-quality matrix: the ground-truth-labelled corpus scored
 * end to end, with per-unit confusion matrices at the paper's 0.5
 * decision threshold, full ROC curves with AUC, and a
 * confidence-calibration table.  Emits BENCH_quality.json and exits
 * non-zero when the accuracy regression gate fails, so CI tracks
 * detection quality the same way it tracks correctness.
 *
 * Arguments (key=value): seed, quanta, quantum, threads
 * (analysis fan-out; the JSON must not depend on it), buckets
 * (calibration buckets), out=<path>, backend=cchunter|indicator2
 * (headline decision backend; both are always swept for the evasion
 * head-to-head regardless).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "eval/quality_gate.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

/**
 * Checked-in AUC baseline the gate regresses against (measured on the
 * default corpus at seed 1; see EXPERIMENTS.md), keyed by registry
 * unit name so it survives enum renumbering.  Every unit — including
 * the TLB channel added with the unit registry — separates its
 * positives from its negatives perfectly across the whole grid.
 */
const std::vector<std::pair<std::string, double>> kBaselineAuc = {
    {"bus", 1.0},      {"divider", 1.0}, {"multiplier", 1.0},
    {"cache", 1.0},    {"tlb", 1.0},
};

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);

    CorpusOptions corpusOptions;
    corpusOptions.seed = cfg.getUint("seed", 1);
    corpusOptions.quanta = cfg.getUint("quanta", corpusOptions.quanta);
    corpusOptions.quantum =
        cfg.getUint("quantum", corpusOptions.quantum);

    QualityScorerOptions scorer;
    scorer.analysisThreads = cfg.getUint("threads", 1);
    scorer.calibrationBuckets = cfg.getUint("buckets", 5);
    scorer.thresholds.backend = detectBackendFromName(
        cfg.getString("backend", "cchunter"));
    const std::string out = cfg.getString("out", "BENCH_quality.json");

    banner("Detection quality: labelled corpus, ROC/AUC, gate",
           "Every clean channel must be caught at the paper's 0.5 "
           "threshold, no benign pair may alarm, per-unit AUC must "
           "hold the checked-in baseline, and the indicator2 backend "
           "must win the evasion head-to-head.");

    const std::vector<LabelledScenario> corpus =
        buildLabelledCorpus(corpusOptions);
    std::printf("corpus: %zu labelled runs\n", corpus.size());
    const QualityReport report = scoreCorpus(corpus, scorer);

    TableWriter units({"unit", "clean tp/fn", "degraded tp/fn",
                       "fp/tn", "clean TPR", "FPR", "AUC", "AUC2"});
    for (const UnitQuality& q : report.units) {
        units.addRow({monitorTargetName(q.unit),
                      std::to_string(q.cleanTp) + "/" +
                          std::to_string(q.cleanFn),
                      std::to_string(q.degradedTp) + "/" +
                          std::to_string(q.degradedFn),
                      std::to_string(q.fp) + "/" +
                          std::to_string(q.tn),
                      fmtDouble(q.cleanTpr()),
                      fmtDouble(q.falsePositiveRate()),
                      fmtDouble(q.auc), fmtDouble(q.auc2)});
    }
    units.render(std::cout);

    // The arms race: pooled per-strategy AUC of each backend over the
    // evasive positives against the full negative set.
    TableWriter evasion({"strategy", "positives", "classic AUC",
                         "indicator2 AUC", "margin"});
    for (const EvasionStrategy strategy :
         {EvasionStrategy::RandomGaps, EvasionStrategy::DutyCycle,
          EvasionStrategy::LowAndSlow}) {
        const EvasionQuality* classic = nullptr;
        const EvasionQuality* second = nullptr;
        for (const EvasionQuality& q : report.evasion) {
            if (q.strategy != strategy)
                continue;
            (q.backend == DetectBackend::Indicator2 ? second
                                                    : classic) = &q;
        }
        if (!classic || !second)
            continue;
        evasion.addRow({evasionStrategyName(strategy),
                        std::to_string(classic->positives),
                        fmtDouble(classic->auc),
                        fmtDouble(second->auc),
                        fmtDouble(second->auc - classic->auc)});
    }
    std::printf("\nevasion head-to-head (pooled over units):\n");
    evasion.render(std::cout);

    TableWriter calib({"confidence", "alarms", "true alarms",
                       "mean conf", "precision"});
    for (const CalibrationBucket& b : report.calibration) {
        if (!b.alarms)
            continue;
        // Appended piece by piece: GCC 12's -Wrestrict misfires on a
        // "[" + ... operator+ chain here at -O2.
        std::string range = "[";
        range += fmtDouble(b.lo, 2);
        range += ", ";
        range += fmtDouble(b.hi, 2);
        range += ")";
        calib.addRow({range,
                      std::to_string(b.alarms),
                      std::to_string(b.trueAlarms),
                      fmtDouble(b.meanConfidence()),
                      fmtDouble(b.precision())});
    }
    std::printf("\nconfidence calibration (non-empty buckets):\n");
    calib.render(std::cout);

    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    const std::string json = report.toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());

    QualityGateParams gate;
    gate.baselineAuc = kBaselineAuc;
    const QualityGateResult verdict =
        evaluateQualityGate(report, gate);
    if (!verdict.pass) {
        std::fprintf(stderr, "\nQUALITY GATE FAILED:\n");
        for (const std::string& failure : verdict.failures)
            std::fprintf(stderr, "  - %s\n", failure.c_str());
        return 1;
    }
    std::printf("\nquality gate: PASS\n");
    return 0;
}

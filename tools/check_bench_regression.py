#!/usr/bin/env python3
"""Compare a fresh bench JSON against the checked-in baseline.

Two modes:

Timing mode (default) — google-benchmark JSON in, pass/fail out.
Every gated kernel bench may regress at most --threshold (default 10%)
relative to the baseline.  Raw wall times are useless across machines,
so both runs are normalised by a reference bench first:
BM_AutocorrelogramNaiveFull/16384 times a frozen copy of the
single-accumulator O(n·k) correlogram loop that lives in the bench
itself, so no library change moves it, making its ratio between the
two files a clean estimate of the machine-speed difference.  A gated bench
fails only if it got slower by more than the threshold *after* that
correction.

Metrics mode (--metrics) — simulated-clock quality metrics
(BENCH_mitigation.json and friends): both files carry a flat
"metrics" object whose key prefix encodes the good direction.
`reduction.*` entries are higher-better (fail when the current value
falls more than --tolerance below the baseline), `tax.*` entries are
lower-better (fail when it rises more than --tolerance above).  The
underlying runs are deterministic, so any drift at all means the
closed loop changed behaviour.

Usage:
    check_bench_regression.py CURRENT BASELINE [--threshold 0.10]
    check_bench_regression.py --metrics CURRENT BASELINE \\
        [--tolerance 0.01]
"""

import argparse
import json
import sys

# Machine-speed reference: a frozen loop in bench/analysis_perf.cc
# that no library kernel shares, so its drift measures the runner,
# not the code.
REFERENCE = "BM_AutocorrelogramNaiveFull/16384"

# Kernels under the regression gate.  These cover every optimisation
# the analysis-perf work introduced: planned SIMD FFT, the
# FFT-autocorrelation full path (also the fleet's deferred end-of-run
# transform), the k-means distance kernel and the incremental
# sliding-window maintainer.
GATED = [
    "BM_AutocorrelogramFftFull/16384",
    "BM_AutocorrelogramFftFull/65536",
    "BM_AutocorrelogramFftFull/262144",
    "BM_KMeans512",
    "BM_PlannedFft/4096/1",
    "BM_PlannedFft/65536/1",
    "BM_SlidingWindowIncremental",
]

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def normalize(name):
    """Drop run-modifier components like `/iterations:1` so names
    compare cleanly across invocations."""
    return "/".join(p for p in name.split("/") if ":" not in p)


class BenchFileError(Exception):
    """A bench file that cannot be compared (missing, unparseable,
    or structurally not google-benchmark output)."""


def load_times(path):
    """Return {bench name: cpu time in ns} for a benchmark JSON file.

    Raises BenchFileError (not a traceback) for a missing file,
    malformed JSON, or entries without the expected fields, so CI logs
    show a one-line diagnosis instead of a stack dump.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise BenchFileError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise BenchFileError(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise BenchFileError(
            f"{path}: top level is {type(doc).__name__}, expected a "
            "google-benchmark JSON object")
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        try:
            unit = _UNIT_NS[bench.get("time_unit", "ns")]
            times[normalize(bench["name"])] = \
                float(bench["cpu_time"]) * unit
        except (KeyError, TypeError, ValueError) as e:
            raise BenchFileError(
                f"{path}: malformed benchmark entry "
                f"{bench.get('name', '<unnamed>')!r}: {e!r}")
    return times


def load_metrics(path):
    """Return the flat {metric name: float} map of a metrics-mode
    bench file (the "metrics" object BENCH_mitigation.json emits)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise BenchFileError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise BenchFileError(f"{path} is not valid JSON: {e}")
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        raise BenchFileError(
            f"{path}: no \"metrics\" object — not a metrics-mode "
            "bench file")
    out = {}
    for name, value in metrics.items():
        if not isinstance(value, (int, float)):
            raise BenchFileError(
                f"{path}: metric {name!r} is not numeric")
        out[name] = float(value)
    return out


def metric_direction(name):
    """The good direction for a gated metric, by prefix; None for
    informational entries."""
    if name.startswith("reduction."):
        return "higher"
    if name.startswith("tax."):
        return "lower"
    return None


def compare_metrics(current, baseline, tolerance):
    """Metrics-mode comparison: deterministic quality numbers with a
    direction per prefix.  Returns the process exit code."""
    print(f"metrics tolerance: {tolerance:.3f}\n")
    header = f"{'metric':<44} {'baseline':>9} {'current':>9}  verdict"
    print(header)
    print("-" * len(header))

    failures = []
    for name in sorted(baseline):
        direction = metric_direction(name)
        if direction is None:
            continue
        if name not in current:
            failures.append(name)
            print(f"{name:<44} {baseline[name]:>9.4f} {'missing':>9}  "
                  "FAIL (metric disappeared)")
            continue
        drift = current[name] - baseline[name]
        bad = (drift < -tolerance if direction == "higher"
               else drift > tolerance)
        if bad:
            failures.append(name)
        print(f"{name:<44} {baseline[name]:>9.4f} "
              f"{current[name]:>9.4f}  "
              f"{'FAIL' if bad else 'ok'}")

    for name in sorted(set(current) - set(baseline)):
        if metric_direction(name) is not None:
            print(f"{name:<44} {'absent':>9} {current[name]:>9.4f}  "
                  "new (add to baseline)")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed beyond "
              f"{tolerance:.3f}: {', '.join(failures)}")
        return 1
    print("\nall gated metrics within tolerance")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh bench JSON")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed slowdown (fraction)")
    parser.add_argument("--metrics", action="store_true",
                        help="compare flat quality metrics instead of "
                             "google-benchmark timings")
    parser.add_argument("--tolerance", type=float, default=0.01,
                        help="max allowed metric drift in the bad "
                             "direction (metrics mode)")
    args = parser.parse_args()

    if args.metrics:
        try:
            current = load_metrics(args.current)
            baseline = load_metrics(args.baseline)
        except BenchFileError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        return compare_metrics(current, baseline, args.tolerance)

    try:
        current = load_times(args.current)
        baseline = load_times(args.baseline)
    except BenchFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for name, times in (("current", current), ("baseline", baseline)):
        if REFERENCE not in times:
            print(f"error: reference bench {REFERENCE} missing from "
                  f"{name} run", file=sys.stderr)
            return 2

    # >1 means this machine is slower than the baseline machine.
    machine = current[REFERENCE] / baseline[REFERENCE]
    print(f"machine-speed factor ({REFERENCE}): {machine:.3f}")
    print(f"regression threshold: {args.threshold:.0%}\n")

    header = f"{'benchmark':<40} {'baseline':>12} {'current':>12} " \
             f"{'norm ratio':>10}  verdict"
    print(header)
    print("-" * len(header))

    failures = []
    for name in GATED:
        if name not in baseline:
            print(f"{name:<40} {'absent':>12} {'-':>12} {'-':>10}  "
                  "skipped (not in baseline)")
            continue
        if name not in current:
            failures.append(name)
            print(f"{name:<40} {baseline[name]:>10.0f}ns {'missing':>12} "
                  f"{'-':>10}  FAIL (bench disappeared)")
            continue
        ratio = current[name] / baseline[name] / machine
        bad = ratio > 1.0 + args.threshold
        if bad:
            failures.append(name)
        print(f"{name:<40} {baseline[name]:>10.0f}ns "
              f"{current[name]:>10.0f}ns {ratio:>10.3f}  "
              f"{'FAIL' if bad else 'ok'}")

    if failures:
        print(f"\n{len(failures)} gated bench(es) regressed more than "
              f"{args.threshold:.0%}: {', '.join(failures)}")
        return 1
    print("\nall gated benches within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

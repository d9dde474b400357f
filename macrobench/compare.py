"""Compare two macrobench result files: ``compare.py A.json B.json``.

One row per workload × end-to-end metric: both medians, the ratio B/A with
its base (A's median), and a verdict against the metric's bound:

``same``        B's median is within the bound of A's;
``worse``       B is worse than A by more than the bound;
``better``      B is better than A by more than the bound;
``unresolved``  the run-to-run noise of either file exceeds the bound, so a
                difference of the bound's size could not be seen.

Noise is the range of a metric's repeated runs over their median when a
file holds three or more repeats; with fewer it falls back to the run's own
estimate for throughput, ``segment_spread / sqrt(segments)``.

Count-type per-layer metrics (``exact`` in ``config.PER_LAYER``) must be
identical when both files ran the same inputs for the same ``--seconds``.
Exit status is non-zero on any ``worse`` row, count mismatch, or failed run.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402


def _noise(entry: dict, workload: dict) -> float:
    values = entry["values"]
    if len(values) >= 3:
        return (max(values) - min(values)) / entry["median"]
    spreads = [
        spread / math.sqrt(samples["segments"])
        for spread, samples in zip(workload["segment_spread"], workload["samples"])
        if spread is not None and samples
    ]
    return max(spreads, default=0.0)


def verdict(metric: config.Metric, a: dict, b: dict, wa: dict, wb: dict) -> tuple[float, str]:
    ratio = b["median"] / a["median"]
    if max(_noise(a, wa), _noise(b, wb)) > metric.bound:
        return ratio, "unresolved"
    worsening = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if worsening > metric.bound:
        return ratio, "worse"
    if -worsening > metric.bound:
        return ratio, "better"
    return ratio, "same"


def compare(a: dict, b: dict, emit=print) -> int:
    bad = 0
    same_inputs = all(a[k] == b[k] for k in ("seed", "seconds", "smoke"))
    emit(f"{'workload':16s}{'metric':20s}{'A median':>14s}{'B median':>14s}  B/A (base A)    verdict")
    for name in config.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                emit(f"{name}: {side} has {w['failed']} failed of {w['attempted']}: {w['errors']}")
                bad += 1
        for metric in config.END_TO_END:
            ea, eb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            if ea["median"] is None or eb["median"] is None:
                continue
            ratio, word = verdict(metric, ea, eb, wa, wb)
            bad += word == "worse"
            emit(
                f"{name:16s}{metric.name:20s}{ea['median']:14.3f}{eb['median']:14.3f}"
                f"  {ratio:6.3f} ({ea['median']:.3f} {metric.unit})  {word}"
            )
        if not (same_inputs and wa["stream_sha256"] == wb["stream_sha256"]):
            emit(f"{name}: different inputs, count-type layer metrics not compared")
            continue
        for metric in config.PER_LAYER:
            if not metric.exact or not wa["per_layer"] or not wb["per_layer"]:
                continue
            va = wa["per_layer"][metric.name]["value"]
            vb = wb["per_layer"][metric.name]["value"]
            if va != vb:
                emit(f"{name:16s}{metric.name:36s} count mismatch: {va!r} != {vb!r}")
                bad += 1
    emit("no regression, counts identical" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    with open(sys.argv[1], encoding="utf-8") as fa, open(sys.argv[2], encoding="utf-8") as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())

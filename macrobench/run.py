"""macrobench: one end-to-end benchmark, five workloads, a per-layer traced run.

Driver contract (``BENCHMARK.json``)::

    python3 macrobench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` every workload is run ``--repeats`` times untraced and
once traced, each in a fresh process, and the combined result (medians,
environment, stream digests) is written to ``--out`` for ``compare.py``.

See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import asdict
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"macrobench: {SRC}/repro not found; run from a checkout of the repository")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import config  # noqa: E402
from gen import Stream  # noqa: E402
from harness import (  # noqa: E402
    WORK_ROOT,
    CheckFailed,
    InProcHost,
    Phase,
    ServedHost,
    end_to_end,
    pin_to_last_cpu,
)
from hostspeed import HostSpeed  # noqa: E402


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------

def run_phase(
    host, stream: Stream, phase: Phase, seconds: float | None, txns: int | None,
    rss_at: int | None = None, meter: HostSpeed | None = None,
) -> float | None:
    """Timed segments until ``seconds`` elapsed or exactly ``txns`` committed.

    The next segment's operations are generated between segments, outside
    every timed interval.  With ``meter`` a segment is run in slices and the
    host's speed is probed before each, again outside every timed interval.
    With ``rss_at``, returns the host's peak RSS as read once that many
    transactions had committed (or at the end, if the phase was shorter).
    """
    chunk = host.workload.chunk_ops
    if meter is not None:
        phase.slices_per_segment = config.SLICES_PER_SEGMENT
    size = max(1, chunk // phase.slices_per_segment)
    deadline = None if seconds is None else time.perf_counter() + seconds
    done = 0
    rss = None
    probes: list[int] = []
    while True:
        if rss is None and rss_at is not None and done >= rss_at:
            rss = host.peak_rss_mb()
        if txns is not None:
            if done >= txns:
                break
            # Never more than one chunk's worth of work, reads included.
            share = 1.0 - host.workload.read_share
            ops = stream.take_txns(min(txns - done, max(1, int(chunk * share))))
        else:
            if time.perf_counter() >= deadline and phase.segments >= 5:
                break
            ops = stream.take(size * phase.slices_per_segment)
        for at in range(0, len(ops), size):
            if meter is not None:
                probes.append(meter.sample())
            host.run_chunk(ops[at:at + size], phase, first_txn=done)
            done = phase.txns
    if meter is not None:
        probes.append(meter.sample())
        phase.host = meter.slice_factors(probes)
    if rss is None and rss_at is not None:
        rss = host.peak_rss_mb()
    return rss


def nominal_seconds(smoke: bool) -> float:
    """The ``--seconds`` that ``Workload.trace_txns`` is sized for."""
    return 0.3 if smoke else float(config.RUN_SECONDS)


def run_workload(args: argparse.Namespace) -> dict:
    workload = config.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    pinning = pin_to_last_cpu()
    stream = Stream(workload, args.seed)
    tracer = None
    if args.trace and not workload.served:
        from tracer import Tracer

        tracer = Tracer()
    host = (
        ServedHost(workload, stream, bool(args.trace), args.spans)
        if workload.served
        else InProcHost(workload, stream, tracer)
    )
    result: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed",
        "clients": host.clients,
        "flush_policy": host.flush_policy,
        "cpu_pinning": pinning,
        "sizes": {k: v for k, v in asdict(workload).items() if k not in ("name", "why")},
    }
    phases: list[Phase] = []
    error = None
    try:
        # End-to-end times are reported at reference host speed; the traced
        # run's are as measured (a span is not rescaled).
        meter = None if args.trace else HostSpeed()
        setups = host.setup(1 if args.trace else config.SETUP_REPEATS, meter)
        warm = Phase()
        host.run_chunk(stream.warmup() + stream.take(workload.chunk_ops), warm, first_txn=0)
        host.end_phase(warm)
        phases.append(warm)
        if args.trace:
            import layers

            traced, reference = Phase(), Phase()
            phases += [traced, reference]
            count = max(5, round(workload.trace_txns * args.seconds / nominal_seconds(args.smoke)))
            # Traced first: its operations must not depend on how far a
            # time-bounded phase got.
            with host.recording() as capture:
                run_phase(host, stream, traced, None, count)
            host.end_phase(traced)  # its stats requests stay out of the recording
            run_phase(host, stream, reference, args.seconds * config.REFERENCE_SHARE, None)
            host.end_phase(reference)
            host.verify()
            if workload.served:
                child = host.child_report()
                capture["report"], capture["setup_report"] = child["run"], child["setup"]
            elif args.spans:
                tracer.dump(args.spans)
            metrics = layers.per_layer(
                traced, reference, capture, workload.served, workload.wal_tail
            )
            table = config.PER_LAYER
        else:
            main = Phase()
            phases.append(main)
            rss = run_phase(
                host, stream, main, args.seconds, None, rss_at=workload.trace_txns, meter=meter
            )
            host.end_phase(main)
            host.verify()
            metrics = end_to_end(main, setups, rss)
            table = config.END_TO_END
            result["samples"] = {
                "commit": len(main.commit_ns),
                "feed": len(main.feed_ns),
                "query": len(main.query_ns),
                "segments": main.segments,
                "setups": setups,
            }
            result["segment_spread"] = main.segment_spread()
            result["segment_txn_per_s"] = main.rates()
            result["slice_host_factor"] = main.host
            deciles = statistics.quantiles(main.host, n=10)
            result["host_factor"] = {"p10": deciles[0], "median": deciles[4], "p90": deciles[8]}
    except CheckFailed as exc:
        error = str(exc)
    finally:
        host.close()
    result["attempted"] = max(1, sum(p.attempted for p in phases))
    result["failed"] = sum(p.failed for p in phases) + (error is not None)
    result["correct"] = error is None and result["failed"] == 0
    result["error"] = error
    result["stream_sha256"] = stream.digest()
    if error is None:
        result["metrics"] = {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in table
        }
    else:
        result["metrics"] = {}
    return result


def print_metrics(result: dict) -> None:
    print(
        f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} loop={result['loop']} clients={result['clients']} "
        f"flush={result['flush_policy']} pinning={result['cpu_pinning']}"
    )
    print(f"# stream_sha256={result['stream_sha256']} sizes={result['sizes']}")
    if "samples" in result:
        print(f"# samples={result['samples']} segment_spread={result['segment_spread']:.4f}")
        print(f"# host_factor={result['host_factor']} (times below are divided by it)")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.4f} {metric['unit']}")
    if result["error"]:
        print(f"# CHECK FAILED: {result['error']}")


# ----------------------------------------------------------------------
# Every workload, one result file
# ----------------------------------------------------------------------

def environment() -> dict:
    """What the numbers depend on besides the code under test."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    os.makedirs(WORK_ROOT, exist_ok=True)
    filesystem = "unknown"
    best = ""
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            _, mount_point, fs_type = line.split()[:3]
            if WORK_ROOT.startswith(mount_point) and len(mount_point) > len(best):
                best, filesystem = mount_point, fs_type
    probe_path = os.path.join(WORK_ROOT, f"fsync_probe-{os.getpid()}")
    samples = []
    with open(probe_path, "ab") as probe:
        for _ in range(500):
            probe.write(b"x" * 64)
            probe.flush()
            started = time.perf_counter_ns()
            os.fsync(probe.fileno())
            samples.append(time.perf_counter_ns() - started)
    os.remove(probe_path)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "work_dir": WORK_ROOT,
        "work_dir_filesystem": filesystem,
        "fsync_probe_median_us": statistics.median(samples) / 1000.0,
        "fsync_probe_calls": len(samples),
    }


def run_all(args: argparse.Namespace) -> int:
    out: dict = {
        "environment": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "workloads": {},
    }
    records = os.path.join(WORK_ROOT, f"records-{os.getpid()}")
    os.makedirs(records)
    try:
        for name in config.WORKLOADS:
            runs = []
            for number, trace in enumerate([0] * args.repeats + [1]):
                record = os.path.join(records, f"{name}-{number}.json")
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", record,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if not os.path.exists(record):
                    return done.returncode or 1
                with open(record, encoding="utf-8") as stream:
                    runs.append(json.load(stream))
                print_metrics(runs[-1])
            out["workloads"][name] = summarize(runs[:-1], runs[-1])
    finally:
        shutil.rmtree(records, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(out, stream, indent=1, sort_keys=True)
    return 0 if all(not w["failed"] for w in out["workloads"].values()) else 1


def summarize(untraced: list[dict], traced: dict) -> dict:
    """One workload's entry of the result file."""
    runs = untraced + [traced]
    end_to_end_values = {
        m.name: [r["metrics"][m.name]["value"] for r in untraced if r["metrics"]]
        for m in config.END_TO_END
    }
    return {
        **{k: traced[k] for k in
           ("stream_sha256", "sizes", "loop", "clients", "flush_policy", "cpu_pinning")},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [r["error"] for r in runs if r["error"]],
        "segment_spread": [r.get("segment_spread") for r in untraced],
        "samples": [r.get("samples") for r in untraced],
        "end_to_end": {
            m.name: {
                "unit": m.unit,
                "values": end_to_end_values[m.name],
                "median": statistics.median(end_to_end_values[m.name])
                if end_to_end_values[m.name] else None,
            }
            for m in config.END_TO_END
        },
        "per_layer": traced["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all counts / 100")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload when running them all")
    parser.add_argument("--out", help="write the combined result (or one run's) as JSON")
    parser.add_argument("--spans", help="traced run: also write every span to this file")
    args = parser.parse_args()
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = nominal_seconds(args.smoke)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print_metrics(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(result, stream, indent=1, sort_keys=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

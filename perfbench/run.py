"""The jfilt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh single-threaded
Python processes (``perfbench/worker.py``) that import jfilt from the
checkout's ``src``, one after another, never two at once.

``--trace 0`` starts one process that sets up and runs the timed closed loop
for ``--seconds``, with ``SETUP_SAMPLES`` processes that only set up, half
before it and half after; it reports the end-to-end metrics, with ``setup_s``
the median of all set-up times.  Spreading the set-ups over the run keeps
one slow phase of the machine from moving all of them.

Times are reported at a reference speed of the host.  The worker times a
fixed piece of its own pure-Python work (``worker.reference``) between every
two jobs, and each job's time is scaled by ``REFERENCE_MS`` over the mean
of the reference times around it; set-up times are scaled the same way.
The shared host's speed drifts by up to 1.5x over seconds to minutes, and
the ratio of a job's time to the reference's drifts far less.  Each pool
input is valued at the median of its scaled repeats.

``--trace 1`` runs the untraced process again and then a traced one with the
same seed.  The traced process wraps the public entry points of every jfilt
layer from the benchmark's own code (``perfbench/tracing.py``) and reports
per-layer metrics; ``trace.overhead_ratio`` is untraced ``jobs_per_s`` over
traced ``jobs_per_s``.  Every output must be identical with and without
tracing.

Human-readable lines (run conditions, sample counts, metrics with quartiles,
absent per-layer metrics and why) come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 whenever that line is printed, and nonzero
when the benchmark cannot run at all (for example outside a checkout).
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import reference, reference_time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 16  # set-up-only processes per untraced run, besides the timed one
TIME_LIMIT_S = 170  # the whole command must end within 180 s
# Job times are reported at the host speed at which one run of the worker's
# reference work takes this long; a 2-vCPU Xeon takes 0.8-1.5 ms.
REFERENCE_MS = 1.0


END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def percentile(values, p: int):
    """The ``p``-th percentile by nearest rank: the smallest value with at
    least ``p`` percent of ``values`` at or below it.  It never interpolates
    between two samples, so a failed job's ``inf`` beyond the percentile
    cannot turn it into NaN."""
    ranked = sorted(values)
    return ranked[max(-(-p * len(ranked) // 100), 1) - 1]


def quartiles(values):
    return tuple(percentile(values, p) for p in (25, 50, 75))


def run_worker(args, extra, deadline, label):
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--workdir", work]
        parent_ref_ms = reference_time()[0] / 1e6
        t0 = time.monotonic()
        proc = subprocess.Popen(argv + extra + ["--t0", repr(t0)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("%s process did not finish in time" % label)
        if proc.returncode != 0:
            raise BenchError("%s process exited with %d" % (label, proc.returncode))
        result = json.loads(out.strip().splitlines()[-1])
        # The reference just before the process started and just after it set up.
        result["setup_ref_ms"] = (parent_ref_ms + result["setup_ref_ms"]) / 2
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def conditions() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def at_reference_speed(result: dict, key: str, ref_key: str) -> list:
    """Each job's ``key`` (ms) as it would read at the host speed at which
    one run of the reference work takes ``REFERENCE_MS``: scaled by the
    reference's time measured just before and after the job.  The shared
    host's speed drifts by up to 1.5x over seconds to minutes; the ratio of
    job time to reference time drifts far less (see NOTES.md)."""
    return [value * REFERENCE_MS / ref for value, ref in zip(result[key], result[ref_key])]


def setup_at_reference_speed(result: dict) -> float:
    """A process's set-up time (s), scaled like the job times by the
    reference measured just before it started and just after it set up."""
    return result["setup_s"] * REFERENCE_MS / result["setup_ref_ms"]


def per_input(result: dict, values) -> dict:
    """Pool index -> the median of its jobs' ``values``.  Failed jobs read
    ``inf``, and one failed repeat makes its input ``inf``."""
    by_input = {}
    for i, value in zip(result["pool_indices"], values):
        by_input.setdefault(i, []).append(value)
    return {i: max(v) if math.isinf(max(v)) else statistics.median(v) for i, v in by_input.items()}


def job_values(result: dict, key: str, ref_key: str) -> list:
    """Every job of the run valued at its pool input's median, at the
    reference speed."""
    typical = per_input(result, at_reference_speed(result, key, ref_key))
    return [typical[i] for i in result["pool_indices"]]


def end_to_end(main: dict, setups) -> dict:
    lat = job_values(main, "latencies_ms", "ref_ms")
    cpu = job_values(main, "cpu_ms", "ref_cpu_ms")
    return {
        "jobs_per_s": 1000.0 * len(lat) / sum(lat),
        "job_p50_ms": percentile(lat, 50),
        "job_p90_ms": percentile(lat, 90),
        "cpu_ms_per_job": sum(cpu) / len(cpu),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def overhead_ratio(untraced: dict, traced: dict) -> float:
    """Untraced over traced jobs per second, on the same inputs: the sum of
    per-input latencies traced, over the same sum untraced, both at the
    reference speed."""
    u = per_input(untraced, at_reference_speed(untraced, "latencies_ms", "ref_ms"))
    t = per_input(traced, at_reference_speed(traced, "latencies_ms", "ref_ms"))
    common = u.keys() & t.keys()
    return sum(t[i] for i in common) / sum(u[i] for i in common)


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["lie.hall_basis.hit_ratio"] = traced["hall_basis_hit_ratio"] or 0.0
    layers["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
    return layers


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/job"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("_max"):
        return "count"
    if name == "cli.bytes_out":
        return "B/job"
    return "1/job"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The result as strict JSON.  A value that is not finite, such as a
    latency percentile that a failed job reaches, is written as null."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }, allow_nan=False)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join("src", "jfilt", "__init__.py")):
        print("error: run from the root of a jfilt checkout (no src/jfilt here)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.abspath("src")]
    import tracing
    from workloads import LETTER_BUDGET, WORKLOADS

    if args.workload not in WORKLOADS:
        p.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    cond = conditions()
    for _ in range(3):  # warm up the reference before its first timed run
        reference()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            untraced = run_worker(args, [], deadline, "untraced")
            traced = run_worker(args, ["--trace"], deadline, "traced")
            runs = [untraced, traced]
            metrics = per_layer(untraced, traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            def set_up_only(count):
                return [run_worker(args, ["--setup-only"], deadline, "set-up")
                        for _ in range(count)]

            before = set_up_only(SETUP_SAMPLES // 2)
            main_run = run_worker(args, [], deadline, "timed")
            setups = [setup_at_reference_speed(r) for r in
                      before + [main_run] + set_up_only(SETUP_SAMPLES - len(before))]
            runs = [main_run]
            metrics = end_to_end(main_run, setups)
            units = END_TO_END
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same = all(runs[0]["digests"][i] == d for r in runs[1:] for i, d in r["digests"].items()
               if i in runs[0]["digests"])
    correct = failed == 0 and same

    print("workload %s, seed %d, %g s: %s" % (args.workload, args.seed, args.seconds, workload.why))
    print("conditions %s" % json.dumps(cond))
    inputs = {"pool": workload.pool_size}
    if args.workload == "cli_chain":
        inputs["letter_budget"] = LETTER_BUDGET
    print("inputs %s" % json.dumps(inputs))
    for label, r in zip(("untraced", "traced") if args.trace else ("timed",), runs):
        q1, q2, q3 = quartiles(r["latencies_ms"])
        repeats = collections.Counter(r["pool_indices"]).values()
        print("%s run: %d jobs attempted, %d failed (failed_ratio %.4f), %.2f s, "
              "%.3f jobs/s by the wall clock, job latency ms q1/median/q3 "
              "%.2f/%.2f/%.2f over %d samples, reference median %.3f ms, "
              "%d-%d runs of each of %d inputs, checked in %.2f s"
              % (label, r["attempted"], r["failed"], r["failed"] / max(r["attempted"], 1),
                 r["wall_s"], r["jobs"] / r["wall_s"], q1, q2, q3, len(r["latencies_ms"]),
                 statistics.median(r["ref_ms"]), min(repeats), max(repeats), len(repeats), r["verify_s"]))
    if not args.trace:
        q1, q2, q3 = quartiles(setups)
        print("setup_s q1/median/q3 %.4f/%.4f/%.4f over %d samples" % (q1, q2, q3, len(setups)))
    if not same:
        print("outputs differ between the traced and the untraced run")
    for name in sorted(metrics):
        print("  %-52s %14.6g %s" % (name, metrics[name], units[name]))
    if args.trace:
        for name in tracing.all_span_names():
            if metrics.get(name + ".calls"):
                continue
            layer = name.split(".", 1)[0]
            reason = workload.unused.get(layer, "this workload makes no call to it")
            print("  absent: %s (%s)" % (name, reason))

    print(result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --t0 T
        [--trace] [--setup-only] [--workdir DIR]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the first timed job, so it covers
interpreter start, imports, seeded input generation and the warm-up of the
Lyndon/Hall caches.  Right after set-up the worker times its reference
work once (``setup_ref_ms``) for the parent to scale set-up time by.  The
last line of standard output is one JSON object.
Run it through ``perfbench/run.py``, which sets ``PYTHONPATH`` to the
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

REFERENCE_ROUNDS = 4000  # 0.8-1.5 ms on a 2-vCPU Xeon, by the phase it is in


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)

    import jfilt  # noqa: F401  (part of the measured set-up)
    import workloads
    from tracing import Tracer, layer_report

    workload = workloads.WORKLOADS[args.workload]
    pool = workload.pool(random.Random(args.seed), args.workdir)
    workloads.warm(workload.cache_keys(pool))
    setup_s = time.monotonic() - args.t0
    for _ in range(3):
        reference()
    setup_ref_ms = reference_time()[0] / 1e6
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_ms": setup_ref_ms}))
        return 0

    tracer = Tracer() if args.trace else None
    result = run_loop(workload, pool, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["setup_ref_ms"] = setup_ref_ms
    t0 = time.perf_counter()
    check(workload, pool, result)
    result["verify_s"] = time.perf_counter() - t0
    if tracer is not None:
        result["layers"] = layer_report(tracer, result["attempted"])
    print(json.dumps(result))
    return 0


def reference() -> int:
    """Fixed work that calls no jfilt code: int arithmetic and lookups in
    a dict of some thousand entries, the kind of work the library's inner
    loops do.  Its time between two jobs tells how fast the shared host ran
    this process just then.  It holds only ints, which the garbage collector
    does not track, so the size of jfilt's heap does not change its time."""
    table = {}
    acc = 0
    for i in range(REFERENCE_ROUNDS):
        key = (i * 2654435761) & 0xFFF
        acc += table.get(key, i) % 1000003
        table[key] = acc & 0xFFFFFFF
    return acc


def reference_time():
    """(wall ns, CPU ns) of one run of ``reference``."""
    c0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0, time.process_time_ns() - c0


def run_loop(workload, pool, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: run pool jobs back to back for ``seconds``.
    A traced loop also finishes its current pass over the pool, so its
    per-job counts cover whole passes.

    The first output for each pool input is kept for ``check``; a repeat is
    reduced to its digest at once, so stored outputs do not grow with the
    run.  Between two jobs the loop times ``reference``, so every job has a
    reference time taken just before it and one just after.  Digesting and
    the reference are bookkeeping: their time is taken out of the loop's
    wall time."""
    import jfilt.lie
    import workloads

    first = {}  # pool index -> output of its first successful run
    # (pool index, latency ns, CPU s, digest or None if kept in full or
    # raised, raised)
    jobs = []
    refs = [reference_time()]  # refs[i] and refs[i + 1] surround job i
    raised = 0
    book_ns = 0
    cache_before = jfilt.lie.hall_basis.cache_info()
    if tracer is not None:
        tracer.install()
    wall0 = time.perf_counter_ns()
    deadline = wall0 + int(seconds * 1e9)
    i = 0
    try:
        while True:
            idx = i % len(pool)
            if tracer is not None:
                tracer.current_job = i
            c0 = time.process_time()
            t0 = time.perf_counter_ns()
            try:
                out = workload.run(pool[idx])
            except Exception as exc:  # a failing job is counted, not fatal
                print("job %d (pool %d) raised %r" % (i, idx, exc), file=sys.stderr)
                out = None
                raised += 1
            t1 = time.perf_counter_ns()
            c1 = time.process_time()
            digest = None
            if out is not None:
                if idx in first:
                    digest = workloads.digest(out)
                else:
                    first[idx] = out
            jobs.append((idx, t1 - t0, c1 - c0, digest, out is None))
            out = None
            refs.append(reference_time())
            i += 1
            book_ns += time.perf_counter_ns() - t1
            if t1 >= deadline and (tracer is None or i % len(pool) == 0):
                break
    finally:
        if tracer is not None:
            tracer.restore()
    wall_ns = time.perf_counter_ns() - wall0 - book_ns
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = jfilt.lie.hall_basis.cache_info()
    hits, misses = info.hits - cache_before.hits, info.misses - cache_before.misses
    return {
        "attempted": len(jobs),
        "raised": raised,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": rss_mb,
        "hall_basis_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "first": first,
        "jobs": jobs,
        "refs": refs,
    }


def check(workload, pool, result: dict) -> None:
    """Verify the first output of each pool input and require every repeat
    to have the same digest; fills in the per-job verdicts."""
    import workloads

    first = result.pop("first")
    digests = {idx: workloads.digest(out) for idx, out in first.items()}
    verdict = {}
    for idx, out in first.items():
        try:
            verdict[idx] = bool(workload.verify(pool[idx], out))
        except Exception as exc:
            print("verify (pool %d) raised %r" % (idx, exc), file=sys.stderr)
            verdict[idx] = False
    refs = result.pop("refs")
    latencies = []
    cpu = []
    indices = []
    failed = 0
    for idx, ns, cpu_s, digest, raised in result.pop("jobs"):
        ok = not raised and verdict.get(idx, False) and digest in (None, digests[idx])
        failed += not ok
        latencies.append(ns / 1e6 if ok else float("inf"))
        cpu.append(cpu_s * 1e3 if ok else float("inf"))
        indices.append(idx)
    result["failed"] = failed
    result["jobs"] = result["attempted"] - failed
    result["latencies_ms"] = latencies
    result["cpu_ms"] = cpu
    result["ref_ms"] = [(a[0] + b[0]) / 2e6 for a, b in zip(refs, refs[1:])]
    result["ref_cpu_ms"] = [(a[1] + b[1]) / 2e6 for a, b in zip(refs, refs[1:])]
    result["pool_indices"] = indices
    result["digests"] = {str(i): d for i, d in sorted(digests.items())}


if __name__ == "__main__":
    sys.exit(main())

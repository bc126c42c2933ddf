"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
root of the checkout."""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import jfilt  # noqa: E402
import jfilt.automorphisms  # noqa: E402
import jfilt.lie  # noqa: E402
import jfilt.words  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_install_patches_every_holder_and_restore_undoes_it():
    magnus = jfilt.words.magnus_expand
    eq = jfilt.automorphisms.NilAut.__eq__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = jfilt.words.magnus_expand
        assert wrapped is not magnus
        # Modules that imported the function by name see the wrapper too.
        assert jfilt.magnus_expand is wrapped
        assert jfilt.lie.magnus_expand is wrapped
        assert jfilt.automorphisms.magnus_expand is wrapped
        assert jfilt.automorphisms.NilAut.__eq__ is not eq
        h = jfilt.identity_aut(2, 3)
        assert h == jfilt.compose(h, h)
        jfilt.parse_word("x1 y1", jfilt.Alphabet(1))
        with pytest.raises(jfilt.ValidationError):
            jfilt.parse_word("x1 (", jfilt.Alphabet(1))
    finally:
        tracer.restore()
    assert jfilt.words.magnus_expand is magnus
    assert jfilt.magnus_expand is magnus
    assert jfilt.lie.magnus_expand is magnus
    assert jfilt.automorphisms.magnus_expand is magnus
    assert jfilt.automorphisms.NilAut.__eq__ is eq

    spans = tracer.spans()
    index = {name: [i for i, s in enumerate(spans) if s[0] == name] for name, *_ in spans}
    eq_span = index["automorphisms.eq"][0]
    nil_spans = [i for i in index["words.nilpotent_equal"] if spans[i][3] == eq_span]
    assert nil_spans, "nilpotent_equal calls are children of the __eq__ span"
    assert any(spans[i][3] in nil_spans for i in index["words.magnus_expand"])
    assert tracer.raised == {"words": 1}
    # Counts come from calls that returned; the failed parse only adds to raised.
    assert tracer.counts["words.parse_word.in_chars"] == len("x1 y1")


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0,100] has children a [10,40], b [50,60] and c [35,45], which
    # overlaps a; a has a child d [20,30].
    starts = [0, 10, 50, 35, 20]
    ends = [100, 40, 60, 45, 30]
    parents = [-1, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [100 - 45, 30 - 10, 10, 10, 10]


def test_layer_report_on_a_synthetic_span_tree():
    t = tracing.Tracer()
    root = t.record("trees.span_check", 0, 1000, -1, 0)
    child = t.record("trees.tree_to_dk", 100, 600, root, 0)
    t.record("lie.lie_bracket", 200, 300, child, 0)
    t.record("lie.lie_bracket", 300, 500, child, 0)
    t.record("trace", 600, 650, root, 0)
    report = tracing.layer_report(t, jobs=2)
    assert report["trees.span_check.calls"] == 0.5
    assert report["trees.span_check.self_s"] == pytest.approx((1000 - 500 - 50) / 1e9 / 2)
    assert report["trees.tree_to_dk.self_s"] == pytest.approx(200 / 1e9 / 2)
    assert report["lie.lie_bracket.calls"] == 1
    assert report["lie.lie_bracket.self_s"] == pytest.approx(300 / 1e9 / 2)
    assert report["trace.self_s"] == pytest.approx(50 / 1e9 / 2)
    assert report["orientation.orient.calls"] == 0


def _pool_key(name, seed, tmp_path):
    workdir = tmp_path / ("%s-%d-%d" % (name, seed, len(os.listdir(tmp_path))))
    workdir.mkdir()
    pool = workloads.WORKLOADS[name].pool(random.Random(seed), str(workdir))
    if name == "cli_chain":  # paths differ by directory; compare the factors
        pool = [(g, k, factors) for g, k, _, factors, _ in pool]
    return workloads.digest(pool)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _pool_key(name, 7, tmp_path)
    assert _pool_key(name, 7, tmp_path) == first
    assert _pool_key(name, 8, tmp_path) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_verification_with_and_without_tracing(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    pool = workload.pool(random.Random(3), str(tmp_path))[:3]
    workloads.warm(workload.cache_keys(pool))
    results = []
    for tracer in (None, tracing.Tracer()):
        result = worker.run_loop(workload, pool, 0.0, tracer)
        worker.check(workload, pool, result)
        assert result["attempted"] >= 1 and result["failed"] == 0
        results.append(result)
    untraced, traced = results
    assert traced["attempted"] == len(pool)
    for i, d in untraced["digests"].items():
        assert traced["digests"][i] == d
    report = tracing.layer_report(tracer, traced["attempted"])
    names = set(report) | {"lie.hall_basis.hit_ratio", "trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]


def test_spec_matches_the_end_to_end_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_percentiles_of_a_run_with_a_failed_job_stay_parseable():
    # 20 jobs, one failed: the 90th percentile is the 18th value, with the
    # failed job's inf right after it, where interpolation would give NaN.
    latencies = [float(ms) for ms in range(1, 20)] + [float("inf")]
    assert run.percentile(latencies, 90) == 18.0
    assert run.percentile(latencies, 50) == 10.0
    assert run.percentile(latencies[:10] + [float("inf")] * 10, 90) == float("inf")
    assert run.quartiles([3.0, 1.0, 2.0, 4.0]) == (1.0, 2.0, 3.0)
    metrics = {"job_p50_ms": 10.0, "job_p90_ms": float("inf"), "jobs_per_s": float("nan")}
    line = run.result_line(False, 20, 1, metrics, run.END_TO_END)
    result = json.loads(line, parse_constant=pytest.fail)
    assert result["metrics"]["job_p50_ms"] == {"value": 10.0, "unit": "ms"}
    assert result["metrics"]["job_p90_ms"]["value"] is None
    assert result["metrics"]["jobs_per_s"]["value"] is None


def test_job_metrics_take_each_inputs_median_at_reference_speed_and_keep_failures():
    inf = float("inf")
    # Input 0 ran three times, inputs 1 and 2 twice.  The host ran at half
    # speed during the fifth job: it and its reference took twice as long.
    main = {"pool_indices": [0, 1, 2, 0, 1, 2, 0],
            "latencies_ms": [30.0, 10.0, 20.0, 20.0, 20.0, 20.0, 25.0],
            "ref_ms": [1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0],
            "cpu_ms": [25.0, 9.0, 19.0, 19.0, 20.0, 18.0, 24.0],
            "ref_cpu_ms": [1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0], "peak_rss_mb": 30.0}
    scaled = run.at_reference_speed(main, "latencies_ms", "ref_ms")
    assert scaled[4] == 10.0 * run.REFERENCE_MS
    assert run.per_input(main, scaled) == {0: 25.0, 1: 10.0, 2: 20.0}
    metrics = run.end_to_end(main, [0.3, 0.1, 0.2])
    assert metrics["jobs_per_s"] == pytest.approx(7 / (3 * 0.025 + 2 * 0.010 + 2 * 0.020))
    assert metrics["job_p50_ms"] == 20.0
    assert metrics["job_p90_ms"] == 25.0
    assert metrics["cpu_ms_per_job"] == pytest.approx((3 * 24 + 2 * 9.5 + 2 * 18.5) / 7)
    assert metrics["setup_s"] == 0.2
    assert run.setup_at_reference_speed({"setup_s": 0.2, "setup_ref_ms": 2.0}) == 0.1 * run.REFERENCE_MS
    # One failed repeat makes its input infinitely slow, however fast the others.
    main["latencies_ms"][4] = main["cpu_ms"][4] = inf
    assert run.per_input(main, main["latencies_ms"])[1] == inf
    metrics = run.end_to_end(main, [0.2])
    assert metrics["jobs_per_s"] == 0.0 and metrics["job_p90_ms"] == inf


def test_command_prints_every_end_to_end_metric(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "lattice",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""Per-layer tracing of jfilt, installed from outside the package.

``Tracer.install`` replaces each wrapped public function in the module that
defines it and in every loaded ``jfilt`` module that imported it by name
(``from .words import magnus_expand`` binds the function object at import
time, so patching the defining module alone would miss those callers).
``NilAut.__eq__`` is patched on its class.  ``Tracer.restore`` puts every
original object back.

Each wrapped call records one span: name, start, end, parent span and job
id, kept in flat arrays until the run ends.  Counts derived from arguments
and return values are taken after the span closes; the time spent taking
them is recorded as a span named ``trace`` so that no layer is charged for
it.  Self time is a span's duration minus the part of it that its child
spans cover (``self_times``).
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Sequence, Tuple

from workloads import aut_letters

PACKAGE = "jfilt"
TRACE = "trace"


def _max_bits(dec) -> int:
    return max(
        (abs(x).bit_length() for m in (dec.U, dec.V) for row in m for x in row),
        default=0,
    )


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _out_bytes(argv) -> int:
    argv = list(argv)
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# (counter name, aggregation, function of (args, kwargs, result)).
# "sum" counters are reported per job, "max" counters as the run's maximum.
Counter = Tuple[str, str, Callable]

# Wrapped public entry points per layer: module -> [(function, counters)].
TARGETS: Dict[str, List[Tuple[str, Sequence[Counter]]]] = {
    "words": [
        ("magnus_expand", [
            ("in_letters", "sum", lambda a, k, r: len(a[0].letters)),
            ("out_terms_max", "max", lambda a, k, r: len(r.terms)),
        ]),
        ("nilpotent_equal", []),
        ("parse_word", [("in_chars", "sum", lambda a, k, r: len(a[0]))]),
        ("render_word", []),
    ],
    "lie": [
        ("lie_bracket", []),
        ("tensor_to_lyndon", []),
        ("graded_class", []),
        ("lift_lie_element", []),
    ],
    "snf": [
        ("smith_normal_form", [
            ("in_cells", "sum", lambda a, k, r: _cells(a[0])),
            ("out_max_bits", "max", lambda a, k, r: _max_bits(r)),
        ]),
        ("integer_rank", [("in_cells", "sum", lambda a, k, r: _cells(a[0]))]),
    ],
    "brackets": [
        ("bracket_matrix", []),
        ("bracket_map", []),
        ("dk_basis", []),
    ],
    "trees": [
        ("tree_to_dk", []),
        ("rooted_bracket", []),
        ("validate", []),
        ("span_check", []),
    ],
    "automorphisms": [
        ("compose", [("out_letters_max", "max", lambda a, k, r: aut_letters(r))]),
        ("invert_aut", []),
        ("check_aut0", []),
        ("johnson_element", []),
        ("validate_tuple", []),
    ],
    "lagrangian": [
        ("jl_element", []),
        ("cocycle_check", []),
        ("lagrangian_degree", []),
    ],
    "orientation": [
        ("orient", []),
        ("count_valid_orientations", [
            ("assignments", "sum", lambda a, k, r: 1 << len(a[0].edges)),
        ]),
    ],
    "cli": [
        ("run", [("bytes_out", "sum", lambda a, k, r: _out_bytes(a[0]))]),
    ],
}

# Methods patched on their class: (module, class, method, span name).
METHOD_TARGETS = [("automorphisms", "NilAut", "__eq__", "automorphisms.eq")]

# Counters reported under the layer name rather than a function name.
LAYER_COUNTERS = {"orientation.count_valid_orientations.assignments": "orientation.assignments",
                  "cli.run.bytes_out": "cli.bytes_out"}


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe (the
    benchmark's workload processes are single-threaded)."""

    def __init__(self):
        self.names: List[str] = [TRACE]
        self._name_ids: Dict[str, int] = {TRACE: 0}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.current = -1
        self.current_job = -1
        self.raised: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: int, end: int, parent: int, job: int = -1) -> int:
        """Append a finished span; returns its index."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.start) - 1

    def wrap(self, name: str, fn: Callable, counters: Sequence[Counter] = ()) -> Callable:
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        counter_keys = [("%s.%s" % (name, c), agg, f) for c, agg, f in counters]
        name_id, start, end, parent, job = self.name_id, self.start, self.end, self.parent, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self.current
            idx = len(start)
            name_id.append(nid)
            parent.append(caller)
            job.append(self.current_job)
            start.append(0)
            end.append(0)
            self.current = idx
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                self.raised[layer] = self.raised.get(layer, 0) + 1
                raise
            else:
                t1 = perf_counter_ns()
            finally:
                start[idx] = t0
                end[idx] = t1
                self.current = caller
            if counter_keys:
                for key, agg, f in counter_keys:
                    value = f(args, kwargs, result)
                    old = self.counts.get(key, 0)
                    self.counts[key] = old + value if agg == "sum" else max(old, value)
                self.record(TRACE, t1, perf_counter_ns(), caller, self.current_job)
            return result

        return traced

    # -- install / restore -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in its defining module and in every loaded
        jfilt module that holds it by name."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, functions in TARGETS.items():
            module = sys.modules["%s.%s" % (PACKAGE, mod_name)]
            for fn_name, counters in functions:
                original = getattr(module, fn_name)
                wrapped = self.wrap("%s.%s" % (mod_name, fn_name), original, counters)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, attr, wrapped)
        for mod_name, cls_name, method, span_name in METHOD_TARGETS:
            cls = getattr(sys.modules["%s.%s" % (PACKAGE, mod_name)], cls_name)
            self._set(cls, method, self.wrap(span_name, vars(cls)[method]))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> List[Tuple[str, int, int, int, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.job[i])
            for i in range(len(self.start))
        ]


def self_times(starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]) -> List[int]:
    """Per span: its duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0
        reach = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(e - s - covered)
    return out


def layer_report(tracer: Tracer, jobs: int) -> Dict[str, float]:
    """Per-layer metrics: calls and self seconds per job for every wrapped
    function, counters, and exceptions raised per layer."""
    jobs = max(jobs, 1)
    self_ns = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Dict[str, int] = {}
    total: Dict[str, int] = {}
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + self_ns[i]
    out: Dict[str, float] = {}
    for name in all_span_names():
        out[name + ".calls"] = calls.get(name, 0) / jobs
        out[name + ".self_s"] = total.get(name, 0) / 1e9 / jobs
    out["trace.self_s"] = total.get(TRACE, 0) / 1e9 / jobs
    for mod_name, functions in TARGETS.items():
        for fn_name, counters in functions:
            for c, agg, _ in counters:
                key = "%s.%s.%s" % (mod_name, fn_name, c)
                value = tracer.counts.get(key, 0)
                out[LAYER_COUNTERS.get(key, key)] = value / jobs if agg == "sum" else value
        out[mod_name + ".raised"] = tracer.raised.get(mod_name, 0) / jobs
    return out


def all_span_names() -> List[str]:
    names = ["%s.%s" % (m, f) for m, fns in TARGETS.items() for f, _ in fns]
    return names + [t[3] for t in METHOD_TARGETS]

"""The names the benchmark in ``perfbench/`` reaches into jfilt by.

The tracer wraps public functions by module and name, and the workloads call
``jfilt.<name>``.  Deleting or renaming one of them would otherwise show up
only when ``perfbench/run.py --trace 1`` is run, not in this suite."""

import os
import re
import sys

import jfilt
import jfilt.cli  # noqa: F401  (the workloads call jfilt.cli.run)
from jfilt.brackets import dk_rank

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def _resolve(dotted):
    obj = jfilt
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_function_resolves():
    for module, entries in tracing.TARGETS.items():
        for name, _ in entries:
            assert callable(_resolve("%s.%s" % (module, name))), (module, name)
    for module, cls, method, _ in tracing.METHOD_TARGETS:
        assert callable(_resolve("%s.%s.%s" % (module, cls, method))), (module, cls, method)


def test_every_name_the_workloads_call_resolves():
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        names = set(re.findall(r"\bjfilt\.([A-Za-z_][\w.]*\w)", fh.read()))
    assert names
    for name in sorted(names):
        _resolve(name)


def test_matrix_rank_route_is_still_offered():
    assert dk_rank(4, 2, method="matrix") == dk_rank(4, 2) == 20

"""Brute-force reference for ``count_valid_orientations``.

It tries all 2^E directions of the edges and keeps those that
``verify_orientation`` accepts.  That is how the library counted before it
counted by inclusion–exclusion over source sets; the tests keep it as an
independent reference.
"""

from __future__ import annotations

from jfilt.orientation import verify_orientation
from jfilt.trees import ClasperGraph


def brute_force_count(g: ClasperGraph) -> int:
    count = 0
    for mask in range(1 << len(g.edges)):
        orientation = {
            idx: ((a, b) if not mask >> idx & 1 else (b, a))
            for idx, (a, b) in enumerate(g.edges)
        }
        if not verify_orientation(g, orientation):
            count += 1
    return count

"""Command-line surface: every module behind one batch-oriented driver.

Exit codes: 0 on success, 1 when a check the command runs fails (``selftest``,
``lagrangian gap-table``, ``graph census``), 2 on validation problems
(malformed input, graphs that fail structural checks, trees handed to the
orienter), 3 on violated operation preconditions, 4 when a result fails an
internal invariant check (a bug).  Output is JSON in canonical key order by
default, CSV with ``--csv``; ``--out`` redirects to a file.  The environment variable
``JFILT_MAX_DEGREE`` (default 8) caps every level/degree argument so a typo
cannot start an astronomically large computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .acceptance import run_all
from .automorphisms import (
    aut_from_json,
    aut_to_json,
    check_aut0,
    compose,
    extract_longitudes,
    filtration_degree,
    invert_aut,
    johnson_element,
    milnor_compose,
    phi_hat,
    psi_hat,
    reduce_level,
    tuple_from_json,
    tuple_to_json,
)
from .brackets import a1_dimensions, dk_basis, dk_rank, tensor_to_json
from .errors import InvariantError, NotOrientable, PreconditionError, ValidationError
from .lagrangian import MAX_GAP_ROWS, gap_table, jl_element, lagrangian_degree, cocycle_check
from .lie import witt_dimension
from .orientation import (
    census,
    count_valid_orientations,
    orient,
    orientation_to_json,
    oriented_dot,
)
from .trees import clasper_from_json, span_check, tree_to_dk, validate


def _max_degree() -> int:
    raw = os.environ.get("JFILT_MAX_DEGREE", "8")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError("JFILT_MAX_DEGREE must be an integer, got %r" % raw)


def _check_degree(value: int, name: str) -> int:
    cap = _max_degree()
    if value > cap:
        raise PreconditionError(
            "%s = %d exceeds JFILT_MAX_DEGREE = %d" % (name, value, cap)
        )
    return value


def _k_or_default(k: Optional[int], h, degree) -> int:
    """``--k`` if given, else ``degree(h)`` kept within 1..level-2; capped."""
    if k is None:
        k = max(min(degree(h), h.level - 2), 1)
    return _check_degree(k, "k")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))
    # ValueError: bad JSON, bad UTF-8, or an integer too long to convert.
    except (ValueError, RecursionError) as exc:
        raise ValidationError("malformed JSON in %s: %s" % (path, exc))


def _load_aut(path: str, level: Optional[int]):
    h = aut_from_json(_load_json(path))
    _check_degree(h.level, "level")
    if level is not None:
        h = reduce_level(h, _check_degree(level, "level"))
    return h


def _csv_escape(value) -> str:
    if value is None:
        text = ""
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"%s"' % text.replace('"', '""')
    return text


def _render(payload, csv: bool) -> str:
    if not csv:
        return json.dumps(payload, indent=2, sort_keys=True)
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        columns = list(payload[0])
        lines = [",".join(columns)]
        for row in payload:
            lines.append(",".join(_csv_escape(row.get(c)) for c in columns))
        return "\n".join(lines)
    if isinstance(payload, dict):
        return "\n".join(
            "%s,%s" % (key, _csv_escape(json.dumps(payload[key], sort_keys=True)
                                        if isinstance(payload[key], (dict, list))
                                        else payload[key]))
            for key in sorted(payload)
        )
    return str(payload)


def _emit(payload, args) -> None:
    _write(_render(payload, args.csv), args)


def _write(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError("cannot write %s: %s" % (args.out, exc))
    else:
        print(text)


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # The top-level parser owns the defaults; the per-subcommand copies use
    # SUPPRESS so a flag given before the subcommand is not clobbered by the
    # subparser's defaults.  Either position works.
    d = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--csv", action="store_true", help="tabular output as CSV", **d
    )
    parser.add_argument(
        "--seed", type=int, help="seed for randomized checks", **({"default": 0} if top else d)
    )
    parser.add_argument(
        "--level", type=int, help="working level q", **({"default": None} if top else d)
    )
    parser.add_argument(
        "--out", help="write output to this file", **({"default": None} if top else d)
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jfilt", description="exact filtration and tree-kernel calculator"
    )
    _add_common(parser, top=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, top=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witt", parents=[common], help="free Lie algebra rank in one degree")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("dk", parents=[common], help="contraction-kernel rank or basis")
    p.add_argument("action", choices=["rank", "basis"])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("a1", parents=[common], help="degree-1 dimension pair")
    p.add_argument("g", type=int)

    p = sub.add_parser("tree", parents=[common], help="labeled tree image / span of tree images")
    p.add_argument("action", choices=["image", "span"])
    p.add_argument("args", nargs="+")

    p = sub.add_parser("aut", parents=[common], help="automorphism operations")
    p.add_argument(
        "action", choices=["compose", "invert", "check-aut0", "johnson", "degree"]
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("stringlink", parents=[common], help="longitude-tuple operations")
    p.add_argument("action", choices=["phi", "psi", "compose", "extract"])
    p.add_argument("files", nargs="+")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("lagrangian", parents=[common], help="Lagrangian filtration operations")
    p.add_argument("action", choices=["jl", "degree", "cocycle", "gap-table"])
    p.add_argument("files", nargs="*")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--kmax", type=int, default=3)

    p = sub.add_parser(
        "graph", parents=[common], help="orient a unitrivalent graph, or census small ones"
    )
    p.add_argument("action", choices=["orient", "count", "census"])
    p.add_argument("file", nargs="?")
    p.add_argument("--tmax", type=int, default=4)

    sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")
    return parser


# Built once; JFILT_MAX_DEGREE is read when a value is checked, not here.
_PARSER = _build_parser()


def _cmd_tree(args) -> None:
    if args.action == "image":
        if len(args.args) != 1:
            raise ValidationError("tree image takes exactly one graph file")
        g = clasper_from_json(_load_json(args.args[0]))
        _check_degree(validate(g).degree, "tree degree")
        _emit(tensor_to_json(tree_to_dk(g)), args)
    else:
        if len(args.args) != 2:
            raise ValidationError("tree span takes n and k")
        try:
            n, k = int(args.args[0]), int(args.args[1])
        except ValueError:
            raise ValidationError("tree span takes integers n and k")
        _check_degree(k, "k")
        span, kernel = span_check(n, k)
        _emit(
            {"n": n, "k": k, "span_rank": span, "kernel_rank": kernel, "equal": span == kernel},
            args,
        )


def _cmd_aut(args) -> None:
    if args.action == "compose":
        if len(args.files) < 2:
            raise ValidationError("aut compose takes at least two automorphism files")
        h = _load_aut(args.files[0], args.level)
        for path in args.files[1:]:
            h = compose(h, _load_aut(path, args.level))
        _emit(aut_to_json(h), args)
        return
    if len(args.files) != 1:
        raise ValidationError("aut %s takes exactly one automorphism file" % args.action)
    h = _load_aut(args.files[0], args.level)
    if args.action == "invert":
        _emit(aut_to_json(invert_aut(h)), args)
    elif args.action == "check-aut0":
        _emit({"check_aut0": check_aut0(h)}, args)
    elif args.action == "degree":
        _emit({"filtration_degree": filtration_degree(h)}, args)
    else:  # johnson
        k = _k_or_default(args.k, h, filtration_degree)
        tensor = johnson_element(h, k)
        _emit({"k": k, "tensor": tensor_to_json(tensor)}, args)


def _cmd_stringlink(args) -> None:
    if args.action == "compose":
        if len(args.files) != 2:
            raise ValidationError("stringlink compose takes two tuple files")
        a = tuple_from_json(_load_json(args.files[0]))
        b = tuple_from_json(_load_json(args.files[1]))
        _emit(tuple_to_json(milnor_compose(a, b)), args)
        return
    if len(args.files) != 1:
        raise ValidationError("stringlink %s takes exactly one file" % args.action)
    if args.action == "extract":
        h = _load_aut(args.files[0], args.level)
        k = _k_or_default(args.k, h, filtration_degree)
        _emit(tuple_to_json(extract_longitudes(h, k)), args)
        return
    t = tuple_from_json(_load_json(args.files[0]))
    _check_degree(t.level, "level")
    q = args.level
    if q is not None:
        _check_degree(q, "level")
    builder = phi_hat if args.action == "phi" else psi_hat
    _emit(aut_to_json(builder(t, q)), args)


def _cmd_lagrangian(args) -> int:
    if args.action == "gap-table":
        _check_degree(args.kmax, "kmax")
        if max(args.gmax - 1, 0) * args.kmax > MAX_GAP_ROWS:
            raise PreconditionError(
                "gap table of (gmax - 1) * kmax = %d rows exceeds the bound of %d"
                % ((args.gmax - 1) * args.kmax, MAX_GAP_ROWS)
            )
        pairs = [
            (g, k)
            for k in range(1, args.kmax + 1)
            for g in range(2, args.gmax + 1)
        ]
        rows = gap_table(pairs)
        _emit(rows, args)
        bad = sum(1 for r in rows if r["match"] is False)
        if bad:
            print("error: %d rows disagree with the closed forms" % bad, file=sys.stderr)
            return 1
        return 0
    if args.action == "cocycle":
        if len(args.files) != 2:
            raise ValidationError("lagrangian cocycle takes two automorphism files")
        h1 = _load_aut(args.files[0], args.level)
        h2 = _load_aut(args.files[1], args.level)
        k = args.k if args.k is not None else 1
        _check_degree(k, "k")
        _emit({"k": k, "holds": cocycle_check(h1, h2, k)}, args)
        return 0
    if len(args.files) != 1:
        raise ValidationError("lagrangian %s takes one automorphism file" % args.action)
    h = _load_aut(args.files[0], args.level)
    if args.action == "degree":
        _emit({"lagrangian_degree": lagrangian_degree(h)}, args)
    else:  # jl
        k = _k_or_default(args.k, h, lagrangian_degree)
        report = jl_element(h, k)
        _emit(
            {
                "g": report.genus,
                "k": report.k,
                "value": tensor_to_json(report.value),
                "in_hat": report.in_hat,
            },
            args,
        )
    return 0


def _cmd_graph(args) -> int:
    if (args.file is None) != (args.action == "census"):
        raise ValidationError("graph census takes no file; graph orient and count take one")
    if args.action == "census":
        rows, mismatches = census(_check_degree(args.tmax, "tmax"))
        _emit(rows, args)
        if mismatches:
            print(
                "error: %d graphs disagree with the cycle-rank criterion" % len(mismatches),
                file=sys.stderr,
            )
            return 1
        return 0
    g = clasper_from_json(_load_json(args.file))
    if args.action == "orient":
        orientation = orient(g)
        _emit(
            {
                "orientation": orientation_to_json(orientation),
                "dot": oriented_dot(g, orientation),
            },
            args,
        )
    else:
        _emit({"count": count_valid_orientations(g)}, args)
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(args.seed)
    _write(
        "\n".join(
            "CRITERION %2d %s (%.2fs): %s — %s"
            % (r.number, "PASS" if r.ok else "FAIL", r.seconds, r.name, r.detail)
            for r in results
        ),
        args,
    )
    return 0 if all(r.ok for r in results) else 1


def run(argv: List[str]) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "witt":
            _check_degree(args.k, "k")
            _emit(witt_dimension(args.n, args.k), args)
        elif args.command == "dk":
            _check_degree(args.k, "k")
            if args.action == "rank":
                _emit({"n": args.n, "k": args.k, "rank": dk_rank(args.n, args.k)}, args)
            else:
                basis = dk_basis(args.n, args.k)
                _emit(
                    {
                        "n": args.n,
                        "k": args.k,
                        "rank": len(basis),
                        "basis": [tensor_to_json(b) for b in basis],
                    },
                    args,
                )
        elif args.command == "a1":
            first, second = a1_dimensions(args.g)
            _emit({"g": args.g, "dimensions": [first, second]}, args)
        elif args.command == "tree":
            _cmd_tree(args)
        elif args.command == "aut":
            _cmd_aut(args)
        elif args.command == "stringlink":
            _cmd_stringlink(args)
        elif args.command == "lagrangian":
            return _cmd_lagrangian(args)
        elif args.command == "graph":
            return _cmd_graph(args)
        elif args.command == "selftest":
            return _cmd_selftest(args)
    except (NotOrientable, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except InvariantError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()

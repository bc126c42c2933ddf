"""Command-line surface: every module behind one batch-oriented driver.

Each action (``jfilt aut invert FILE``) declares exactly the positionals and
flags its handler reads, and refuses any other in its own name; ``--csv``
and ``--out`` may also go before the command, and any other flag found
there is named in the refusal.  A handler returns its payload, and ``run``
parses, dispatches and renders in one place.

Exit codes: 0 on success, 1 when a check the command runs fails (``selftest``,
``lagrangian gap-table``, ``graph census``), 2 on validation problems
(a malformed command line or input, graphs that fail structural checks,
trees handed to the orienter), 3 on violated operation preconditions, 4 when
a result fails an internal invariant check (a bug).  Output is JSON in
canonical key order by default, CSV with ``--csv``; ``--out`` redirects to a
file.  The environment variable ``JFILT_MAX_DEGREE`` (default 8) caps every
level/degree argument and every level read from a file, so a typo cannot
start an astronomically large computation.
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
from .trees import clasper_from_json, span_check, tree_to_dk


def _check_degree(value: Optional[int], name: str) -> Optional[int]:
    """``value`` if within the cap; ``None`` (a flag not given) passes."""
    raw = os.environ.get("JFILT_MAX_DEGREE", "8")
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError("JFILT_MAX_DEGREE must be an integer, got %r" % raw)
    if value is not None and value > cap:
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


def _load_tuple(path: str):
    t = tuple_from_json(_load_json(path))
    _check_degree(t.level, "level")
    return t


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
    """JSON, or CSV with ``csv``; text (the selftest report) as it is."""
    if isinstance(payload, str):
        return payload
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


def _witt(args):
    return witt_dimension(args.n, _check_degree(args.k, "k"))


def _dk_rank(args):
    return {"n": args.n, "k": args.k, "rank": dk_rank(args.n, _check_degree(args.k, "k"))}


def _dk_basis(args):
    basis = dk_basis(args.n, _check_degree(args.k, "k"))
    return {"n": args.n, "k": args.k, "rank": len(basis), "basis": [tensor_to_json(b) for b in basis]}


def _a1(args):
    return {"g": args.g, "dimensions": list(a1_dimensions(args.g))}


def _tree_image(args):
    g = clasper_from_json(_load_json(args.file))
    _check_degree(g.info.degree, "tree degree")
    return tensor_to_json(tree_to_dk(g))


def _tree_span(args):
    span, kernel = span_check(args.n, _check_degree(args.k, "k"))
    return {"n": args.n, "k": args.k, "span_rank": span, "kernel_rank": kernel, "equal": span == kernel}


def _aut_compose(args):
    h = _load_aut(args.file, args.level)
    for path in args.files:
        h = compose(h, _load_aut(path, args.level))
    return aut_to_json(h)


def _aut_invert(args):
    return aut_to_json(invert_aut(_load_aut(args.file, args.level)))


def _aut_check_aut0(args):
    return {"check_aut0": check_aut0(_load_aut(args.file, args.level))}


def _aut_degree(args):
    return {"filtration_degree": filtration_degree(_load_aut(args.file, args.level))}


def _aut_johnson(args):
    h = _load_aut(args.file, args.level)
    k = _k_or_default(args.k, h, filtration_degree)
    return {"k": k, "tensor": tensor_to_json(johnson_element(h, k))}


def _stringlink_phi(args):
    return aut_to_json(phi_hat(_load_tuple(args.file), _check_degree(args.level, "level")))


def _stringlink_psi(args):
    return aut_to_json(psi_hat(_load_tuple(args.file), _check_degree(args.level, "level")))


def _stringlink_compose(args):
    return tuple_to_json(milnor_compose(*[_load_tuple(path) for path in args.files]))


def _stringlink_extract(args):
    h = _load_aut(args.file, args.level)
    return tuple_to_json(extract_longitudes(h, _k_or_default(args.k, h, filtration_degree)))


def _lagrangian_jl(args):
    h = _load_aut(args.file, args.level)
    report = jl_element(h, _k_or_default(args.k, h, lagrangian_degree))
    return {"g": report.genus, "k": report.k, "value": tensor_to_json(report.value), "in_hat": report.in_hat}


def _lagrangian_degree(args):
    return {"lagrangian_degree": lagrangian_degree(_load_aut(args.file, args.level))}


def _lagrangian_cocycle(args):
    h1, h2 = [_load_aut(path, args.level) for path in args.files]
    return {"k": args.k, "holds": cocycle_check(h1, h2, _check_degree(args.k, "k"))}


def _gap_table(args):
    _check_degree(args.kmax, "kmax")
    if max(args.gmax - 1, 0) * args.kmax > MAX_GAP_ROWS:
        raise PreconditionError(
            "gap table of (gmax - 1) * kmax = %d rows exceeds the bound of %d"
            % ((args.gmax - 1) * args.kmax, MAX_GAP_ROWS)
        )
    rows = gap_table([(g, k) for k in range(1, args.kmax + 1) for g in range(2, args.gmax + 1)])
    bad = sum(1 for r in rows if r["match"] is False)
    return rows, ("%d rows disagree with the closed forms" % bad if bad else None)


def _graph_orient(args):
    g = clasper_from_json(_load_json(args.file))
    orientation = orient(g)
    return {"orientation": orientation_to_json(orientation), "dot": oriented_dot(g, orientation)}


def _graph_count(args):
    return {"count": count_valid_orientations(clasper_from_json(_load_json(args.file)))}


def _graph_census(args):
    rows, mismatches = census(_check_degree(args.tmax, "tmax"))
    bad = len(mismatches)
    return rows, ("%d graphs disagree with the cycle-rank criterion" % bad if bad else None)


def _selftest(args):
    results = run_all(args.seed)
    text = "\n".join(
        "CRITERION %2d %s (%.2fs): %s — %s"
        % (r.number, "PASS" if r.ok else "FAIL", r.seconds, r.name, r.detail)
        for r in results
    )
    bad = sum(1 for r in results if not r.ok)
    return text, ("%d of %d criteria failed" % (bad, len(results)) if bad else None)


class _Parser(argparse.ArgumentParser):
    """Raises ``ValidationError`` where argparse would print its usage and
    exit 2, so that ``run`` reports a malformed command line as it reports
    malformed input."""

    def error(self, message):
        raise ValidationError("%s: %s" % (self.prog, message))

    def parse_known_args(self, args=None, namespace=None):
        # Each parser refuses what it does not read, so that the refusal
        # names the action (``jfilt aut invert``), not ``jfilt``.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jfilt", description="exact filtration and tree-kernel calculator")
    parser.add_argument("--csv", action="store_true", help="tabular output as CSV")
    parser.add_argument("--out", help="write output to this file")
    # The flag sets actions read, as parents.  An action's copies of --csv
    # and --out default to SUPPRESS, so that one given before the command is
    # not clobbered by the action's default.
    out = _Parser(add_help=False)
    out.add_argument("--out", default=argparse.SUPPRESS, help="write output to this file")
    csv = _Parser(add_help=False, parents=[out])
    csv.add_argument("--csv", action="store_true", default=argparse.SUPPRESS, help="tabular output as CSV")
    level = _Parser(add_help=False, parents=[csv])
    level.add_argument("--level", type=int, help="working level q")
    level_k = _Parser(add_help=False, parents=[level])
    level_k.add_argument("--k", type=int, help="degree k (default: read off the input)")
    commands = parser.add_subparsers(dest="command", required=True)

    def action(sub, name, handler, flags, *positionals, files=None, **kwargs):
        # Positionals are integers but "file"; ``files`` is the nargs of "files".
        p = sub.add_parser(name, parents=[flags], **kwargs)
        p.set_defaults(handler=handler)
        for dest in positionals:
            p.add_argument(dest, **({} if dest == "file" else {"type": int}))
        if files:
            p.add_argument("files", nargs=files)
        return p

    def group(name, help):
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    action(commands, "witt", _witt, csv, "n", "k", help="free Lie algebra rank in one degree")
    action(commands, "a1", _a1, csv, "g", help="degree-1 dimension pair")
    action(commands, "selftest", _selftest, out, help="run the acceptance criteria").add_argument(
        "--seed", type=int, default=0, help="seed for randomized checks"
    )

    sub = group("dk", "contraction-kernel rank or basis")
    action(sub, "rank", _dk_rank, csv, "n", "k")
    action(sub, "basis", _dk_basis, csv, "n", "k")

    sub = group("tree", "labeled tree image / span of tree images")
    action(sub, "image", _tree_image, csv, "file")
    action(sub, "span", _tree_span, csv, "n", "k")

    sub = group("aut", "automorphism operations")
    action(sub, "compose", _aut_compose, level, "file", files="+")
    action(sub, "invert", _aut_invert, level, "file")
    action(sub, "check-aut0", _aut_check_aut0, level, "file")
    action(sub, "degree", _aut_degree, level, "file")
    action(sub, "johnson", _aut_johnson, level_k, "file")

    sub = group("stringlink", "longitude-tuple operations")
    action(sub, "phi", _stringlink_phi, level, "file")
    action(sub, "psi", _stringlink_psi, level, "file")
    action(sub, "compose", _stringlink_compose, csv, files=2)
    action(sub, "extract", _stringlink_extract, level_k, "file")

    sub = group("lagrangian", "Lagrangian filtration operations")
    action(sub, "jl", _lagrangian_jl, level_k, "file")
    action(sub, "degree", _lagrangian_degree, level, "file")
    action(sub, "cocycle", _lagrangian_cocycle, level, files=2).add_argument("--k", type=int, default=1)
    p = action(sub, "gap-table", _gap_table, csv)
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--kmax", type=int, default=3)

    sub = group("graph", "orient a unitrivalent graph, or census small ones")
    action(sub, "orient", _graph_orient, csv, "file")
    action(sub, "count", _graph_count, csv, "file")
    action(sub, "census", _graph_census, csv).add_argument("--tmax", type=int, default=4)
    return parser


# Built once; JFILT_MAX_DEGREE is read when a value is checked, not here.
_PARSER = _build_parser()


def _flag_before_command(argv: List[str]) -> Optional[str]:
    """The first flag before the command other than ``--csv``, ``--out``
    and ``--help`` (or a prefix argparse would take for one), if any."""
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-") or token in ("-", "--"):
            return None
        name = token.split("=", 1)[0]
        known = [f for f in ("--csv", "--out", "--help") if len(name) > 2 and f.startswith(name)]
        if name != "-h" and len(known) != 1:
            return name
        if known == ["--out"] and "=" not in token:
            next(tokens, None)
    return None


def _parse(argv: List[str]) -> argparse.Namespace:
    try:
        return _PARSER.parse_args(argv)
    except ValidationError:
        flag = _flag_before_command(argv)
        if flag is None:
            raise
    raise ValidationError(
        "jfilt: flag %s before the command: flags other than --csv and --out go after the action"
        % flag
    )


def run(argv: List[str]) -> int:
    """Parse ``argv``, run its action's handler and write what it returns:
    the payload, or for a command that runs a check, the payload and a
    complaint (None when the check passed)."""
    try:
        args = _parse(argv)
        payload = args.handler(args)
        payload, complaint = payload if isinstance(payload, tuple) else (payload, None)
        text = _render(payload, args.csv)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValidationError("cannot write %s: %s" % (args.out, exc))
        else:
            print(text)
    except (NotOrientable, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except InvariantError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 4
    if complaint:
        print("error: %s" % complaint, file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``jfilt dk basis 6 3 | head``); point
        # stdout at devnull so that the interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()

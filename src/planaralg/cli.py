"""Command line interface.

Usage examples:

    planaralg analyze --input inclusion.json
    planaralg tower --input inclusion.json --depth 3
    planaralg dims --input inclusion.json --kmax 4 --format csv
    planaralg verify-tl --input inclusion.json --kmax 2
    planaralg fixed --input inclusion.json --group group.json --kmax 3

The inclusion document is {"a": [...], "m": [[...]]}; the big-side block
dimensions are always derived, never supplied.  The group document is
{"generators": [{"perm_a": [...], "perm_b": [...], "perm_e": [...]}]} with
perm_e optional when the graph has no parallel edges.

Reports go to stdout and are byte-for-byte reproducible for equal inputs.
JSON is the primary format; dimension tables are also available as CSV.

Exit codes: 0 success (for verify-style commands: every check passed),
1 checks ran but failed, 2 malformed input, 3 precondition violated
(not Markov / not central), 4 resource limit (loop budget, group closure,
factoring effort, values out of float range, integers to print over the
interpreter's int-to-str digit limit), 5 internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction

from .errors import (
    EigenvectorViolationError,
    GroupTooLargeError,
    InvalidAutomorphismError,
    NotAbelianError,
    NotMarkovError,
    PlanarAlgError,
    ResourceLimitError,
    ValidationError,
)
from .markov import (
    InclusionData,
    analyze,
    canonical_trace_weights,
    jones_tower,
    loop_space_dims,
    word_norm,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

DEFAULT_LOOP_LIMIT = 1_000_000
NORM_TABLE_MAX_LENGTH = 6


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, an integer over the interpreter's digit limit, or
        # nesting deeper than the parser's recursion limit.
        raise ValidationError(f"{path}: {exc}") from exc


def _load_inclusion(path: str) -> InclusionData:
    return InclusionData.from_dict(_load_json(path))


def _check_loop_budget(inc: InclusionData, max_degree: int, limit: int) -> list[int]:
    """Loop space dimensions of degrees 0..max_degree, refused up front over the limit."""
    dims = []
    for k, estimate in zip(range(max_degree + 1), loop_space_dims(inc)):
        if estimate > limit:
            _check_printable(estimate)
            raise ResourceLimitError(
                f"degree {k} needs {estimate} loops, over the limit of {limit}"
            )
        dims.append(estimate)
    return dims


def _check_printable(largest: int, r: int = 1, power: int = 0) -> None:
    """Refuse to print largest * r**power when it has more digits than str()
    converts (sys.get_int_max_str_digits(), 0 for no limit).  The product is
    at least 2**low, so the power is formed only when it is near the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before Python 3.10.7
    low = largest.bit_length() - 1 + power * (r.bit_length() - 1)
    if limit and (low > limit * math.log2(10) + 1 or largest * r**power >= 10**limit):
        raise ResourceLimitError(f"an integer to print has more than {limit} digits")


def _fraction_json(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def _emit(text: str) -> int:
    sys.stdout.write(text)
    return EXIT_OK


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only CSV reports load it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_analyze(args) -> int:
    inc = _load_inclusion(args.input)
    report = analyze(inc)
    document = {
        "markov": report.is_markov,
        "r": _fraction_json(report.r),
        "abelian": report.is_abelian,
        "index_violation": report.index_violation,
        "dims": {
            "a_blocks": list(inc.a),
            "b_blocks": list(inc.b),
            "dim_a": inc.a.total_dim,
            "dim_b": inc.b.total_dim,
        },
        "trace_weights": {
            side: [{"exact": str(w), "value": float(w)} for w in canonical_trace_weights(dims)]
            for side, dims in (("a", inc.a), ("b", inc.b))
        },
        "word_norms": [],
    }
    if report.is_markov and report.r.denominator == 1:
        for length in range(1, NORM_TABLE_MAX_LENGTH + 1):
            for start in ("m", "mt"):
                numeric, exact = word_norm(inc, length, start)
                value = exact.to_float()
                document["word_norms"].append(
                    {
                        "length": length,
                        "start": start,
                        "numeric": numeric,
                        "exact": str(exact),
                        "value": value,
                        "rel_error": abs(numeric - value) / value,
                    }
                )
    _check_printable(max(inc.a.total_dim, inc.b.total_dim))
    return _emit(_json_text(document))


def cmd_tower(args) -> int:
    inc = _load_inclusion(args.input)
    report = analyze(inc)
    if not report.is_markov or report.r.denominator != 1:
        raise NotMarkovError("tower requires a Markov inclusion with integer index")
    r = int(report.r)
    _check_printable(max(inc.a.total_dim, inc.b.total_dim), r, 2 * args.depth)
    tower = jones_tower(inc, args.depth)
    levels = []
    for k, (a_k, b_k) in enumerate(zip(tower[::2], tower[1::2])):
        levels.append(
            {
                "k": k,
                "a_blocks": list(a_k),
                "a_dim": a_k.total_dim,
                "b_blocks": list(b_k),
                "b_dim": b_k.total_dim,
                "b_tilde_blocks": [r**k] * inc.cols,
            }
        )
    if args.format == "csv":
        rows = []
        for level in levels:
            k = level["k"]
            rows.append([k, "A", level["a_dim"], " ".join(map(str, level["a_blocks"]))])
            rows.append([k, "B", level["b_dim"], " ".join(map(str, level["b_blocks"]))])
            rows.append(
                [
                    k,
                    "B~",
                    sum(n * n for n in level["b_tilde_blocks"]),
                    " ".join(map(str, level["b_tilde_blocks"])),
                ]
            )
        return _emit(_csv_text(["k", "algebra", "total_dim", "blocks"], rows))
    return _emit(_json_text({"r": r, "depth": args.depth, "levels": levels}))


def cmd_dims(args) -> int:
    inc = _load_inclusion(args.input)
    dims = _check_loop_budget(inc, args.kmax, args.limit_loops)
    if args.format == "csv":
        return _emit(_csv_text(["k", "dim"], [[k, d] for k, d in enumerate(dims)]))
    return _emit(_json_text({"kmax": args.kmax, "dims": dims}))


def cmd_verify_tl(args) -> int:
    from .graph import build_graph
    from .tangles import verify_temperley_lieb

    inc = _load_inclusion(args.input)
    _check_loop_budget(inc, args.kmax + 2, args.limit_loops)
    graph = build_graph(inc)
    checks = verify_temperley_lieb(graph, args.kmax)
    document = {
        "kmax": args.kmax,
        "r": graph.r,
        "relations": [
            {"relation": c.relation, "indices": list(c.indices), "passed": c.passed}
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    _emit(_json_text(document))
    return EXIT_OK if document["all_passed"] else EXIT_CHECKS_FAILED


def _load_group(path: str):
    """The generators of a group document, each shape-checked as it is read,
    so that close_group checks each as an automorphism before the next is
    read: errors come in document order."""
    from .symmetry import GraphAutomorphism

    document = _load_json(path)
    if not isinstance(document, dict) or "generators" not in document:
        raise ValidationError('group document needs a "generators" list')
    extra = set(document) - {"generators"}
    if extra:
        raise ValidationError(f"unknown keys in group document: {sorted(extra)}")
    raw = document["generators"]
    if not isinstance(raw, list):
        raise ValidationError('"generators" must be a list')
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"generator {idx} must be an object")
        unknown = set(entry) - {"perm_a", "perm_b", "perm_e"}
        if unknown:
            raise ValidationError(f"generator {idx} has unknown keys: {sorted(unknown)}")
        if "perm_a" not in entry or "perm_b" not in entry:
            raise ValidationError(f'generator {idx} needs "perm_a" and "perm_b"')
        if not isinstance(entry["perm_a"], list) or not isinstance(entry["perm_b"], list):
            raise ValidationError(f'generator {idx}: "perm_a" and "perm_b" must be lists')
        if not isinstance(entry.get("perm_e", []), (list, type(None))):
            raise ValidationError(f'generator {idx}: "perm_e" must be a list or null')
        yield GraphAutomorphism(entry["perm_a"], entry["perm_b"], entry.get("perm_e"))


def cmd_fixed(args) -> int:
    from .graph import build_graph
    from .symmetry import close_group, fixed_dims_report, is_centrally_ergodic, verify_planar_subalgebra

    inc = _load_inclusion(args.input)
    _check_loop_budget(inc, args.kmax, args.limit_loops)
    graph = build_graph(inc)
    group = close_group(graph, _load_group(args.group))
    dims = fixed_dims_report(group, args.kmax)
    if args.format == "csv":
        return _emit(_csv_text(["k", "dim"], [[k, d] for k, d in enumerate(dims)]))
    try:
        on_a, on_b = is_centrally_ergodic(group)
        ergodic = {"on_a": on_a, "on_b": on_b}
    except NotAbelianError:
        ergodic = None
    report = verify_planar_subalgebra(group, args.kmax)
    document = {
        "group_order": group.order,
        "kmax": args.kmax,
        "dims": dims,
        "centrally_ergodic": ergodic,
        "checks": [
            {"name": c.name, "degree": c.degree, "passed": c.passed} for c in report.checks
        ],
        "all_passed": report.all_passed,
    }
    _emit(_json_text(document))
    return EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planaralg",
        description="Exact loop calculus for Markov inclusions of multi-matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kmax=False, depth=False, group=False, csv_ok=False, loops=False):
        p.add_argument("--input", required=True, help="inclusion JSON file")
        if group:
            p.add_argument("--group", required=True, help="group generators JSON file")
        if kmax:
            p.add_argument("--kmax", type=int, required=True, help="largest degree")
        if depth:
            p.add_argument("--depth", type=int, required=True, help="tower depth")
        choices = ["json", "csv"] if csv_ok else ["json"]
        p.add_argument("--format", choices=choices, default="json")
        if loops:
            p.add_argument(
                "--limit-loops",
                type=int,
                default=DEFAULT_LOOP_LIMIT,
                help=f"largest loop space that will be enumerated (default {DEFAULT_LOOP_LIMIT})",
            )

    p = sub.add_parser("analyze", help="Markov classification, weights, word norms")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tower", help="block dimensions along the iterated basic construction")
    common(p, depth=True, csv_ok=True)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("dims", help="loop space dimensions per degree")
    common(p, kmax=True, csv_ok=True, loops=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify-tl", help="check the Jones idempotent relations exactly")
    common(p, kmax=True, loops=True)
    p.set_defaults(func=cmd_verify_tl)

    p = sub.add_parser("fixed", help="fixed-space dimensions and subalgebra verification")
    common(p, kmax=True, group=True, csv_ok=True, loops=True)
    p.set_defaults(func=cmd_fixed)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kmax", 0) < 0 or getattr(args, "depth", 0) < 0:
        print("kmax and depth must be nonnegative", file=sys.stderr)
        return EXIT_BAD_INPUT
    if getattr(args, "limit_loops", 0) < 0:
        print("limit-loops must be nonnegative", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (ValidationError, InvalidAutomorphismError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (NotMarkovError, NotAbelianError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ResourceLimitError, GroupTooLargeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except EigenvectorViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PlanarAlgError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # the exit-code contract allows no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

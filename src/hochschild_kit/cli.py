"""Command line interface.

Subcommands: enumerate (stream objects), polytope (V-rep, H-rep, Minkowski
data, certification), verify (run a named suite), hasse (DOT diagrams).
All output is deterministic; rationals are serialized as strings to avoid
precision loss.  Exit codes: 0 success, 1 verification, I/O or internal
failure (a failed consistency check of the kit itself, or any ValueError the
library raises), 2 usage error.

Each subcommand accepts only the formats it emits: enumerate and polytope
``json`` or ``text``, hasse ``dot``, verify ``json`` or ``text``, and ``csv``
with ``--suite tables`` alone.  Every parameter is checked once, in
``_check_params``, before the library runs: --m and --n are not negative,
m + n >= 1 for the families that need it, --rank is a rank of (m, n),
--bound is at least 1, and hasse asks for no refinement poset of words
(words have only their componentwise order).  The size ceiling m + n <= 8
(``--bound`` for verify) is enforced there and nowhere else:
``--unsafe-bound`` lifts it, and the library enumerators and poset builders
take any size.  How far each verify check reaches below the requested bound
is ``verify.REACH``.
"""

from __future__ import annotations

import argparse
import json
import sys

FORMAT_VERSION = 1
DEFAULT_CEILING = 8


class UsageError(Exception):
    pass


def _check_params(args):
    """Raise UsageError unless the parameters name a valid size within the ceiling."""
    if args.command == "verify":
        if args.bound < 1:
            raise UsageError(
                f"invalid parameters: need --bound >= 1, got {args.bound}"
            )
        total = args.bound
    else:
        m, n = args.m, args.n
        if args.kind in ("freehedron", "word"):
            if m < 0 or n < 0:
                raise UsageError("invalid parameters: need m >= 0 and n >= 0")
        elif m < 0 or n < 0 or m + n < 1:
            raise UsageError("invalid parameters: need m >= 0, n >= 0 and m + n >= 1")
        if args.kind == "freehedron" and m != 0:
            raise UsageError("the freehedron takes --n only; --m must be 0")
        if args.kind == "word" and args.poset == "refinement":
            raise UsageError("words have no refinement poset; use --poset rotation")
        rank = getattr(args, "rank", None)
        if rank is not None and not 0 <= rank <= m + n - 1:
            raise UsageError(f"invalid parameters: rank must lie in [0, {m + n - 1}]")
        total = n + 1 if args.kind == "freehedron" else m + n
    if total > DEFAULT_CEILING and not args.unsafe_bound:
        raise UsageError(
            f"m + n = {total} exceeds the safety ceiling {DEFAULT_CEILING}; "
            "pass --unsafe-bound to override"
        )


def _emit(args, text: str) -> int:
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    return 0


# -- enumerate -----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    from .families import family

    fam = family(args.kind)
    if args.count_only:
        # the census histograms count labels instead of building objects
        hist = fam.rank_histogram(args.m, args.n)
        count = sum(hist) if args.rank is None else hist[args.rank]
    else:
        objs = fam.enum(args.m, args.n, rank=args.rank)
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": args.kind,
            "m": args.m,
            "n": args.n,
            "rank": args.rank,
        }
        if args.count_only:
            doc["count"] = count
        else:
            doc["objects"] = [o.to_json_obj() for o in objs]
        return _emit(args, json.dumps(doc, indent=1) + "\n")
    if args.count_only:
        return _emit(args, f"{count}\n")
    return _emit(args, "".join(o.canonical() + "\n" for o in objs))


# -- polytope -------------------------------------------------------------------


def cmd_polytope(args) -> int:
    from .geometry import (
        _polytope_objects,
        barycenter,
        certify_polytope,
        freehedron_report,
        minkowski_data,
        omega,
    )

    if args.kind == "freehedron":
        rep = freehedron_report(args.n)
        if args.format == "json":
            doc = {
                "format_version": FORMAT_VERSION,
                "kind": "freehedron",
                "n": args.n,
                "vertices": [[str(c) for c in v] for v in rep.vertices],
                "omega": list(omega(args.n + 1)),
                "oriented_edges": rep.edges,
                "is_lattice": rep.is_lattice,
                "joinless_pair": rep.joinless_pair,
                "meetless_pair": rep.meetless_pair,
            }
            return _emit(args, json.dumps(doc, indent=1) + "\n")
        lines = [f"freehedron n={args.n}: {rep.num_vertices} vertices, {rep.num_edges} edges"]
        lines += [" ".join(str(c) for c in v) for v in rep.vertices]
        if rep.is_lattice:
            lines.append("omega orientation: lattice")
        else:
            lines.append(
                "omega orientation is not a lattice: "
                f"vertices {rep.joinless_pair} have no join, "
                f"vertices {rep.meetless_pair} have no meet"
            )
        return _emit(args, "\n".join(lines) + "\n")

    report = certify_polytope(args.kind, args.m, args.n)
    poly = _polytope_objects(args.kind, args.m, args.n)
    mink = minkowski_data(args.kind, args.m, args.n)
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": args.kind,
            "m": args.m,
            "n": args.n,
            "vertices": [
                {"object": o.to_json_obj(), "point": [str(c) for c in v]}
                for o, v in zip(poly.rotation.elements, poly.vertices)
            ],
            "facets": [
                {
                    "object": o.to_json_obj(),
                    "support": sorted(f.support),
                    "rhs": str(f.rhs),
                }
                for o, f in zip(poly.facet_objects, poly.facets)
            ],
            "minkowski": mink.to_json_obj(),
            "barycenter": [str(c) for c in barycenter(args.kind, args.m, args.n)],
            "certification": {
                "passed": report.passed,
                "checks": dict(report.checks),
                "counterexample": report.counterexample,
            },
        }
        code = _emit(args, json.dumps(doc, indent=1) + "\n")
    else:
        lines = [
            f"{args.kind} ({args.m},{args.n}): "
            f"{report.num_vertices} vertices, {report.num_facets} facets",
            "V-representation (one vertex per line):",
        ]
        lines += ["  " + " ".join(str(c) for c in v) for v in poly.vertices]
        lines.append("H-representation (support >= rhs):")
        lines += [
            f"  {'+'.join('x' + str(i) for i in sorted(f.support))} >= {f.rhs}"
            for f in poly.facets
        ]
        lines.append(
            "certification: " + ("certified" if report.passed else "FAILED")
        )
        if report.counterexample:
            lines.append("counterexample: " + report.counterexample)
        code = _emit(args, "\n".join(lines) + "\n")
    if code == 0 and not report.passed:
        return 1
    return code


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_suite

    if args.format == "csv" and args.suite != "tables":
        raise UsageError("--format csv is only available with --suite tables")
    if args.format == "csv":
        from .tables import reproduce_tables
        from .verify import reach

        report = reproduce_tables(bound=reach("tables", args.bound))
        code = _emit(args, report.to_csv())
        if code == 0 and not report.ok:
            return 1
        return code
    results = run_suite(args.suite, args.bound)
    ok = all(r.ok for r in results)
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "ok": ok,
            "suites": [r.to_json_obj() for r in results],
        }
        code = _emit(args, json.dumps(doc, indent=1) + "\n")
    else:
        code = _emit(args, "\n".join(r.summary() for r in results) + "\n")
    if code == 0 and not ok:
        return 1
    return code


# -- hasse ----------------------------------------------------------------------------


def cmd_hasse(args) -> int:
    from .posets import build_refinement_poset, build_rotation_poset, word_subposet

    if args.kind == "word":
        poset = word_subposet(args.m, args.n)
        label = lambda w: "".join(str(c) for c in w)  # noqa: E731
    else:
        builder = (
            build_rotation_poset if args.poset == "rotation" else build_refinement_poset
        )
        poset = builder(args.kind, args.m, args.n)
        label = lambda o: o.canonical()  # noqa: E731
    name = f"{args.kind}_{args.poset}_{args.m}_{args.n}"
    return _emit(args, poset.to_dot(label=label, name=name))


# -- wiring ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochschild-kit",
        description="painted trees, lighted shades, and their polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kinds, formats):  # the last format is the default
        p.add_argument("--kind", choices=kinds, required=True)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=formats, default=formats[-1])
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument(
            "--unsafe-bound",
            action="store_true",
            help=f"lift the m + n <= {DEFAULT_CEILING} safety ceiling",
        )

    p = sub.add_parser("enumerate", help="list painted trees or lighted shades")
    common(p, ("painted", "shade"), ("json", "text"))
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("polytope", help="V/H representations and certification")
    common(p, ("multiplihedron", "hochschild", "freehedron"), ("json", "text"))
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=("lattice", "morphism", "fan", "cubic", "tables", "all"),
        required=True,
    )
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p.add_argument("--output", default=None)
    p.add_argument("--unsafe-bound", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hasse", help="emit a Hasse diagram in DOT format")
    common(p, ("painted", "shade", "word"), ("dot",))
    p.add_argument("--poset", choices=("rotation", "refinement"), default="rotation")
    p.set_defaults(fn=cmd_hasse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_params(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

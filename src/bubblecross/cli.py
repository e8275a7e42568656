"""Command-line surface: graph and mesh exports, verification suites,
bound tables, and generation traces.

Exit codes: 0 on success, 1 when a property or invariant check fails,
2 for usage and configuration errors.  Identical invocations (including
the seed) produce byte-identical artifacts, and a failed write leaves no
partial file.

Importing this module and building its parser load no layer; each
subcommand loads only what its handler uses: `graph` loads `graphs` and
`perms`, `mesh` loads `mesh`, `bounds` loads `bounds` and `mesh`, `trace`
loads `drawing` and `perms`, and `verify` loads `verify` and with it
`drawing`, `graphs`, `mesh` and `perms`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import DEFAULT_SEED, GENERATION_GUARD, POLICIES, SEED_SPLITS, SUITE_NAMES
from .errors import DimensionGuardError, StateInvariantError

OUT_DIR_ENV = "BUBBLECROSS_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblecross",
        description="Crossing-count toolkit for bubble-sort graphs.",
        epilog=f"Randomized suites default to the fixed seed {DEFAULT_SEED}; "
               f"set {OUT_DIR_ENV} to redirect relative output paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="export a bubble-sort graph or its sixth-part subgraph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--bprime", action="store_true", help="export the sixth-part subgraph")
    g.add_argument("--format", choices=("dot", "json"), default="dot")
    g.add_argument("--output", "-o", help="file path; stdout when omitted")

    m = sub.add_parser("mesh", help="count crossings of one mesh, optionally rendering it")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--a", type=int, required=True)
    m.add_argument("--P", required=True, help="comma-separated lost anchors, e.g. 2,4,5,3")
    m.add_argument("--format", choices=("svg", "json"), default=None)
    m.add_argument("--output", "-o")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)

    b = sub.add_parser("bounds", help="emit the exact bound table")
    b.add_argument("--n-max", type=int, default=30)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--output", "-o")

    t = sub.add_parser("trace", help="trace the replacement state machine")
    t.add_argument("--to", type=int, required=True,
                   help=f"target generation, 7..{GENERATION_GUARD}")
    t.add_argument("--policy", choices=sorted(POLICIES), default="fixed")
    t.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t.add_argument("--split", choices=SEED_SPLITS, default="alternating")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--output", "-o")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    if p.exists() and not p.is_file():
        # A device or pipe (/dev/null, /dev/stdout, a FIFO) takes the bytes
        # in place; renaming over it would replace the node itself.
        p.write_text(text, encoding="utf-8", newline="")
        return
    # Write beside the target and rename over it, so a failed write leaves
    # neither a partial artifact nor the temporary file.
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_graph(args) -> int:
    from . import graphs

    builder = graphs.build_bprime if args.bprime else graphs.build_bn
    g = builder(args.n)
    text = graphs.to_dot(g) if args.format == "dot" else graphs.to_json(g)
    _emit(text, args.output)
    if args.output is not None:
        extra = f", core={len(g.core)}" if g.core is not None else ""
        print(f"wrote {args.output}: {g.vertex_count} vertices, {g.edge_count} edges{extra}")
    return 0


def _cmd_mesh(args) -> int:
    from . import mesh

    try:
        ks = tuple(int(x) for x in args.P.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --P {args.P!r} as comma-separated integers") from None
    spec = mesh.MeshSpec(args.n, args.a, ks)
    formula = mesh.total_crossings(spec)
    oracle = mesh.oracle_crossings(spec)
    print(f"total_crossings={formula}")
    print(f"oracle_crossings={oracle}")
    if formula != oracle:
        print("formula and oracle disagree", file=sys.stderr)
        return 1
    if args.format == "svg":
        _emit(mesh.mesh_svg(spec), args.output)
    elif args.format == "json":
        _emit(mesh.mesh_to_json(spec), args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    report = verify.run_suite(args.suite, seed=args.seed)
    for line in report.lines:
        print(line)
    return 0 if report.passed else 1


def _cmd_bounds(args) -> int:
    from . import bounds

    rows = bounds.bound_table(args.n_max)
    text = bounds.table_csv(rows) if args.format == "csv" else bounds.table_json(rows)
    _emit(text, args.output)
    if args.output is not None:
        print(f"wrote {args.output}: rows for n=7..{args.n_max}")
    return 0


def _cmd_trace(args) -> int:
    if not 7 <= args.to <= GENERATION_GUARD:
        raise DimensionGuardError(f"--to must lie in 7..{GENERATION_GUARD}, got {args.to}")
    from . import drawing

    policy = drawing.make_policy(args.policy, args.seed)
    gens = drawing.run_generations(args.to, policy, split=args.split)
    text = drawing.trace_csv(gens) if args.format == "csv" else drawing.snapshot_json(gens[-1])
    _emit(text, args.output)
    if args.output is not None:
        final = gens[-1]
        print(f"wrote {args.output}: generation {final.n} holds {final.total} states")
    return 0


_HANDLERS = {
    "graph": _cmd_graph,
    "mesh": _cmd_mesh,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (StateInvariantError, ArithmeticError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except (DimensionGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

"""Workloads: seeded inputs plus a fixed list of jobs per workload.

A job is one operation: it calls public functions of one layer through
``p.call`` (so a traced pass gets one span per call) and checks what
they return.  A failed check raises ``CheckFailed``; the runner counts
the job as failed and goes on with the next one.

Every workload starts with the same ``probe`` jobs, one call of each
timed function at its smallest size.  They take about 0.1 s, about 1%
of a pass, and make every per-layer metric a measured time on every
workload, while the workload's own jobs keep the intended layer
dominant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
from collections import Counter
from functools import partial
from math import comb, factorial
from pathlib import Path

from bubblecross import bounds, cli, drawing, graphs, mesh, perms, verify


class CheckFailed(Exception):
    """An output of the library differs from what the benchmark expects."""


class Pass:
    """State of one pass over a job list: the tracer, work counts, outputs."""

    def __init__(self, tracer, goldens: dict[str, str], inputs: dict, out_dir: Path):
        self.call = tracer.call
        self.goldens = goldens
        self.inputs = inputs
        self.out_dir = out_dir
        self.counts: Counter = Counter()
        self.state: dict = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    def golden(self, key: str, text: str) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.check(self.goldens.get(key) == digest, f"sha256 of {key} differs from its golden")

    def rss_call(self, name: str, fn, *args):
        """A graphs call, also adding how far it raised the peak RSS."""
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = self.call(name, fn, *args)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.counts["graphs.rss_growth_kb"] += after - before
        return result

    def cli(self, argv: list[str]) -> str:
        """Run cli.main with captured output; a nonzero exit fails the job."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.call("cli.main", cli.main, argv)
        if code != 0:
            self.counts["cli.failed"] += 1
        self.check(code == 0, f"cli.main({argv}) exited {code}")
        return out.getvalue()


# ---------------------------------------------------------------- checks

def _check_graph(p: Pass, g, vertices: int, edges: int, core: int | None) -> None:
    p.counts["graphs.vertices"] += g.vertex_count
    p.counts["graphs.edges"] += g.edge_count
    p.check(g.vertex_count == vertices, f"{g.vertex_count} vertices, want {vertices}")
    p.check(g.edge_count == edges, f"{g.edge_count} edges, want {edges}")
    if core is not None:
        p.check(len(g.core) == core, f"{len(g.core)} core vertices, want {core}")


def _export(p: Pass, key: str, fn, g) -> None:
    text = p.rss_call(f"graphs.{fn.__name__}", fn, g)
    p.counts["graphs.export_bytes"] += len(text.encode("utf-8"))
    p.golden(key, text)


def _roundtrip(p: Pass, ranks, n: int) -> None:
    bad = 0
    for r in ranks:
        label = p.call("perms.perm_unrank", perms.perm_unrank, r, n)
        if p.call("perms.perm_rank", perms.perm_rank, label) != r:
            bad += 1
    p.counts["perms.labels"] += len(ranks)
    p.check(bad == 0, f"{bad} of {len(ranks)} ranks did not round-trip at n={n}")


def _symmetry(p: Pass, n: int) -> None:
    res = p.rss_call("graphs.symmetry_classes", graphs.symmetry_classes, n)
    sizes = {len(c) for c in res.classes.values()}
    p.check(res.all_isomorphic, f"sectors of n={n} are not all isomorphic")
    p.check(len(res.classes) == 6 and sizes == {factorial(n) // 6},
            f"classes of n={n} have sizes {sorted(sizes)}")


def _generations(p: Pass, to_n: int, policy_name: str, seed: int):
    policy = p.call("drawing.make_policy", drawing.make_policy, policy_name, seed)
    gens = p.call("drawing.run_generations", drawing.run_generations, to_n, policy)
    p.counts["drawing.parents"] += sum(g.total for g in gens[:-1])
    p.counts["drawing.distinct_parents"] += sum(len(g.states) for g in gens[:-1])
    p.check(gens[-1].total == factorial(to_n) // 6,
            f"generation {to_n} holds {gens[-1].total} states")
    return gens


def _labeled(p: Pass, to_n: int, seed: int, expected: Counter) -> None:
    assignment = p.call("drawing.seed_labeled", drawing.seed_labeled)
    policy = p.call("drawing.make_policy", drawing.make_policy, "random", seed)
    for _ in range(6, to_n):
        assignment = p.call("drawing.step_labeled", drawing.step_labeled, assignment, policy)
    p.check(len(assignment) == factorial(to_n) // 6,
            f"{len(assignment)} labeled vertices at n={to_n}")
    p.check(Counter(assignment.values()) == expected,
            f"labeled states at n={to_n} differ from the generation multiset")


def _bound_table(p: Pass, n_max: int) -> None:
    rows = p.call("bounds.bound_table", bounds.bound_table, n_max)
    p.counts["bounds.rows"] += len(rows)
    p.counts["bounds.digits"] += sum(len(str(row.bound)) for row in rows)
    p.check([row.n for row in rows] == list(range(7, n_max + 1)), f"rows of table {n_max}")
    p.check(all(r.nu_recurrence == r.nu_sum == r.nu_bracket for r in rows),
            f"the three bound routes disagree in table {n_max}")
    p.golden(f"bounds{n_max}.csv", p.call("bounds.table_csv", bounds.table_csv, rows))
    p.golden(f"bounds{n_max}.json", p.call("bounds.table_json", bounds.table_json, rows))


def _exhaustive(p: Pass, n: int, a: int) -> None:
    best, witness = p.call("mesh.exhaustive_max", mesh.exhaustive_max, n, a)
    p.counts["mesh.sequences"] += factorial(n - 2)
    closed = p.call("mesh.mesh_max", mesh.mesh_max, n, a)
    recount = p.call("mesh.total_crossings", mesh.total_crossings, witness)
    p.check(best == closed == recount,
            f"(n={n}, a={a}): exhaustive {best}, closed form {closed}, witness {recount}")


def _oracle(p: Pass, spec) -> None:
    rays = (spec.n - 2) * (spec.n - 1)
    formula = p.call("mesh.total_crossings", mesh.total_crossings, spec)
    oracle = p.call("mesh.oracle_crossings", mesh.oracle_crossings, spec)
    p.counts["mesh.ray_pairs"] += comb(rays, 2)
    p.check(formula == oracle, f"{spec}: formula {formula} != oracle {oracle}")


def _sort(p: Pass, spec) -> None:
    before = p.call("mesh.total_crossings", mesh.total_crossings, spec)
    sorted_spec, steps = p.call("mesh.sort_spec", mesh.sort_spec, spec)
    after = p.call("mesh.total_crossings", mesh.total_crossings, sorted_spec)
    p.check(sorted_spec.left == tuple(sorted(spec.left))
            and sorted_spec.right == tuple(sorted(spec.right)), f"{spec}: sides not sorted")
    p.check(all(st.delta == 2 * (st.hi - st.lo) - 1 > 0 for st in steps),
            f"{spec}: a swap delta is not 2*(hi-lo)-1")
    p.check(after - before == sum(st.delta for st in steps),
            f"{spec}: swap deltas do not sum to the total's change")


def _svg(p: Pass, spec) -> str:
    svg = p.call("mesh.mesh_svg", mesh.mesh_svg, spec)
    total = p.call("mesh.total_crossings", mesh.total_crossings, spec)
    markers = svg.count('class="crossing"')
    p.check(markers == total, f"{spec}: {markers} crossing markers, formula {total}")
    return svg


# ---------------------------------------------------------------- probes

def _probe_perms(p):
    _roundtrip(p, p.inputs["probe_ranks"], 4)


def _probe_graphs(p):
    g = p.rss_call("graphs.build_bn", graphs.build_bn, 4)
    _check_graph(p, g, 24, 36, None)
    _export(p, "b4.dot", graphs.to_dot, g)
    _export(p, "b4.json", graphs.to_json, g)
    p.check(p.call("graphs.is_connected", graphs.is_connected, g), "B_4 is not connected")
    bp = p.rss_call("graphs.build_bprime", graphs.build_bprime, 6)
    _check_graph(p, bp, 240, 360, 120)
    _export(p, "bprime6.json", graphs.to_json, bp)
    _symmetry(p, 4)


def _probe_mesh(p):
    _exhaustive(p, 7, 2)
    _oracle(p, p.inputs["probe_spec"])
    _sort(p, p.inputs["probe_spec"])
    p.golden("mesh6.svg", _svg(p, mesh.MeshSpec(6, 2, (2, 4, 5, 3))))


def _probe_drawing(p):
    gens = _generations(p, 7, "fixed", 0)
    _labeled(p, 7, p.inputs["seed"], gens[-1].states)


def _probe_bounds(p):
    _bound_table(p, 8)


def _probe_verify(p):
    report = p.call("verify.run_suite", verify.run_suite, "symmetry")
    p.check(report.passed, "verify symmetry failed")


PROBES = [
    ("probe.perms", _probe_perms),
    ("probe.graphs", _probe_graphs),
    ("probe.mesh", _probe_mesh),
    ("probe.drawing", _probe_drawing),
    ("probe.bounds", _probe_bounds),
    ("probe.verify", _probe_verify),
]


def _probe_inputs(rng: random.Random) -> dict:
    ranks = list(range(factorial(4)))
    rng.shuffle(ranks)
    return {"probe_ranks": ranks, "probe_spec": random_spec(rng, 8)}


def random_spec(rng: random.Random, n: int):
    ks = list(range(2, n))
    rng.shuffle(ks)
    return mesh.MeshSpec(n, rng.randint(0, n - 2), tuple(ks))


# ---------------------------------------------------------------- export

def _bn8(p):
    g = p.rss_call("graphs.build_bn", graphs.build_bn, 8)
    p.state["bn8"] = g
    _check_graph(p, g, factorial(8), factorial(8) * 7 // 2, None)


def _bn8_dot(p):
    _export(p, "bn8.dot", graphs.to_dot, p.state["bn8"])


def _bn8_json(p):
    _export(p, "bn8.json", graphs.to_json, p.state["bn8"])


def _bn8_connected(p):
    p.check(p.rss_call("graphs.is_connected", graphs.is_connected, p.state["bn8"]),
            "B_8 is not connected")


def _bprime9(p):
    g = p.rss_call("graphs.build_bprime", graphs.build_bprime, 9)
    p.state["bprime9"] = g
    _check_graph(p, g, 100800, 262080, factorial(9) // 6)


def _bprime9_json(p):
    _export(p, "bprime9.json", graphs.to_json, p.state["bprime9"])


def _bprime9_connected(p):
    p.check(p.rss_call("graphs.is_connected", graphs.is_connected, p.state["bprime9"]),
            "B'_9 is not connected")


def _symmetry7(p):
    _symmetry(p, 7)


def _roundtrip8(p):
    _roundtrip(p, p.inputs["ranks8"], 8)


def _cli_graph(p):
    target = p.out_dir / "cli_graph_bprime8.json"
    try:
        p.cli(["graph", "--n", "8", "--bprime", "--format", "json", "-o", str(target)])
        p.golden("cli_graph_bprime8.json", target.read_text(encoding="utf-8"))
    finally:
        target.unlink(missing_ok=True)


def _export_inputs(rng: random.Random) -> dict:
    ranks = list(range(factorial(8)))
    rng.shuffle(ranks)
    return {"ranks8": ranks}


EXPORT = [
    ("graphs.bn8", _bn8),
    ("graphs.bn8_dot", _bn8_dot),
    ("graphs.bn8_json", _bn8_json),
    ("graphs.bn8_connected", _bn8_connected),
    ("graphs.bprime9", _bprime9),
    ("graphs.bprime9_json", _bprime9_json),
    ("graphs.bprime9_connected", _bprime9_connected),
    ("graphs.symmetry7", _symmetry7),
    ("perms.roundtrip8", _roundtrip8),
    ("cli.graph", _cli_graph),
]


# ---------------------------------------------------------------- recursion

def _gens_fixed(p):
    gens = _generations(p, 10, "fixed", 0)
    p.state["fixed"] = gens
    p.golden("trace10.csv", p.call("drawing.trace_csv", drawing.trace_csv, gens))


def _gens_random(p):
    gens = _generations(p, 10, "random", p.inputs["seed"])
    fixed = p.state["fixed"]
    p.check([g.diff_multiset() for g in gens] == [g.diff_multiset() for g in fixed],
            "random policy changes the imbalance profile")
    p.golden("trace10.csv", p.call("drawing.trace_csv", drawing.trace_csv, gens))


def _labeled9(p):
    _labeled(p, 9, p.inputs["seed"], p.state["fixed"][3].states)


def _cli_trace(p):
    p.golden("cli_trace9.csv", p.cli(["trace", "--to", "9"]))


def _cli_bounds(p):
    p.golden("bounds200.csv", p.cli(["bounds", "--n-max", "200"]))


RECURSION = [
    ("drawing.generations_fixed", _gens_fixed),
    ("drawing.generations_random", _gens_random),
    ("drawing.labeled9", _labeled9),
    *((f"bounds.table{n_max}", partial(_bound_table, n_max=n_max))
      for n_max in (50, 100, 150, 200)),
    ("cli.trace", _cli_trace),
    ("cli.bounds", _cli_bounds),
]


# ---------------------------------------------------------------- worstcase

def supported_splits(n: int) -> list[int]:
    """The left-family counts a that mesh_max has a closed form for."""
    m = n // 2 if n % 2 == 0 else (n + 1) // 2
    if m < 4:
        return []
    return [m - 2, m - 1, m] if n % 2 == 0 else [m - 2, m - 1]


# Two seeded specs per size; one job per spec, so each job is short.
SPEC_SIZES = [n for n in range(8, 31) for _ in range(2)]
SVG_SPECS = 4


def _spec_job(p, i: int) -> None:
    spec = p.inputs["random_specs"][i]
    _oracle(p, spec)
    _sort(p, spec)


def _svg_job(p, i: int) -> None:
    _svg(p, p.inputs["svg_specs"][i])


def _mesh_max_all(p):
    values = [
        f"{n},{a},{p.call('mesh.mesh_max', mesh.mesh_max, n, a)}"
        for n in range(7, 401) for a in supported_splits(n)
    ]
    p.golden("mesh_max400.csv", "\n".join(values) + "\n")


def _verify_lemma1(p):
    report = p.call("verify.run_suite", verify.run_suite, "lemma1", seed=p.inputs["seed"])
    p.check(report.passed and report.cases == 520, f"lemma1: {report.lines[-1]}")


def _cli_verify(p):
    p.golden("cli_verify_lemma1.txt", p.cli(["verify", "lemma1"]))


def _worstcase_inputs(rng: random.Random) -> dict:
    return {
        "random_specs": [random_spec(rng, n) for n in SPEC_SIZES],
        "svg_specs": [random_spec(rng, 12) for _ in range(SVG_SPECS)],
    }


WORSTCASE = [
    *((f"mesh.exhaustive{n}_{a}", partial(_exhaustive, n=n, a=a))
      for n in range(7, 12) for a in supported_splits(n)),
    *((f"mesh.spec{i}_n{n}", partial(_spec_job, i=i)) for i, n in enumerate(SPEC_SIZES)),
    *((f"mesh.svg{i}", partial(_svg_job, i=i)) for i in range(SVG_SPECS)),
    ("mesh.closed_forms", _mesh_max_all),
    ("verify.lemma1", _verify_lemma1),
    ("cli.verify", _cli_verify),
]


WORKLOADS = {
    "export": (EXPORT, _export_inputs),
    "recursion": (RECURSION, lambda rng: {}),
    "worstcase": (WORSTCASE, _worstcase_inputs),
}


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of a workload, generated from its seed alone."""
    rng = random.Random(seed)
    inputs = {"seed": seed, **_probe_inputs(rng)}
    inputs.update(WORKLOADS[workload][1](rng))
    return inputs


def jobs(workload: str) -> list:
    return PROBES + WORKLOADS[workload][0]

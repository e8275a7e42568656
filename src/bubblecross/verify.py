"""Named verification suites behind the command line's verify subcommand.

Each suite runs one family of checks at its documented scale and reports
the case count; a suite stops at its first counterexample.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial

from . import drawing, graphs, mesh
from .config import DEFAULT_SEED
from .errors import StateInvariantError
from .perms import inversions


@dataclass
class Report:
    suite: str
    passed: bool
    cases: int
    lines: list[str] = field(default_factory=list)


def random_spec(rng: random.Random, n: int) -> mesh.MeshSpec:
    ks = list(range(2, n))
    rng.shuffle(ks)
    return mesh.MeshSpec(n, rng.randint(0, n - 2), tuple(ks))


def suite_lemma1(seed: int = DEFAULT_SEED) -> Report:
    """Formula count equals the geometric oracle: exhaustive at n=6,
    seeded random for n = 7..10."""
    lines = []
    cases = 0
    for a in range(0, 5):
        for P in itertools.permutations(range(2, 6)):
            spec = mesh.MeshSpec(6, a, P)
            cases += 1
            if mesh.total_crossings(spec) != mesh.oracle_crossings(spec):
                lines.append(f"lemma1: FAIL counterexample {spec}")
                return Report("lemma1", False, cases, lines)
    lines.append(f"lemma1: exhaustive n=6 checked {cases} specs")
    rng = random.Random(seed)
    for n in range(7, 11):
        for _ in range(100):
            spec = random_spec(rng, n)
            cases += 1
            if mesh.total_crossings(spec) != mesh.oracle_crossings(spec):
                lines.append(f"lemma1: FAIL counterexample {spec}")
                return Report("lemma1", False, cases, lines)
        lines.append(f"lemma1: random n={n} checked 100 specs")
    lines.append(f"lemma1: PASS ({cases} specs, formula == oracle throughout)")
    return Report("lemma1", True, cases, lines)


def suite_lemma2() -> Report:
    """Sorting each side never lowers the total, one odd positive step at
    a time: exhaustive over n = 6 and n = 7."""
    lines = []
    cases = 0
    swaps = 0
    for n in (6, 7):
        for a in range(0, n - 1):
            for P in itertools.permutations(range(2, n)):
                spec = mesh.MeshSpec(n, a, P)
                cases += 1
                before = mesh.total_crossings(spec)
                sorted_spec, steps = mesh.sort_spec(spec)
                after = mesh.total_crossings(sorted_spec)
                ok = (
                    after >= before
                    and after - before == sum(st.delta for st in steps)
                    and len(steps) == inversions(spec.left) + inversions(spec.right)
                    and all(st.delta == 2 * (st.hi - st.lo) - 1 and st.delta > 0
                            for st in steps)
                    and sorted_spec.left == tuple(sorted(spec.left))
                    and sorted_spec.right == tuple(sorted(spec.right))
                )
                swaps += len(steps)
                if not ok:
                    lines.append(f"lemma2: FAIL counterexample {spec}")
                    return Report("lemma2", False, cases, lines)
        lines.append(f"lemma2: exhaustive n={n} done")
    lines.append(f"lemma2: PASS ({cases} specs, {swaps} swap deltas checked)")
    return Report("lemma2", True, cases, lines)


LEMMA3_EXPECTED = {
    (7, 2): 70, (7, 3): 70,
    (8, 2): 166, (8, 3): 142, (8, 4): 166,
    (9, 3): 280, (9, 4): 280,
}
LEMMA3_RUNTIME = [(10, 3), (10, 4), (10, 5), (11, 4), (11, 5)]


def suite_lemma3() -> Report:
    """Exhaustive maxima match the closed worst-case forms, n = 7..11.

    Each line names the search's coverage: the left sets and side
    orderings evaluated, which together cover every lost-anchor sequence.
    """
    lines = []
    cases = 0
    splits = sorted(LEMMA3_EXPECTED) + LEMMA3_RUNTIME
    for n, a in splits:
        expected = LEMMA3_EXPECTED.get((n, a))
        closed = mesh.mesh_max(n, a)
        best, witness = mesh.exhaustive_max(n, a)
        cases += 1
        if not (closed == best and expected in (None, best)
                and mesh.total_crossings(witness) == best):
            lines.append(
                f"lemma3: FAIL (n={n}, a={a}): closed={closed} "
                f"exhaustive={best} expected={expected}"
            )
            return Report("lemma3", False, cases, lines)
        left_sets = comb(n - 2, a)
        orderings = left_sets * (factorial(a) + factorial(n - 2 - a))
        lines.append(f"lemma3: (n={n}, a={a}) max={best} over {left_sets} left sets, "
                     f"{orderings} side orderings (all {factorial(n - 2)} sequences)")
    lines.append(f"lemma3: PASS ({cases} splits over n={splits[0][0]}..{splits[-1][0]}, "
                 f"exhaustive maxima equal the closed forms)")
    return Report("lemma3", True, cases, lines)


LEMMA45_MAX_N = 14


def suite_lemma45(seed: int = DEFAULT_SEED) -> Report:
    """Replacement invariants over every lost-side plan, n = 6..LEMMA45_MAX_N.

    Every plan of every legal state must pass the per-parent checks
    (arc conservation, imbalance classes, balanced/offset child counts)
    and give one child multiset, so generation multisets are policy
    independent.  Generations traced from each seed split under the
    seeded random policy must share one imbalance profile.
    """
    lines = []
    cases = 0
    for n in range(6, LEMMA45_MAX_N + 1):
        before = cases
        states = drawing.legal_states(n)
        for s in states:
            reference = None
            for sides in drawing.all_plans(n, s):
                cases += 1
                where = f"n={n} parent {tuple(s)} plan {''.join(x.value for x in sides)}"
                try:
                    children = Counter(drawing.checked_children(n, s, sides))
                except StateInvariantError as exc:
                    lines.append(f"lemma45: FAIL {where}: {exc}")
                    return Report("lemma45", False, cases, lines)
                reference = reference or children
                if children != reference:
                    lines.append(f"lemma45: FAIL {where}: child multiset differs from "
                                 f"the first plan's")
                    return Report("lemma45", False, cases, lines)
        lines.append(f"lemma45: n={n} all {cases - before} plans of {len(states)} states agree")
    profiles = []
    for split in drawing.SEED_SPLITS:
        try:
            gens = drawing.run_generations(LEMMA45_MAX_N, drawing.make_policy("random", seed),
                                           split=split)
        except StateInvariantError as exc:
            lines.append(f"lemma45: FAIL seed split {split}: {exc}")
            return Report("lemma45", False, cases, lines)
        profiles.append([g.diff_multiset() for g in gens])
        if profiles[-1] != profiles[0]:
            lines.append(f"lemma45: FAIL seed split {split} changes the imbalance profile")
            return Report("lemma45", False, cases, lines)
    lines.append(f"lemma45: seed splits {', '.join(drawing.SEED_SPLITS)} share one imbalance "
                 f"profile through n={LEMMA45_MAX_N} (random policy, seed {seed})")
    lines.append(f"lemma45: PASS ({cases} lost-side plans over n=6..{LEMMA45_MAX_N}; "
                 f"policy and seed-split independent)")
    return Report("lemma45", True, cases, lines)


def suite_symmetry() -> Report:
    """Six equal classes whose sectors are isomorphic under relabeling."""
    lines = []
    for n in (5, 6):
        res = graphs.symmetry_classes(n)
        sizes = {len(c) for c in res.classes.values()}
        if len(res.classes) != 6 or sizes != {factorial(n) // 6}:
            lines.append(f"symmetry: FAIL at n={n} (sizes {sorted(sizes)})")
            return Report("symmetry", False, 1, lines)
        if res.mismatch is not None:
            o1, o2 = res.mismatch
            lines.append(f"symmetry: FAIL at n={n}: class {o1} relabeled onto {o2} "
                         f"differs in core or sector")
            return Report("symmetry", False, 1, lines)
        lines.append(
            f"symmetry: n={n} splits into 6 classes of {factorial(n) // 6}, "
            f"all sectors isomorphic"
        )
    lines.append("symmetry: PASS")
    return Report("symmetry", True, 2, lines)


def suite_planarity() -> Report:
    """Planarity of the small graphs plus the classic sanity cases."""
    lines = []
    expected = {2: True, 3: True, 4: True, 5: False}
    for n, want in expected.items():
        got = graphs.is_planar(graphs.build_bn(n))
        if got != want:
            lines.append(f"planarity: FAIL B_{n} reported {'planar' if got else 'non-planar'}")
            return Report("planarity", False, n - 1, lines)
        lines.append(f"planarity: B_{n} {'planar' if got else 'non-planar'}")
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    if graphs.edges_planar(k5) or graphs.edges_planar(k33):
        lines.append("planarity: FAIL complete-graph sanity check")
        return Report("planarity", False, 6, lines)
    lines.append("planarity: K5 and K3,3 rejected")
    lines.append("planarity: PASS")
    return Report("planarity", True, 6, lines)


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma45": suite_lemma45,
    "symmetry": suite_symmetry,
    "planarity": suite_planarity,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, pick one of {sorted(SUITES)}")
    fn = SUITES[name]
    if name in ("lemma1", "lemma45"):
        return fn(seed)
    return fn()

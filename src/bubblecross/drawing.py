"""Arc-count bookkeeping for the recursive drawing construction.

Every sector vertex of generation n carries a state (l, r): how many of
its n - 1 edges leave the axis to the left and to the right.  Replacing
the vertex by an (n+1)-path under one of three structures produces the
n + 1 child states of generation n + 1.  Only the multiset of states
feeds the bounds, and the multiset does not depend on which child loses
which bunch (Lemmas 4-5), so a generation steps each distinct state
once, and the lost-side order is a plain side-order function.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import random
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

from .config import DEFAULT_SEED, GENERATION_GUARD, POLICIES
from .errors import DimensionGuardError, StateInvariantError
from .perms import Perm, expand_vertex, in_bprime


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


class StructureKind(enum.Enum):
    ELEVEN = "11"     # path edges alternate left, right, left, ...
    TWO_ZERO = "20"   # every path edge drawn left
    ZERO_TWO = "02"   # every path edge drawn right


class VertexState(NamedTuple):
    l: int
    r: int

    @property
    def diff(self) -> int:
        return self.l - self.r


def allowed_diffs(n: int) -> frozenset[int]:
    """Arc-imbalance values a generation-n state may take."""
    return frozenset({1, -1}) if n % 2 == 0 else frozenset({0, 2, -2})


def in_parity_class(n: int, s: VertexState) -> bool:
    l, r = s
    return l >= 0 and r >= 0 and l + r == n - 1 and (l - r) in allowed_diffs(n)


def legal_states(n: int) -> list[VertexState]:
    """Every state a generation-n vertex may carry, by ascending imbalance."""
    return [VertexState((n - 1 + d) // 2, (n - 1 - d) // 2) for d in sorted(allowed_diffs(n))]


def choose_structure(n: int, s: VertexState) -> StructureKind:
    """Structure choice of the balanced construction, by parity and imbalance."""
    if not in_parity_class(n, s):
        raise StateInvariantError(f"state {tuple(s)} is not a legal generation-{n} state")
    d = s.l - s.r
    if n % 2 == 0 or d == 0:
        return StructureKind.ELEVEN
    return StructureKind.TWO_ZERO if d == -2 else StructureKind.ZERO_TWO


@dataclass(frozen=True)
class ReplacementPlan:
    """Structure plus the side each interior child's lost bunch sits on.

    Children 1 and n+1 lose nothing; child i in 2..n is the lost anchor
    of exactly one bunch.  A plan for state (l, r) must hand out exactly
    l left losses and r right losses.
    """

    structure: StructureKind
    lost_side: dict[int, Side]


def _path_edge_side(structure: StructureKind, j: int) -> Side:
    if structure is StructureKind.TWO_ZERO:
        return Side.LEFT
    if structure is StructureKind.ZERO_TWO:
        return Side.RIGHT
    return Side.LEFT if j % 2 == 1 else Side.RIGHT


def replace_vertex(n: int, s: VertexState, plan: ReplacementPlan) -> list[VertexState]:
    """Child states by child index 1..n+1.

    Each child keeps the parent's bunch arcs minus its own lost one, then
    gains one arc per incident path edge, so l + r = n for every child.
    """
    expected = choose_structure(n, s)
    if plan.structure is not expected:
        raise StateInvariantError(
            f"plan structure {plan.structure.value} but state {tuple(s)} needs {expected.value}"
        )
    if set(plan.lost_side) != set(range(2, n + 1)):
        raise StateInvariantError("plan must assign lost bunches to children 2..n exactly")
    sides = list(plan.lost_side.values())
    if sides.count(Side.LEFT) != s.l or sides.count(Side.RIGHT) != s.r:
        raise StateInvariantError(
            f"plan hands out {sides.count(Side.LEFT)} left / "
            f"{sides.count(Side.RIGHT)} right losses, state is {tuple(s)}"
        )
    children = []
    for i in range(1, n + 2):
        cl, cr = s.l, s.r
        if 2 <= i <= n:
            if plan.lost_side[i] is Side.LEFT:
                cl -= 1
            else:
                cr -= 1
        for j in (i - 1, i):
            if 1 <= j <= n:
                if _path_edge_side(plan.structure, j) is Side.LEFT:
                    cl += 1
                else:
                    cr += 1
        children.append(VertexState(cl, cr))
    return children


# Maps a parent (n, state) to the sides of the bunches children 2..n lose.
SideOrder = Callable[[int, VertexState], list[Side]]


def make_policy(name: str, seed: int = DEFAULT_SEED) -> SideOrder:
    """Side order by name: sorted, rotated one further per call, or shuffled from seed."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}, pick one of {sorted(POLICIES)}")
    calls = itertools.count()
    rng = random.Random(seed)

    def sides(n: int, s: VertexState) -> list[Side]:
        base = [Side.LEFT] * s.l + [Side.RIGHT] * s.r
        if name == "roundrobin":
            k = next(calls) % len(base)
            base = base[k:] + base[:k]
        elif name == "random":
            rng.shuffle(base)
        return base

    return sides


def all_plans(n: int, s: VertexState) -> Iterator[list[Side]]:
    """Every lost-side order for state s: all C(n - 1, l) placements of the lefts."""
    for lefts in itertools.combinations(range(n - 1), s.l):
        yield [Side.LEFT if i in lefts else Side.RIGHT for i in range(n - 1)]


def _plan(n: int, s: VertexState, sides: list[Side]) -> ReplacementPlan:
    return ReplacementPlan(choose_structure(n, s), dict(zip(range(2, n + 1), sides)))


def checked_children(n: int, s: VertexState, sides: list[Side]) -> list[VertexState]:
    """Children of one parent under one lost-side order, after the per-parent checks.

    Raises StateInvariantError naming the parent when the replacement
    breaks arc conservation, the generation-(n+1) classes, or the
    even-parent balanced/offset child counts.
    """
    children = replace_vertex(n, s, _plan(n, s, sides))
    if sum(c.l + c.r for c in children) != n * (n + 1):
        raise StateInvariantError(
            f"arc conservation failed for parent {tuple(s)} at generation {n}"
        )
    bad = [tuple(c) for c in children if not in_parity_class(n + 1, c)]
    if bad:
        raise StateInvariantError(
            f"children {bad} of parent {tuple(s)} break the generation-{n + 1} classes"
        )
    if n % 2 == 0:
        zeros = sum(1 for c in children if c.diff == 0)
        twos = sum(1 for c in children if abs(c.diff) == 2)
        if zeros != n // 2 + 1 or twos != n // 2:
            raise StateInvariantError(
                f"child counts ({zeros} balanced, {twos} offset) wrong for "
                f"parent {tuple(s)} at even generation {n}"
            )
    return children


@dataclass
class GenerationState:
    """Multiset of arc-count states over the sector core at dimension n."""

    n: int
    states: Counter

    @property
    def total(self) -> int:
        return sum(self.states.values())

    def validate(self) -> None:
        expected = factorial(self.n) // 6
        if self.total != expected:
            raise StateInvariantError(
                f"generation {self.n} holds {self.total} states, expected {expected}"
            )
        for s, mult in self.states.items():
            if mult < 0 or not in_parity_class(self.n, VertexState(*s)):
                raise StateInvariantError(
                    f"generation {self.n} contains illegal state {tuple(s)}"
                )

    def diff_multiset(self) -> Counter:
        out: Counter = Counter()
        for s, mult in self.states.items():
            out[abs(s[0] - s[1])] += mult
        return out


_SPLIT_STATES = {
    "alternating": (VertexState(2, 3), VertexState(3, 2)),
    "all-23": (VertexState(2, 3),),
    "all-32": (VertexState(3, 2),),
}
SEED_SPLITS = tuple(_SPLIT_STATES)


def seed_labeled(split: str = "alternating") -> dict[Perm, VertexState]:
    """The 120 base states at n = 6, all with |l - r| = 1, keyed by core label.

    The base drawing fixes each vertex's split, but nothing downstream
    depends on more than the imbalance, so the split is a convention;
    the even mix and both extremes are offered.
    """
    if split not in _SPLIT_STATES:
        raise ValueError(f"unknown seed split {split!r}, pick one of {SEED_SPLITS}")
    states = _SPLIT_STATES[split]
    core = (p for p in itertools.permutations(range(1, 7)) if in_bprime(p))
    return {p: states[i % len(states)] for i, p in enumerate(core)}


def seed_d6(split: str = "alternating") -> GenerationState:
    """Multiset of the base states at n = 6."""
    g = GenerationState(6, Counter(seed_labeled(split).values()))
    g.validate()
    return g


def step_generation(g: GenerationState, policy: SideOrder) -> GenerationState:
    """Replace every vertex of generation n, checking the arc invariants.

    Children depend only on the parent state, so each distinct state is
    replaced once and its children count with its multiplicity.  Raises
    StateInvariantError naming the offending parent state.
    """
    n = g.n
    out: Counter = Counter()
    for s in sorted(g.states):
        state = VertexState(*s)
        if not in_parity_class(n, state):
            raise StateInvariantError(f"parent {tuple(state)} illegal at generation {n}")
        for child in checked_children(n, state, policy(n, state)):
            out[child] += g.states[s]
    nxt = GenerationState(n + 1, out)
    nxt.validate()
    return nxt


def run_generations(
    to_n: int, policy: SideOrder, split: str = "alternating"
) -> list[GenerationState]:
    """Generations 6..to_n inclusive, starting from the base seed."""
    if to_n < 6:
        raise ValueError(f"target generation must be >= 6, got {to_n}")
    if to_n > GENERATION_GUARD:
        raise DimensionGuardError(
            f"target generation {to_n} exceeds the guard {GENERATION_GUARD}; refusing"
        )
    gens = [seed_d6(split)]
    while gens[-1].n < to_n:
        gens.append(step_generation(gens[-1], policy))
    return gens


def step_labeled(assignment: dict[Perm, VertexState], policy: SideOrder) -> dict[Perm, VertexState]:
    """Per-vertex replacement: children are the actual expansions of each label.

    Keeping labels ties the multiset machine back to the graphs it
    abstracts; the children of the core at n cover exactly the core at
    n + 1.  Meant for small n (the map grows like n!/6).
    """
    if not assignment:
        raise ValueError("empty assignment")
    n = len(next(iter(assignment)))
    out: dict[Perm, VertexState] = {}
    for v, s in sorted(assignment.items()):
        children = replace_vertex(n, s, _plan(n, s, policy(n, s)))
        for child_label, child_state in zip(expand_vertex(v), children):
            out[child_label] = child_state
    return out


def trace_csv(gens) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "l", "r", "multiplicity"])
    for g in gens:
        for s in sorted(g.states):
            w.writerow([g.n, s[0], s[1], g.states[s]])
    return buf.getvalue()


def snapshot_json(g: GenerationState) -> str:
    payload = {"n": g.n, "states": [[s[0], s[1], g.states[s]] for s in sorted(g.states)]}
    return json.dumps(payload, sort_keys=True) + "\n"


def load_snapshot(text: str) -> GenerationState:
    d = json.loads(text)
    states: Counter = Counter()
    for l, r, mult in d["states"]:
        states[VertexState(int(l), int(r))] += int(mult)
    g = GenerationState(int(d["n"]), states)
    g.validate()
    return g

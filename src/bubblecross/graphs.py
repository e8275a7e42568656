"""Bubble-sort graphs, their sixth-part subgraphs, and structural checks."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial

from .config import GRAPH_GUARD
from .errors import DimensionGuardError
from .perms import CANONICAL_PATTERNS, Perm, check_perm, perm_rank, perm_unrank


def label_str(p: Perm) -> str:
    """Export form of a label.

    Digit concatenation is ambiguous once two-digit symbols appear, so
    n >= 10 switches to comma-separated entries.
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


class LabeledGraph:
    """Undirected graph on permutation labels of one fixed length n.

    Adjacency is keyed by the Lehmer rank of each label.  Rank order is
    lexicographic order, so iterating ranks numerically walks labels
    lexicographically.  core, when present, holds the ranks of the
    vertices carrying a qualifying pattern (the sixth-part core).
    """

    def __init__(self, n: int, adj: dict[int, tuple[int, ...]],
                 core: frozenset[int] | None = None):
        self.n = n
        self.adj = adj
        self.core = core
        self._labels: dict[int, Perm] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    def _label_map(self) -> dict[int, Perm]:
        if self._labels is None:
            self._labels = {r: perm_unrank(r, self.n) for r in self.adj}
        return self._labels

    def label(self, rank: int) -> Perm:
        return self._label_map()[rank]

    def vertices(self) -> list[Perm]:
        labels = self._label_map()
        return [labels[r] for r in sorted(self.adj)]

    def _rank_in(self, p) -> int:
        t = check_perm(p)
        if len(t) != self.n:
            raise ValueError(f"label {t} has length {len(t)}, graph holds length {self.n}")
        r = perm_rank(t)
        if r not in self.adj:
            raise ValueError(f"{t} is not a vertex of this graph")
        return r

    def degree_of(self, p) -> int:
        return len(self.adj[self._rank_in(p)])

    def neighbors_of(self, p) -> list[Perm]:
        labels = self._label_map()
        return [labels[q] for q in self.adj[self._rank_in(p)]]

    def has_edge(self, u, v) -> bool:
        tu, tv = check_perm(u), check_perm(v)
        if len(tu) != self.n or len(tv) != self.n:
            return False
        return perm_rank(tv) in self.adj.get(perm_rank(tu), ())

    def is_core(self, p) -> bool:
        if self.core is None:
            raise ValueError("graph carries no core marking")
        return self._rank_in(p) in self.core

    def edge_pairs(self) -> list[tuple[Perm, Perm]]:
        """Edges as canonical label pairs, lexicographically sorted."""
        labels = self._label_map()
        out = []
        for r in sorted(self.adj):
            for q in self.adj[r]:
                if q > r:
                    out.append((labels[r], labels[q]))
        return out


def _check_dims(n: int, guard: int, minimum: int = 2) -> None:
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")
    if n > guard:
        raise DimensionGuardError(
            f"n={n} exceeds the guard {guard} ({factorial(n)} vertices would be built)"
        )


def build_bn(n: int, guard: int = GRAPH_GUARD) -> LabeledGraph:
    """The bubble-sort graph on all n! permutations of 1..n."""
    _check_dims(n, guard)
    perms_list = list(itertools.permutations(range(1, n + 1)))  # lex order == rank order
    rank = {p: r for r, p in enumerate(perms_list)}
    adj: dict[int, tuple[int, ...]] = {}
    for r, p in enumerate(perms_list):
        work = list(p)
        row = []
        for i in range(n - 1):
            work[i], work[i + 1] = work[i + 1], work[i]
            row.append(rank[tuple(work)])
            work[i], work[i + 1] = work[i + 1], work[i]
        row.sort()
        adj[r] = tuple(row)
    return LabeledGraph(n, adj)


def build_bprime(n: int, guard: int = GRAPH_GUARD) -> LabeledGraph:
    """The sixth-part subgraph: edges keep at least one core endpoint.

    Vertices are the n!/6 core labels plus every neighbour an included
    edge reaches; each core vertex keeps its full degree n - 1.
    """
    _check_dims(n, guard, minimum=6)
    perms_list = list(itertools.permutations(range(1, n + 1)))
    rank = {p: r for r, p in enumerate(perms_list)}
    core = frozenset(
        r for r, p in enumerate(perms_list)
        if tuple(v for v in p if v <= 4) in CANONICAL_PATTERNS
    )
    nbr_sets: dict[int, set[int]] = {}
    for r in core:
        work = list(perms_list[r])
        for i in range(n - 1):
            work[i], work[i + 1] = work[i + 1], work[i]
            q = rank[tuple(work)]
            work[i], work[i + 1] = work[i + 1], work[i]
            nbr_sets.setdefault(r, set()).add(q)
            nbr_sets.setdefault(q, set()).add(r)
    adj = {r: tuple(sorted(s)) for r, s in nbr_sets.items()}
    return LabeledGraph(n, adj, core=core)


def is_connected(g: LabeledGraph) -> bool:
    if not g.adj:
        return True
    start = next(iter(g.adj))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for r in frontier:
            for q in g.adj[r]:
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen) == len(g.adj)


def edges_planar(edges) -> bool:
    """Planarity of an arbitrary edge list (hashable endpoints)."""
    import networkx as nx  # imported here: planarity is its only use, and it is slow to load

    G = nx.Graph()
    G.add_edges_from(edges)
    ok, _ = nx.check_planarity(G, counterexample=False)
    return ok


def is_planar(g: LabeledGraph) -> bool:
    """Whether the graph admits a planar embedding."""
    return edges_planar((r, q) for r, nbrs in g.adj.items() for q in nbrs if q > r)


@dataclass
class SymmetryResult:
    """Six-way class partition with explicit relabeling witnesses."""

    n: int
    classes: dict[Perm, frozenset[Perm]]
    sector_edges: dict[Perm, frozenset[frozenset[Perm]]]
    witness_maps: dict[tuple[Perm, Perm], dict[int, int]]
    all_isomorphic: bool

    @property
    def class_size(self) -> int:
        return len(next(iter(self.classes.values())))


def symmetry_classes(n: int, guard: int = GRAPH_GUARD) -> SymmetryResult:
    """Partition vertices by the order of the symbols 1..3 and verify that
    the six sector subgraphs are isomorphic under symbol relabeling.

    The sector of a class takes every edge with at least one endpoint in
    the class; the witness map sending class s to class t relabels symbol
    s[k] to t[k] and fixes everything above 3, which is an automorphism
    of the whole graph.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for the pattern classes, got {n}")
    if n > guard:
        raise DimensionGuardError(f"n={n} exceeds the guard {guard}")
    orders = list(itertools.permutations((1, 2, 3)))
    cores: dict[Perm, set[Perm]] = {o: set() for o in orders}
    sectors: dict[Perm, set[frozenset[Perm]]] = {o: set() for o in orders}
    for p in itertools.permutations(range(1, n + 1)):
        op = tuple(v for v in p if v <= 3)
        cores[op].add(p)
        for i in range(n - 1):
            if p[i] < p[i + 1]:  # visit each undirected edge once
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                e = frozenset((p, q))
                sectors[op].add(e)
                oq = tuple(v for v in q if v <= 3)
                if oq != op:
                    sectors[oq].add(e)

    witness_maps: dict[tuple[Perm, Perm], dict[int, int]] = {}
    all_iso = True
    for o1 in orders:
        for o2 in orders:
            if o1 == o2:
                continue
            phi = {o1[k]: o2[k] for k in range(3)}
            witness_maps[(o1, o2)] = phi
            mapped_core = {tuple(phi.get(v, v) for v in p) for p in cores[o1]}
            mapped_edges = {
                frozenset(tuple(phi.get(v, v) for v in p) for p in e)
                for e in sectors[o1]
            }
            if mapped_core != cores[o2] or mapped_edges != sectors[o2]:
                all_iso = False
    return SymmetryResult(
        n=n,
        classes={o: frozenset(c) for o, c in cores.items()},
        sector_edges={o: frozenset(s) for o, s in sectors.items()},
        witness_maps=witness_maps,
        all_isomorphic=all_iso,
    )


def to_dot(g: LabeledGraph, name: str | None = None) -> str:
    """DOT text with lexicographically sorted vertices and edges."""
    gname = name or (f"Bprime{g.n}" if g.core is not None else f"B{g.n}")
    lines = [f"graph {gname} {{"]
    for p in g.vertices():
        lines.append(f'  "{label_str(p)}";')
    for u, v in g.edge_pairs():
        lines.append(f'  "{label_str(u)}" -- "{label_str(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: LabeledGraph) -> str:
    """JSON text with sorted keys and lexicographic vertex and edge order."""
    payload = {
        "n": g.n,
        "vertices": [label_str(p) for p in g.vertices()],
        "edges": [[label_str(u), label_str(v)] for u, v in g.edge_pairs()],
    }
    if g.core is not None:
        payload["core_count"] = len(g.core)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

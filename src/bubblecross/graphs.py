"""Bubble-sort graphs, their sixth-part subgraphs, and structural checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .config import GRAPH_GUARD
from .errors import DimensionGuardError
from .perms import Perm, check_perm, perm_rank


def label_str(p: Perm) -> str:
    """Export form of a label.

    Digit concatenation is ambiguous once two-digit symbols appear, so
    n >= 10 switches to comma-separated entries.
    """
    return ("" if len(p) <= 9 else ",").join(map(str, p))


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

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    @cached_property
    def _labels(self) -> dict[int, Perm]:
        """Rank -> label of every vertex, in rank order.  permutations() runs
        in rank order too, so its kept labels line up with the sorted ranks."""
        perms = enumerate(itertools.permutations(range(1, self.n + 1)))
        return dict(zip(sorted(self.adj), (p for r, p in perms if r in self.adj)))

    def _edges(self):
        """Edges as rank pairs (r, q) with r < q, in lexicographic order."""
        return ((r, q) for r in sorted(self.adj) for q in self.adj[r] if q > r)

    def vertices(self) -> list[Perm]:
        return list(self._labels.values())

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
        return [self._labels[q] for q in self.adj[self._rank_in(p)]]

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
        labels = self._labels
        return [(labels[r], labels[q]) for r, q in self._edges()]


def _swap_rank(r: int, c: tuple[int, ...], i: int, place: list[int]) -> int:
    """Rank after swapping positions i, i + 1 of the permutation with rank r
    and Lehmer code c, digit i weighing place[i] = (n - 1 - i)!.  Only digits
    i and i + 1 change: an ascent (c[i] <= c[i + 1]) becomes
    (c[i + 1] + 1, c[i]) and a descent becomes (c[i + 1], c[i] - 1)."""
    a, b = c[i], c[i + 1]
    if a <= b:
        return r + (b + 1 - a) * place[i] + (a - b) * place[i + 1]
    return r + (b - a) * place[i] + (a - 1 - b) * place[i + 1]


def _adjacency(n: int, swaps, minimum: int = 2) -> dict[int, tuple[int, ...]]:
    """The one walk over the permutations p of 1..n, in rank order: p gets
    the sorted ranks reached by swapping positions i, i + 1 for each i in
    swaps(p), and is left out when swaps(p) is empty."""
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")
    if n > GRAPH_GUARD:
        raise DimensionGuardError(
            f"n={n} exceeds the guard {GRAPH_GUARD} ({factorial(n)} vertices would be built)"
        )
    place = [factorial(n - 1 - i) for i in range(n)]
    ranks = list(range(factorial(n)))  # one int object per rank, shared by every row
    # permutations() and the Lehmer codes both come out in lexicographic order.
    codes = itertools.product(*(range(k) for k in range(n, 0, -1)))
    adj: dict[int, tuple[int, ...]] = {}
    for r, p, c in zip(ranks, itertools.permutations(range(1, n + 1)), codes):
        if keep := swaps(p):
            adj[r] = tuple(sorted(ranks[_swap_rank(r, c, i, place)] for i in keep))
    return adj


def build_bn(n: int) -> LabeledGraph:
    """The bubble-sort graph on all n! permutations of 1..n."""
    return LabeledGraph(n, _adjacency(n, lambda p: range(n - 1)))


def _bprime_swaps(p: Perm):
    """Swap positions of p whose edges B'_n keeps: all of them when p is
    core (1, 2, 3 in increasing order), else those making it core.  Only a
    swap of two symbols <= 3 reorders 1, 2, 3, and one sorts them only from
    the orders 2 1 3 and 1 3 2, swapping the adjacent pair 2 1 or 3 2."""
    i1, i2, i3 = p.index(1), p.index(2), p.index(3)
    if i1 < i2 < i3:
        return range(len(p) - 1)
    if i2 + 1 == i1 < i3:
        return (i2,)
    if i1 < i3 == i2 - 1:
        return (i3,)
    return ()


def build_bprime(n: int) -> LabeledGraph:
    """The sixth-part subgraph: edges keep at least one core endpoint.

    Vertices are the n!/6 core labels plus every neighbour an included
    edge reaches; each core vertex keeps its full degree n - 1.
    """
    adj = _adjacency(n, _bprime_swaps, minimum=6)
    core = frozenset(r for r, row in adj.items() if len(row) == n - 1)  # others keep one
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
    return edges_planar(g._edges())


@dataclass
class SymmetryResult:
    """Six-way class partition with explicit relabeling witnesses.

    mismatch is the first ordered class pair (o1, o2) whose relabeled core
    or sector differs from that of o2, or None when all six agree.
    """

    n: int
    classes: dict[Perm, frozenset[Perm]]
    sector_edges: dict[Perm, frozenset[frozenset[Perm]]]
    witness_maps: dict[tuple[Perm, Perm], dict[int, int]]
    mismatch: tuple[Perm, Perm] | None

    @property
    def all_isomorphic(self) -> bool:
        return self.mismatch is None

    @property
    def class_size(self) -> int:
        return len(next(iter(self.classes.values())))


def symmetry_classes(n: int) -> SymmetryResult:
    """Partition vertices by the order of the symbols 1..3 and verify that
    the six sector subgraphs are isomorphic under symbol relabeling.

    The sector of a class takes every edge with at least one endpoint in
    the class; the witness map sending class s to class t relabels symbol
    s[k] to t[k] and fixes everything above 3, which is an automorphism
    of the whole graph.  Every one of the 30 ordered pairs is compared;
    the five distinct maps are each shared by six pairs, so each vertex
    is relabeled once per map.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for the pattern classes, got {n}")
    g = build_bn(n)
    orders = list(itertools.permutations((1, 2, 3)))
    order_of = {p: tuple(v for v in p if v <= 3) for p in g.vertices()}
    cores = {o: {p for p, op in order_of.items() if op == o} for o in orders}
    sectors: dict[Perm, set[frozenset[Perm]]] = {o: set() for o in orders}
    for u, v in g.edge_pairs():
        e = frozenset((u, v))
        sectors[order_of[u]].add(e)
        sectors[order_of[v]].add(e)

    witness_maps: dict[tuple[Perm, Perm], dict[int, int]] = {}
    images: dict[tuple[int, ...], dict[Perm, Perm]] = {}  # images of 1, 2, 3 -> relabeling
    mismatch = None
    for o1, o2 in itertools.permutations(orders, 2):
        phi = {o1[k]: o2[k] for k in range(3)}
        witness_maps[(o1, o2)] = phi
        key = (phi[1], phi[2], phi[3])
        if key not in images:
            images[key] = {p: tuple(phi.get(v, v) for v in p) for p in order_of}
        image = images[key]
        mapped_core = {image[p] for p in cores[o1]}
        mapped_edges = {frozenset((image[u], image[v])) for u, v in sectors[o1]}
        if (mapped_core != cores[o2] or mapped_edges != sectors[o2]) and mismatch is None:
            mismatch = (o1, o2)
    return SymmetryResult(
        n=n,
        classes={o: frozenset(c) for o, c in cores.items()},
        sector_edges={o: frozenset(s) for o, s in sectors.items()},
        witness_maps=witness_maps,
        mismatch=mismatch,
    )


def _label_strings(g: LabeledGraph) -> dict[int, str]:
    """Rank -> export form of every vertex label, each rendered once, in rank
    order.  Permuting the symbol strings and joining them gives label_str's
    text without building the label tuples."""
    adj = g.adj
    sep = "" if g.n <= 9 else ","
    symbols = itertools.permutations([str(k) for k in range(1, g.n + 1)])
    return {r: sep.join(p)
            for r, p in enumerate(itertools.islice(symbols, max(adj, default=-1) + 1))
            if r in adj}


def to_dot(g: LabeledGraph) -> str:
    """DOT text with lexicographically sorted vertices and edges."""
    name = f"Bprime{g.n}" if g.core is not None else f"B{g.n}"
    s = _label_strings(g)
    lines = [f"graph {name} {{"]
    lines += [f'  "{label}";' for label in s.values()]
    lines += [f'  "{s[r]}" -- "{s[q]}";' for r, q in g._edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_pieces(g: LabeledGraph):
    """to_json's text in pieces that share the label strings, so joining
    them builds no string per edge.  Each list item follows its separator;
    a list that got no item closes as []."""
    s = _label_strings(g)
    yield "{\n"
    if g.core is not None:
        yield f'  "core_count": {len(g.core)},\n'
    yield '  "edges": ['
    sep = "\n"
    for r, q in g._edges():
        yield sep
        yield '    [\n      "'
        yield s[r]
        yield '",\n      "'
        yield s[q]
        yield '"\n    ]'
        sep = ",\n"
    yield "]" if sep == "\n" else "\n  ]"
    yield f',\n  "n": {g.n},\n  "vertices": ['
    sep = "\n"
    for label in s.values():
        yield sep
        yield '    "'
        yield label
        yield '"'
        sep = ",\n"
    yield "]" if sep == "\n" else "\n  ]"
    yield "\n}\n"


def to_json(g: LabeledGraph) -> str:
    """JSON text with sorted keys and lexicographic vertex and edge order.

    Written directly, byte-identical to json.dumps(payload, sort_keys=True,
    indent=2) + "\n"; labels hold only digits and commas, so nothing needs
    escaping.
    """
    return "".join(_json_pieces(g))

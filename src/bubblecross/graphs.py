"""Bubble-sort graphs, their sixth-part subgraphs, and structural checks."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Sequence
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


def _check_size(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")
    if n > GRAPH_GUARD:
        raise DimensionGuardError(
            f"n={n} exceeds the guard {GRAPH_GUARD} ({factorial(n)} vertices would be built)"
        )


def _row_runs(n: int, m: int, ranks: Sequence):
    """The permutations of 1..n in which the symbols 1..m occur in
    increasing order, by ascending rank, as runs of (ranks, rows): the row
    of each holds the ascending ranks of its n - 1 neighbours in B_n, all
    as int objects taken from ranks.

    Block k holds the ranks k(n-1)! onward, led by symbol k + 1.  A leading
    1 leaves 2..m to order in the rest, a leading 2..m breaks the order, and
    a larger one leaves 1..m.  A swap at a position i >= 1 keeps the leading
    symbol, so inside block k the rows are those of B_{n-1}, shifted by
    k(n-1)!.  The swap at position 0 turns Lehmer digits (k, c) into
    (c, k - 1) when c < k, an earlier block, and into (c + 1, k) otherwise,
    a later one, so that neighbour starts or ends the row.  Its rank is
    a + (k - 1)(n-2)! or a + k(n-2)! + (n-1)!, where a = r + c((n-1)! - (n-2)!)
    for the rest's rank r, and c < k holds exactly for r < k(n-2)!.
    """
    if n == 1:
        yield [ranks[0]], [()]
        return
    m = m if m > 1 else 0  # the order of one symbol constrains nothing
    F, G = factorial(n - 1), factorial(n - 2)
    rest_ms = {k: max(m - 1, 0) if k == 0 else m for k in range(n) if not 0 < k < m}
    rests = {}
    rest_ranks = list(range(F))  # shared by the rests' rows, as ranks is by these
    for rest_m in set(rest_ms.values()):
        runs = list(_row_runs(n - 1, rest_m, rest_ranks))
        rest_keys = list(itertools.chain.from_iterable(keys for keys, _ in runs))
        rest_rows = list(itertools.chain.from_iterable(rows for _, rows in runs))
        rests[rest_m] = rest_keys, rest_rows, [r + r // G * (F - G) for r in rest_keys]
    for k, rest_m in rest_ms.items():
        rest_keys, rest_rows, a = rests[rest_m]
        block = ranks[k * F:(k + 1) * F]
        get = block.__getitem__
        split = bisect_left(rest_keys, k * G)
        earlier = map(ranks.__getitem__, map((k * G - G).__add__, a[:split]))
        later = map(ranks.__getitem__, map((k * G + F).__add__, a[split:]))
        yield (list(map(get, rest_keys)),
               [(q, *map(get, row)) for q, row in zip(earlier, rest_rows[:split])]
               + [(*map(get, row), q) for q, row in zip(later, rest_rows[split:])])


def build_bn(n: int) -> LabeledGraph:
    """The bubble-sort graph on all n! permutations of 1..n."""
    _check_size(n, 2)
    ranks = list(range(factorial(n)))
    adj = dict.fromkeys(ranks)  # keyed first, so that filling in the rows never resizes it
    for keys, rows in _row_runs(n, 0, ranks):
        adj.update(zip(keys, rows))
    return LabeledGraph(n, adj)


def _kept_mask(n: int, m: int) -> bytes:
    """Rank -> 1 for the permutations of 1..n, m <= 3, that order 1..m
    increasingly or reach that order by one swap, by blocks as in _row_runs.
    A leading 1 leaves 2..m to the rest, a leading 2 needs 1 right after
    it (the (n-2)! ranks that start its block), a leading 3..m never
    qualifies, and a larger one leaves 1..m."""
    if m <= 1:
        return b"\x01" * factorial(n)
    rest, tail = factorial(n - 1), factorial(n - 2)
    return (_kept_mask(n - 1, m - 1) + b"\x01" * tail + bytes((m - 1) * rest - tail)
            + (_kept_mask(n - 1, m) * (n - m) if n > m else b""))


def build_bprime(n: int) -> LabeledGraph:
    """The sixth-part subgraph: edges keep at least one core endpoint.

    Vertices are the n!/6 core labels plus every neighbour an included
    edge reaches; each core vertex keeps its full degree n - 1.  A non-core
    neighbour orders 1, 2, 3 as 2 1 3 or 1 3 2 with the pair out of order
    adjacent, so exactly one swap reaches the core from it: its row is
    that one core rank.  Int objects are made for the kept 5/18 of the n!
    ranks only; one per rank, most of them freed at once, left the small
    object heap fragmented and raised the peak RSS of a later export.
    """
    _check_size(n, 6)
    kept = _kept_mask(n, 3)
    ranks: list = [None] * len(kept)  # one int object per vertex, shared by every row
    for r in itertools.compress(range(len(kept)), kept):
        ranks[r] = r
    adj = dict.fromkeys(itertools.compress(ranks, kept))
    core: list[int] = []
    for keys, rows in _row_runs(n, 3, ranks):
        core += keys
        adj.update(zip(keys, rows))
    for r in core:
        for q in adj[r]:
            if adj[q] is None:
                adj[q] = (r,)
    return LabeledGraph(n, adj, core=frozenset(core))


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


def _order_ids(n: int, m: int) -> list[int]:
    """Rank -> Lehmer rank of the order in which the symbols 1..m occur, for
    every permutation of 1..n.  A leading symbol s <= m fixes the order's
    first digit s - 1 and leaves 1..m-1 to order in the rest; a larger one
    leaves 1..m."""
    if m <= 1:
        return [0] * factorial(n)
    smaller = _order_ids(n - 1, m - 1)
    same = _order_ids(n - 1, m) if n > m else []
    out: list[int] = []
    for s in range(1, n + 1):
        out += [(s - 1) * factorial(m - 1) + x for x in smaller] if s <= m else same
    return out


def symmetry_classes(n: int) -> SymmetryResult:
    """Partition vertices by the order of the symbols 1..3 and verify that
    the six sector subgraphs are isomorphic under symbol relabeling.

    The sector of a class takes every edge with at least one endpoint in
    the class; the witness map sending class s to class t relabels symbol
    s[k] to t[k] and fixes everything above 3, which is an automorphism
    of the whole graph.  Every one of the 30 ordered pairs is compared.

    The comparison runs on ranks.  A relabeling keeps rank order inside a
    class: where two labels of one class first differ, one of them holds a
    symbol above 3.  So it sends the i-th rank of class s to the i-th rank
    of class t, and in (class, index) coordinates it changes classes only.
    The edges between classes a and b, as index pairs, must then equal
    those between their images, for each class b the sector of s reaches.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for the pattern classes, got {n}")
    g = build_bn(n)
    orders = list(itertools.permutations((1, 2, 3)))  # orders[i] has Lehmer rank i
    order_id = _order_ids(n, 3)
    index, seen = [], [0] * len(orders)  # rank -> its index among the ranks of its class
    for o in order_id:
        index.append(seen[o])
        seen[o] += 1

    cores: list[list[int]] = [[] for _ in orders]
    for r in g.adj:
        cores[order_id[r]].append(r)
    core_index = [{index[r] for r in c} for c in cores]
    links = [[set() for _ in orders] for _ in orders]  # [a][b]: (i, j) per edge a_i -- b_j
    labels = g._labels
    sectors: list[list[frozenset[Perm]]] = [[] for _ in orders]
    for r, q in g._edges():
        a, b = order_id[r], order_id[q]
        links[a][b].add((index[r], index[q]))
        links[b][a].add((index[q], index[r]))
        e = frozenset((labels[r], labels[q]))
        sectors[a].append(e)
        if b != a:
            sectors[b].append(e)

    witness_maps: dict[tuple[Perm, Perm], dict[int, int]] = {}
    mismatch = None
    for (i1, o1), (i2, o2) in itertools.permutations(enumerate(orders), 2):
        phi = {o1[k]: o2[k] for k in range(3)}
        witness_maps[(o1, o2)] = phi
        image = [orders.index(tuple(phi[v] for v in o)) for o in orders]
        if mismatch is None and (
                core_index[i1] != core_index[i2]
                or any(links[i1][b] != links[i2][image[b]] for b in range(len(orders)))):
            mismatch = (o1, o2)
    return SymmetryResult(
        n=n,
        classes={o: frozenset(map(labels.__getitem__, c)) for o, c in zip(orders, cores)},
        sector_edges={o: frozenset(s) for o, s in zip(orders, sectors)},
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


def _dot_pieces(g: LabeledGraph):
    """to_dot's text in pieces that share the label strings, so joining them
    builds no string per vertex or edge.  Every line but the first and last
    is '  "' + item + '";', and one piece joins each item to the next."""
    s = _label_strings(g)
    yield f"graph Bprime{g.n} {{\n" if g.core is not None else f"graph B{g.n} {{\n"
    first = sep = '  "'
    for label in s.values():
        yield sep
        yield label
        sep = '";\n  "'
    for r, q in g._edges():
        yield sep
        yield s[r]
        yield '" -- "'
        yield s[q]
        sep = '";\n  "'
    yield "}\n" if sep == first else '";\n}\n'


def to_dot(g: LabeledGraph) -> str:
    """DOT text with lexicographically sorted vertices and edges."""
    return "".join(_dot_pieces(g))


def _json_pieces(g: LabeledGraph):
    """to_json's text in pieces that share the label strings, so joining
    them builds no string per edge.  One piece closes each list item and
    opens the next; a list that got no item closes as []."""
    s = _label_strings(g)
    yield "{\n"
    if g.core is not None:
        yield f'  "core_count": {len(g.core)},\n'
    yield '  "edges": ['
    first = sep = '\n    [\n      "'
    for r, q in g._edges():
        yield sep
        yield s[r]
        yield '",\n      "'
        yield s[q]
        sep = '"\n    ],\n    [\n      "'
    yield "]" if sep == first else '"\n    ]\n  ]'
    yield f',\n  "n": {g.n},\n  "vertices": ['
    first = sep = '\n    "'
    for label in s.values():
        yield sep
        yield label
        sep = '",\n    "'
    yield "]" if sep == first else '"\n  ]'
    yield "\n}\n"


def to_json(g: LabeledGraph) -> str:
    """JSON text with sorted keys and lexicographic vertex and edge order.

    Written directly, byte-identical to json.dumps(payload, sort_keys=True,
    indent=2) + "\n"; labels hold only digits and commas, so nothing needs
    escaping.
    """
    return "".join(_json_pieces(g))

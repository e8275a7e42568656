import hashlib
import itertools
import json
from math import factorial

import pytest

from bubblecross import graphs, perms, verify
from bubblecross.errors import DimensionGuardError


@pytest.mark.parametrize("n,vertices,edges", [(2, 2, 1), (3, 6, 6), (4, 24, 36), (5, 120, 240)])
def test_bn_sizes(n, vertices, edges):
    g = graphs.build_bn(n)
    assert g.vertex_count == vertices == factorial(n)
    assert g.edge_count == edges == factorial(n) * (n - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bn_regular_and_connected(n):
    g = graphs.build_bn(n)
    assert all(len(nbrs) == n - 1 for nbrs in g.adj.values())
    assert graphs.is_connected(g)


def test_b3_is_a_six_cycle():
    g = graphs.build_bn(3)
    assert g.vertex_count == 6
    assert all(len(nbrs) == 2 for nbrs in g.adj.values())
    assert graphs.is_connected(g)  # 2-regular and connected on 6 vertices: a 6-cycle


def test_bn_guard():
    with pytest.raises(DimensionGuardError):
        graphs.build_bn(12)
    with pytest.raises(ValueError):
        graphs.build_bn(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_bn_adjacency_matches_neighbors(n):
    g = graphs.build_bn(n)
    for p in g.vertices():
        assert sorted(g.neighbors_of(p)) == sorted(perms.neighbors(p))
        assert g.degree_of(p) == n - 1


def test_bprime_structure():
    g = graphs.build_bprime(6)
    assert g.core is not None and len(g.core) == 120  # 6!/6
    assert g.vertex_count == 240
    assert g.edge_count == 360
    core_labels = [p for p in g.vertices() if g.is_core(p)]
    assert all(g.degree_of(p) == 5 for p in core_labels)
    # every edge touches the core
    for u, v in g.edge_pairs():
        assert g.is_core(u) or g.is_core(v)
    # boundary vertices are exactly the non-core endpoints of included edges
    for p in g.vertices():
        if not g.is_core(p):
            assert any(g.is_core(q) for q in g.neighbors_of(p))


def test_bprime_core_count_n7():
    g = graphs.build_bprime(7)
    assert len(g.core) == factorial(7) // 6


def test_bprime_needs_n6():
    with pytest.raises(ValueError):
        graphs.build_bprime(5)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_bprime_matches_swap_reference(n):
    # Reference built from perms alone, without the graph's rank walk.
    core = set()
    edges = set()
    for p in itertools.permutations(range(1, n + 1)):
        if perms.in_bprime(p):
            core.add(perms.perm_rank(p))
            edges.update(frozenset((p, q)) for q in perms.neighbors(p))
    g = graphs.build_bprime(n)
    assert g.core == core
    assert {frozenset(e) for e in g.edge_pairs()} == edges
    assert g.edge_count == len(edges)


def test_bprime_matches_canonical_sector():
    bp = graphs.build_bprime(6)
    res = graphs.symmetry_classes(6)
    got = {frozenset(e) for e in bp.edge_pairs()}
    assert got == set(res.sector_edges[(1, 2, 3)])


@pytest.mark.parametrize("n", [5, 6])
def test_symmetry_classes(n):
    res = graphs.symmetry_classes(n)
    assert len(res.classes) == 6
    assert {len(c) for c in res.classes.values()} == {factorial(n) // 6}
    assert sum(len(c) for c in res.classes.values()) == factorial(n)
    assert res.all_isomorphic
    # witness maps really carry one core onto the other
    for (o1, o2), phi in res.witness_maps.items():
        mapped = {tuple(phi.get(v, v) for v in p) for p in res.classes[o1]}
        assert mapped == set(res.classes[o2])


def _bn5_without_first_edge():
    g = graphs.build_bn(5)
    q = g.adj[0][0]
    adj = dict(g.adj)
    adj[0] = tuple(r for r in adj[0] if r != q)
    adj[q] = tuple(r for r in adj[q] if r != 0)
    return graphs.LabeledGraph(5, adj)


def test_symmetry_detects_a_missing_edge(monkeypatch):
    # 12345 -- 21345 lies in the sectors of 123 and 213 only, so the first
    # pair in order, 123 onto 132, already sees one sector edge too few.
    broken = _bn5_without_first_edge()
    monkeypatch.setattr(graphs, "build_bn", lambda n: broken)
    res = graphs.symmetry_classes(5)
    assert not res.all_isomorphic
    assert res.mismatch == ((1, 2, 3), (1, 3, 2))


def test_symmetry_suite_names_the_failing_pair(monkeypatch):
    real, broken = graphs.build_bn, _bn5_without_first_edge()
    monkeypatch.setattr(graphs, "build_bn", lambda n: broken if n == 5 else real(n))
    report = verify.suite_symmetry()
    assert not report.passed
    assert report.lines[-1] == ("symmetry: FAIL at n=5: class (1, 2, 3) relabeled "
                                "onto (1, 3, 2) differs in core or sector")


def _label_symmetry(n):
    # The earlier implementation, on label tuples and frozensets of them.
    g = graphs.build_bn(n)
    orders = list(itertools.permutations((1, 2, 3)))
    order_of = {p: tuple(v for v in p if v <= 3) for p in g.vertices()}
    cores = {o: {p for p, op in order_of.items() if op == o} for o in orders}
    sectors = {o: set() for o in orders}
    for u, v in g.edge_pairs():
        e = frozenset((u, v))
        sectors[order_of[u]].add(e)
        sectors[order_of[v]].add(e)
    witness_maps = {}
    mismatch = None
    for o1, o2 in itertools.permutations(orders, 2):
        phi = {o1[k]: o2[k] for k in range(3)}
        witness_maps[(o1, o2)] = phi
        image = {p: tuple(phi.get(v, v) for v in p) for p in order_of}
        mapped_core = {image[p] for p in cores[o1]}
        mapped_edges = {frozenset((image[u], image[v])) for u, v in sectors[o1]}
        if (mapped_core != cores[o2] or mapped_edges != sectors[o2]) and mismatch is None:
            mismatch = (o1, o2)
    return graphs.SymmetryResult(
        n=n,
        classes={o: frozenset(c) for o, c in cores.items()},
        sector_edges={o: frozenset(e) for o, e in sectors.items()},
        witness_maps=witness_maps,
        mismatch=mismatch,
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_symmetry_matches_the_label_implementation(n):
    assert graphs.symmetry_classes(n) == _label_symmetry(n)


def _bn5_without(drop):
    g = graphs.build_bn(5)
    adj = {q: tuple(x for x in row if x not in drop) for q, row in g.adj.items() if q not in drop}
    return graphs.LabeledGraph(5, adj)


@pytest.mark.parametrize("damaged", [
    _bn5_without_first_edge,
    lambda: _bn5_without({0}),
    lambda: _bn5_without({119}),
    lambda: _bn5_without(set(range(60, 120))),
], ids=["edge", "first-vertex", "last-vertex", "half"])
def test_symmetry_matches_the_label_implementation_on_damaged_graphs(monkeypatch, damaged):
    # Ranks missing from the graph must not shift the relabeling of the rest.
    broken = damaged()
    monkeypatch.setattr(graphs, "build_bn", lambda n: broken)
    res = graphs.symmetry_classes(5)
    assert not res.all_isomorphic
    assert res == _label_symmetry(5)


def test_symmetry_guard():
    with pytest.raises(ValueError):
        graphs.symmetry_classes(3)
    with pytest.raises(DimensionGuardError):
        graphs.symmetry_classes(11)


def test_planarity_small_graphs():
    assert graphs.is_planar(graphs.build_bn(2))
    assert graphs.is_planar(graphs.build_bn(3))
    assert graphs.is_planar(graphs.build_bn(4))
    assert not graphs.is_planar(graphs.build_bn(5))


def test_planarity_classic_sanity():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    assert not graphs.edges_planar(k5)
    assert not graphs.edges_planar(k33)
    assert graphs.edges_planar(c6)


def test_label_str():
    assert graphs.label_str((1, 2, 5, 6, 3, 4)) == "125634"
    assert graphs.label_str(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"


def test_dot_export():
    g = graphs.build_bn(4)
    dot = graphs.to_dot(g)
    lines = dot.strip().splitlines()
    assert lines[0] == "graph B4 {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if '";' in ln and "--" not in ln) == 24
    assert sum(1 for ln in lines if "--" in ln) == 36
    assert '  "1234";' == lines[1]  # lexicographically first


def test_json_export_roundtrip():
    g = graphs.build_bn(4)
    data = json.loads(graphs.to_json(g))
    assert data["n"] == 4
    assert len(data["vertices"]) == 24
    assert data["vertices"] == sorted(data["vertices"])
    assert len(data["edges"]) == 36
    assert all(u < v for u, v in data["edges"])


def test_json_export_core_metadata():
    data = json.loads(graphs.to_json(graphs.build_bprime(6)))
    assert data["core_count"] == 120
    assert len(data["vertices"]) == 240


def _reference_json(g):
    payload = {
        "n": g.n,
        "vertices": [graphs.label_str(p) for p in g.vertices()],
        "edges": [[graphs.label_str(u), graphs.label_str(v)] for u, v in g.edge_pairs()],
    }
    if g.core is not None:
        payload["core_count"] = len(g.core)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("make", [
    *(lambda n=n: graphs.build_bn(n) for n in range(2, 8)),
    *(lambda n=n: graphs.build_bprime(n) for n in range(6, 9)),
    lambda: graphs.LabeledGraph(4, {0: ()}),
    lambda: graphs.LabeledGraph(10, {0: (1,), 1: (0,)}),
], ids=[*(f"bn{n}" for n in range(2, 8)), *(f"bprime{n}" for n in range(6, 9)),
        "no-edges", "comma-labels"])
def test_json_matches_json_dumps(make):
    g = make()
    assert graphs.to_json(g) == _reference_json(g)


def test_exports_deterministic():
    a = graphs.to_json(graphs.build_bn(4))
    b = graphs.to_json(graphs.build_bn(4))
    assert a == b
    assert graphs.to_dot(graphs.build_bn(3)) == graphs.to_dot(graphs.build_bn(3))


@pytest.mark.parametrize("text,sha256", [
    (lambda: graphs.to_dot(graphs.build_bn(5)),
     "34a69b3578aa625b4fc77b407c0392c409c05c39525d744709eab2bb047cae6e"),
    (lambda: graphs.to_json(graphs.build_bn(6)),
     "dc3bdbd3cdf5902f5a24342df2e0f89ab76404e651122a7303b5b3dfcfd23edc"),
    (lambda: graphs.to_dot(graphs.build_bprime(7)),
     "a2634948f2bbb8ba07aa66838ec577d9d39e529f51663b0d08907e68ad6dddee"),
    (lambda: graphs.to_json(graphs.build_bprime(7)),
     "9d1427ec830ba7296d83353ebb79bed84129c2ae1df558e89662465c570d6993"),
], ids=["bn5.dot", "bn6.json", "bprime7.dot", "bprime7.json"])
def test_export_bytes_pinned(text, sha256):
    assert hashlib.sha256(text().encode("utf-8")).hexdigest() == sha256


def test_has_edge_and_membership_errors():
    g = graphs.build_bn(3)
    assert g.has_edge((1, 2, 3), (2, 1, 3))
    assert not g.has_edge((1, 2, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        g.degree_of((1, 2, 3, 4))


def test_sector_counts_cover_all_edges():
    res = graphs.symmetry_classes(5)
    every = set().union(*res.sector_edges.values())
    g = graphs.build_bn(5)
    assert len(every) == g.edge_count


@pytest.mark.parametrize("make", [
    *(lambda n=n: graphs.build_bn(n) for n in range(2, 9)),
    *(lambda n=n: graphs.build_bprime(n) for n in range(6, 10)),
], ids=[*(f"bn{n}" for n in range(2, 9)), *(f"bprime{n}" for n in range(6, 10))])
def test_adjacency_ascends(make):
    g = make()
    assert list(g.adj) == sorted(g.adj)
    assert all(list(row) == sorted(row) for row in g.adj.values())


def test_bprime9_sizes():
    g = graphs.build_bprime(9)
    assert (g.vertex_count, g.edge_count, len(g.core)) == (100800, 262080, 60480)
    assert all(len(g.adj[r]) == 8 for r in g.core)
    assert all(len(row) == 1 and row[0] in g.core for r, row in g.adj.items() if r not in g.core)

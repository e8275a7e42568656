import itertools
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from bubblecross import drawing, verify
from bubblecross.config import GENERATION_GUARD
from bubblecross.drawing import (
    GenerationState,
    ReplacementPlan,
    Side,
    StructureKind,
    VertexState,
)
from bubblecross.errors import DimensionGuardError, StateInvariantError
from bubblecross.perms import in_bprime


def state_strategy():
    """Legal (n, state) pairs for generations 6..11."""
    def build(n):
        diffs = sorted(drawing.allowed_diffs(n))
        return st.sampled_from(diffs).map(
            lambda d: (n, VertexState((n - 1 + d) // 2, (n - 1 - d) // 2))
        )
    return st.integers(6, 11).flatmap(build)


def make_plan(n, s, sides):
    return ReplacementPlan(
        structure=drawing.choose_structure(n, s),
        lost_side=dict(zip(range(2, n + 1), sides)),
    )


def test_choose_structure_table():
    assert drawing.choose_structure(6, VertexState(2, 3)) is StructureKind.ELEVEN
    assert drawing.choose_structure(6, VertexState(3, 2)) is StructureKind.ELEVEN
    assert drawing.choose_structure(7, VertexState(3, 3)) is StructureKind.ELEVEN
    assert drawing.choose_structure(7, VertexState(2, 4)) is StructureKind.TWO_ZERO
    assert drawing.choose_structure(7, VertexState(4, 2)) is StructureKind.ZERO_TWO


def test_choose_structure_rejects_bad_states():
    with pytest.raises(StateInvariantError):
        drawing.choose_structure(6, VertexState(1, 4))   # imbalance 3
    with pytest.raises(StateInvariantError):
        drawing.choose_structure(7, VertexState(4, 1))   # wrong degree
    with pytest.raises(StateInvariantError):
        drawing.choose_structure(7, VertexState(7, -1))


def test_replace_vertex_even_parent():
    s = VertexState(2, 3)
    plan = make_plan(6, s, [Side.LEFT, Side.LEFT, Side.RIGHT, Side.RIGHT, Side.RIGHT])
    children = drawing.replace_vertex(6, s, plan)
    assert len(children) == 7
    diffs = Counter(c.diff for c in children)
    assert diffs[0] == 4 and diffs[-2] == 3
    assert sum(c.l + c.r for c in children) == 42
    assert all(c.l + c.r == 6 for c in children)


def test_replace_vertex_multiset_ignores_side_order():
    s = VertexState(2, 3)
    base = [Side.LEFT, Side.LEFT, Side.RIGHT, Side.RIGHT, Side.RIGHT]
    reference = Counter(drawing.replace_vertex(6, s, make_plan(6, s, base)))
    for sides in set(itertools.permutations(base)):
        got = Counter(drawing.replace_vertex(6, s, make_plan(6, s, list(sides))))
        assert got == reference


def test_replace_vertex_offset_odd_parent():
    s = VertexState(4, 2)
    plan = make_plan(7, s, [Side.LEFT] * 4 + [Side.RIGHT] * 2)
    children = drawing.replace_vertex(7, s, plan)
    assert len(children) == 8
    assert all(c.diff in (-1, 1) for c in children)
    assert sum(c.l + c.r for c in children) == 7 * 8


def test_replace_vertex_rejects_inconsistent_plans():
    s = VertexState(2, 3)
    with pytest.raises(StateInvariantError):
        drawing.replace_vertex(6, s, make_plan(6, s, [Side.LEFT] * 5))
    bad_domain = ReplacementPlan(
        structure=StructureKind.ELEVEN,
        lost_side={i: Side.RIGHT for i in range(1, 6)},
    )
    with pytest.raises(StateInvariantError):
        drawing.replace_vertex(6, s, bad_domain)
    wrong_structure = ReplacementPlan(
        structure=StructureKind.TWO_ZERO,
        lost_side=dict(zip(range(2, 7), [Side.LEFT] * 2 + [Side.RIGHT] * 3)),
    )
    with pytest.raises(StateInvariantError):
        drawing.replace_vertex(6, s, wrong_structure)


@settings(max_examples=80, deadline=None)
@given(state_strategy(), st.randoms(use_true_random=False))
def test_replace_vertex_invariants(pair, rng):
    n, s = pair
    sides = [Side.LEFT] * s.l + [Side.RIGHT] * s.r
    rng.shuffle(sides)
    children = drawing.replace_vertex(n, s, make_plan(n, s, sides))
    assert len(children) == n + 1
    assert sum(c.l + c.r for c in children) == n * (n + 1)
    assert all(drawing.in_parity_class(n + 1, c) for c in children)
    if n % 2 == 0:
        diffs = Counter(abs(c.diff) for c in children)
        assert diffs[0] == n // 2 + 1 and diffs[2] == n // 2


def test_seed_d6_variants():
    g = drawing.seed_d6()
    assert g.n == 6 and g.total == 120
    assert g.states == Counter({VertexState(2, 3): 60, VertexState(3, 2): 60})
    assert drawing.seed_d6("all-23").states == Counter({VertexState(2, 3): 120})
    assert drawing.seed_d6("all-32").states == Counter({VertexState(3, 2): 120})
    with pytest.raises(ValueError):
        drawing.seed_d6("mixed")


def test_step_to_generation_7():
    g = drawing.step_generation(drawing.seed_d6(), drawing.make_policy("fixed"))
    assert g.n == 7 and g.total == 840
    assert g.states == Counter({
        VertexState(3, 3): 480,
        VertexState(2, 4): 180,
        VertexState(4, 2): 180,
    })


def test_step_to_generation_8():
    policy = drawing.make_policy("roundrobin")
    g = drawing.seed_d6()
    for _ in range(2):
        g = drawing.step_generation(g, policy)
    assert g.n == 8 and g.total == 6720
    assert g.states == Counter({VertexState(4, 3): 3840, VertexState(3, 4): 2880})


def test_generation_9_multiset():
    gens = drawing.run_generations(9, drawing.make_policy("fixed"))
    assert gens[-1].states == Counter({
        VertexState(4, 4): 33600,
        VertexState(3, 5): 11520,
        VertexState(5, 3): 15360,
    })


@pytest.mark.parametrize("policy_name", ["fixed", "roundrobin", "random"])
def test_policies_agree_on_multisets(policy_name):
    ref = drawing.run_generations(9, drawing.make_policy("fixed"))
    got = drawing.run_generations(9, drawing.make_policy(policy_name, seed=99))
    for a, b in zip(ref, got):
        assert a.states == b.states


def test_seed_split_preserves_imbalance_profile():
    ref = drawing.run_generations(8, drawing.make_policy("fixed"))
    for split in ("all-23", "all-32"):
        gens = drawing.run_generations(8, drawing.make_policy("fixed"), split=split)
        assert [g.diff_multiset() for g in gens] == [g.diff_multiset() for g in ref]


def test_run_generations_guard():
    with pytest.raises(DimensionGuardError):
        drawing.run_generations(GENERATION_GUARD + 1, drawing.make_policy("fixed"))
    with pytest.raises(ValueError):
        drawing.run_generations(5, drawing.make_policy("fixed"))
    with pytest.raises(ValueError):
        drawing.make_policy("nope")


def test_all_plans_enumerates_every_side_order():
    s = VertexState(3, 4)
    plans = [tuple(p) for p in drawing.all_plans(8, s)]
    assert len(plans) == len(set(plans)) == comb(7, 3)
    assert all(p.count(Side.LEFT) == 3 and len(p) == 7 for p in plans)


def test_generation_guard_reaches_the_limit():
    g = drawing.run_generations(GENERATION_GUARD, drawing.make_policy("random"))[-1]
    assert g.n == GENERATION_GUARD and g.total == factorial(GENERATION_GUARD) // 6


def test_lemma45_names_the_first_broken_plan(monkeypatch):
    target = [Side.RIGHT] * 4 + [Side.LEFT] * 4
    original = drawing.replace_vertex

    def broken(n, s, plan):
        children = original(n, s, plan)
        if n == 9 and s == (4, 4) and list(plan.lost_side.values()) == target:
            c = children[0]
            children[0] = VertexState(c.l + 1, c.r - 1)
        return children

    monkeypatch.setattr(drawing, "replace_vertex", broken)
    report = verify.suite_lemma45()
    assert not report.passed
    assert report.lines[-1].startswith("lemma45: FAIL n=9 parent (4, 4) plan RRRRLLLL")


def test_generation_state_validate():
    bad = GenerationState(6, Counter({VertexState(2, 3): 119}))
    with pytest.raises(StateInvariantError):
        bad.validate()
    bad = GenerationState(6, Counter({VertexState(2, 3): 60, VertexState(4, 1): 60}))
    with pytest.raises(StateInvariantError):
        bad.validate()


@pytest.mark.parametrize("n", [7, 8])
def test_labeled_step_covers_next_core(n):
    assign = drawing.seed_labeled()
    assert len(assign) == 120
    policy = drawing.make_policy("fixed")
    for _ in range(6, n):
        assign = drawing.step_labeled(assign, policy)
    assert len(assign) == factorial(n) // 6
    assert set(assign) == {
        p for p in itertools.permutations(range(1, n + 1)) if in_bprime(p)
    }
    # label-level states agree with the multiset machine
    multiset = drawing.run_generations(n, drawing.make_policy("fixed"))[-1]
    assert Counter(assign.values()) == multiset.states


def test_trace_csv_shape():
    gens = drawing.run_generations(7, drawing.make_policy("fixed"))
    text = drawing.trace_csv(gens)
    lines = text.strip().splitlines()
    assert lines[0] == "n,l,r,multiplicity"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["6", "6", "7", "7", "7"]
    total7 = sum(int(r[3]) for r in rows if r[0] == "7")
    assert total7 == 840


def test_snapshot_roundtrip():
    gens = drawing.run_generations(8, drawing.make_policy("fixed"))
    text = drawing.snapshot_json(gens[-1])
    loaded = drawing.load_snapshot(text)
    assert loaded.n == 8
    assert loaded.states == gens[-1].states

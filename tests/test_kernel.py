import dataclasses
import itertools
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import consistent_instance
from test_cli import GOLDEN_KERNEL_CASES
from denserank import kernel, model, oracle
from denserank.approx import DegreeProfile, in_degrees, inc_degree_ranking
from denserank.characterize import verify_simple_characterization, violating_selected_values
from denserank.generate import GenerationMode, GeneratorSpec, generate, generate_with_details
from denserank.errors import (
    KernelDriverError,
    PreconditionError,
    RuleInapplicableError,
    SemanticsError,
)
from denserank.kernel import (
    DropRecord,
    EditRecord,
    KernelOutcome,
    SimpleSunflower,
    Verdict,
    _apply_packing_edit,
    _cycle_free,
    _find_conflict_packing,
    apply_sunflower_edit,
    default_conflict_size,
    drop_always_selected_vertex,
    drop_cycle_free_vertex,
    exact_provider,
    find_fast_sunflower,
    find_simple_sunflower,
    incdegree_provider,
    kernelize_characterized,
    kernelize_fast,
    local_search_provider,
    trivial_instance,
)
from denserank.model import (
    Constraint,
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    all_selected_values,
    fault_count,
    inconsistent_constraints,
    induced,
)

EDIT_LINE = re.compile(
    r"^rule=[a-z-]+ center=\d+(,\d+)* selected=[\d,]+->[\d,]+ k=\d+->\d+ petals=\d+$"
)
DROP_LINE = re.compile(r"^rule=drop-[a-z-]+ vertex=\d+ n=\d+->\d+ k=-?\d+->-?\d+$")

B3 = ProblemKind(Family.BETWEENNESS, 3)
B4 = ProblemKind(Family.BETWEENNESS, 4)
F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)
T4 = ProblemKind(Family.TRANSITIVE_FAST, 4)
LOCAL_SEARCH_KINDS = [F2, F3, B3, B4, T3, T4]


def row_of(inst, members):
    """The table row of the constraint on `members`: a finder's center."""
    return inst._row(members)[1]


def broken_at(kind, n, members, sigma=None):
    """Identity-consistent instance with one constraint made violating."""
    sigma = sigma or Ranking.identity(n)
    inst = consistent_instance(kind, n, sigma)
    bad = violating_selected_values(kind, members, sigma)[0]
    return inst.replace({members: Constraint(members, bad)})


class TestProviders:
    def test_exact_provider_returns_a_witness(self, planted):
        inst = planted(Family.FAST, 2, 6, 5, 2)
        sigma = exact_provider()(inst)
        assert fault_count(OrderedInstance(inst, sigma)) == oracle.min_inconsistencies(inst).opt

    def test_incdegree_provider_is_the_degree_ranking(self, uniform):
        inst = uniform(Family.FAST, 3, 6, 1)
        assert incdegree_provider(inst) == inc_degree_ranking(inst)

    def test_local_search_settles_consistent_instances(self):
        sigma = Ranking((3, 0, 4, 1, 2))
        inst = consistent_instance(F2, 5, sigma)
        found = local_search_provider(inst)
        assert fault_count(OrderedInstance(inst, found)) == 0

    @pytest.mark.parametrize("kind", LOCAL_SEARCH_KINDS)
    def test_local_search_keeps_a_consistent_identity(self, kind):
        inst = consistent_instance(kind, kind.r + 3)
        assert local_search_provider(inst) == Ranking.identity(kind.r + 3)

    @pytest.mark.parametrize("kind", LOCAL_SEARCH_KINDS)
    def test_local_search_on_a_single_constraint(self, kind):
        """n = r: one constraint, and each vertex pair is held by it
        alone.  Some selected data leave the identity stuck at a fault
        (reversing a tfast chain needs swaps that gain nothing)."""
        members = tuple(range(kind.r))
        for selected in all_selected_values(kind, members):
            inst = Instance(kind.r, kind, [Constraint(members, selected)])
            found = local_search_provider(inst)
            assert found == reference.local_search_provider(inst)
            assert fault_count(OrderedInstance(inst, found)) == reference.faults_under(
                inst, found.order
            )


# Drawn sizes run from r to 12; the pinned examples add the
# kernelize-localsearch benchmark shapes (planted, n = 16 and 18, four
# edits) and a uniform n = 18 instance for every kind.
@pytest.mark.parametrize("kind", LOCAL_SEARCH_KINDS, ids=lambda k: f"{k.family.value}{k.r}")
@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(2, 12),
    planted=st.booleans(),
    edits=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
@example(n=16, planted=True, edits=4, seed=5)
@example(n=18, planted=True, edits=4, seed=11)
@example(n=18, planted=False, edits=1, seed=3)
def test_local_search_matches_the_full_recount(kind, n, planted, edits, seed):
    """Same ranking as recounting every constraint per trial swap, and
    the same fault count of it under an independent counter."""
    n = max(n, kind.r)
    if planted:
        spec = GeneratorSpec(kind, n, GenerationMode.PLANTED, seed, min(edits, comb(n, kind.r)))
    else:
        spec = GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed)
    inst = generate(spec)
    found = local_search_provider(inst)
    expected = reference.local_search_provider(inst)
    assert found == expected
    faults = fault_count(OrderedInstance(inst, found))
    assert faults == reference.faults_under(inst, expected.order)


class TestSunflowerShape:
    def test_petal_vertices_must_be_disjoint(self):
        with pytest.raises(PreconditionError):
            SimpleSunflower(0, (0, 1), ((2,), (2,)))
        with pytest.raises(PreconditionError):
            SimpleSunflower(0, (0, 1), ((1,),))

    def test_petals_extend_the_center(self):
        row = row_of(consistent_instance(F2, 4), (1, 3))
        flower = SimpleSunflower(row, (1, 3), ((0,), (2,)))
        assert flower.petal_count == 2
        assert list(flower.petals()) == [(0, 1, 3), (1, 2, 3)]


class TestConflictSizes:
    @pytest.mark.parametrize(
        "kind,size", [(B3, 4), (B4, 8), (T3, 4), (ProblemKind(Family.TRANSITIVE_FAST, 4), 5)]
    )
    def test_family_table(self, kind, size):
        assert default_conflict_size(kind) == size

    def test_fast_has_none(self):
        with pytest.raises(SemanticsError):
            default_conflict_size(F2)


class TestFindSimpleSunflower:
    def test_single_fault_center_collects_all_chunks(self):
        inst = broken_at(B3, 8, (0, 1, 2))
        oi = OrderedInstance(inst, Ranking.identity(8))
        flower = find_simple_sunflower(oi, row_of(inst, (0, 1, 2)), 1)
        assert flower is not None
        assert flower.extras == ((3,), (4,), (5,), (6,), (7,))

    def test_not_enough_petals_is_none(self):
        inst = broken_at(B3, 8, (0, 1, 2))
        oi = OrderedInstance(inst, Ranking.identity(8))
        assert find_simple_sunflower(oi, row_of(inst, (0, 1, 2)), 5) is None

    def test_satisfied_center_is_rejected(self):
        inst = consistent_instance(B3, 6)
        oi = OrderedInstance(inst, Ranking.identity(6))
        with pytest.raises(PreconditionError):
            find_simple_sunflower(oi, row_of(inst, (0, 1, 2)), 1)

    def test_other_faults_knock_out_their_chunk(self):
        inst = broken_at(B3, 8, (0, 1, 2))
        bad = violating_selected_values(B3, (0, 1, 3), Ranking.identity(8))[0]
        inst = inst.replace({(0, 1, 3): Constraint((0, 1, 3), bad)})
        oi = OrderedInstance(inst, Ranking.identity(8))
        flower = find_simple_sunflower(oi, row_of(inst, (0, 1, 2)), 1)
        assert (3,) not in flower.extras
        assert flower.petal_count == 4


class TestFindFastSunflower:
    def test_wide_center_draws_from_everything_before_its_last(self):
        inst = broken_at(F3, 6, (0, 1, 5))
        oi = OrderedInstance(inst, Ranking.identity(6))
        flower = find_fast_sunflower(oi, row_of(inst, (0, 1, 5)), 2)
        assert flower.extras == ((2,), (3,), (4,))
        assert find_fast_sunflower(oi, row_of(inst, (0, 1, 5)), 3) is None

    def test_pair_center_uses_interior_vertices_only(self):
        # an extra ranked before both pair members gives an acyclic
        # triangle, not a conflict, so 0-before and 4-after are skipped
        inst = broken_at(F2, 5, (1, 4))
        oi = OrderedInstance(inst, Ranking.identity(5))
        flower = find_fast_sunflower(oi, row_of(inst, (1, 4)), 1)
        assert flower.extras == ((2,), (3,))

    def test_family_gate(self):
        inst = broken_at(B3, 5, (0, 1, 2))
        oi = OrderedInstance(inst, Ranking.identity(5))
        with pytest.raises(SemanticsError):
            find_fast_sunflower(oi, row_of(inst, (0, 1, 2)), 1)


class TestApplySunflowerEdit:
    def setup_flower(self):
        inst = broken_at(B3, 8, (0, 1, 2))
        oi = OrderedInstance(inst, Ranking.identity(8))
        return inst, oi, find_simple_sunflower(oi, row_of(inst, (0, 1, 2)), 1)

    def test_edit_agrees_with_ranking_and_spends_budget(self):
        inst, oi, flower = self.setup_flower()
        new_inst, new_k = apply_sunflower_edit(oi, flower, 1)
        assert new_k == 0
        assert fault_count(OrderedInstance(new_inst, oi.sigma)) == 0
        assert oracle.decide(inst, 1) == oracle.decide(new_inst, 0)

    def test_budget_at_least_petals_is_inapplicable(self):
        _, oi, flower = self.setup_flower()
        with pytest.raises(RuleInapplicableError):
            apply_sunflower_edit(oi, flower, flower.petal_count)

    def test_stale_petal_fails_loudly(self):
        inst, _, flower = self.setup_flower()
        bad = violating_selected_values(B3, (1, 2, 3), Ranking.identity(8))[0]
        stale = inst.replace({(1, 2, 3): Constraint((1, 2, 3), bad)})
        with pytest.raises(PreconditionError):
            apply_sunflower_edit(OrderedInstance(stale, Ranking.identity(8)), flower, 1)


def petal_candidates(oi, members):
    """The extras a finder draws around `members`, in its order: the
    certified-width chunks, or FAST's single vertices ranked strictly
    between the two members (r = 2) or before the last one (r >= 3)."""
    kind, sigma = oi.instance.kind, oi.sigma
    if kind.family is Family.FAST:
        first = min(sigma.pos(v) for v in members) if kind.r == 2 else -1
        last = max(sigma.pos(v) for v in members)
        return tuple(
            (v,) for v in sigma.order if v not in members and first < sigma.pos(v) < last
        )
    width = default_conflict_size(kind) - kind.r
    pool = [v for v in sigma.order if v not in members]
    return tuple(tuple(pool[i : i + width]) for i in range(0, len(pool) - width + 1, width))


# Drawn rankings leave most petals holding other faults; the planted
# base ranking (`base=True` on planted instances) leaves most of them
# single-fault.  The pinned examples are the largest betweenness r = 4
# cases, two chunks of width 4 per center, with one and three faults.
@pytest.mark.parametrize("kind", LOCAL_SEARCH_KINDS, ids=lambda k: f"{k.family.value}{k.r}")
@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    data=st.data(),
    n=st.integers(2, 12),
    planted=st.booleans(),
    base=st.booleans(),
    edits=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
@example(data=st.data(), n=12, planted=True, base=True, edits=1, seed=3)
@example(data=st.data(), n=12, planted=True, base=True, edits=3, seed=7)
def test_petal_checks_agree_with_the_per_subset_reference(
    kind, data, n, planted, base, edits, seed
):
    """For every violated center the finder keeps exactly the candidate
    extras whose petal the reference accepts, and the certified edit of
    all candidates raises exactly when the reference rejects one."""
    n = max(n, kind.r)
    if planted:
        spec = GeneratorSpec(kind, n, GenerationMode.PLANTED, seed, min(edits, comb(n, kind.r)))
    else:
        spec = GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed)
    inst, planted_sigma, _ = generate_with_details(spec)
    if planted and base:
        sigma = planted_sigma
    else:
        sigma = Ranking(tuple(data.draw(st.permutations(range(n)))))
    oi = OrderedInstance(inst, sigma)
    find = find_fast_sunflower if kind.family is Family.FAST else find_simple_sunflower
    for center in inconsistent_constraints(oi):
        row = row_of(inst, center.members)
        candidates = petal_candidates(oi, center.members)
        accepted = tuple(
            extra
            for extra in candidates
            if reference.petal_is_single_fault(oi, center, tuple(sorted(center.members + extra)))
        )
        assert find(oi, row, len(accepted) - 1).extras == accepted
        assert find(oi, row, len(accepted)) is None
        if not candidates:
            continue
        flower = SimpleSunflower(row, center.members, candidates)
        if accepted != candidates:
            with pytest.raises(PreconditionError, match="certificate is stale"):
                apply_sunflower_edit(oi, flower, 0)
        else:
            edited, k = apply_sunflower_edit(oi, flower, 0)
            assert k == -1
            assert fault_count(OrderedInstance(edited, sigma)) == fault_count(oi) - 1


@pytest.mark.parametrize(
    "inst,center,find",
    [
        (broken_at(B3, 8, (0, 1, 2)), (0, 1, 2), find_simple_sunflower),
        (broken_at(F3, 6, (0, 1, 5)), (0, 1, 5), find_fast_sunflower),
    ],
)
def test_violated_mask_is_read_only_and_built_once(monkeypatch, inst, center, find):
    built = []
    ranked_positions = model._ranked_positions

    def counted(kind, members, position):
        # the edit's one-row call builds no mask
        if len(members) == inst.constraint_count():
            built.append(members)
        return ranked_positions(kind, members, position)

    monkeypatch.setattr(model, "_ranked_positions", counted)
    oi = OrderedInstance(inst, Ranking.identity(inst.n))
    flower = find(oi, row_of(inst, center), 1)
    apply_sunflower_edit(oi, flower, 1)
    assert fault_count(oi) == 1
    assert len(built) == 1
    with pytest.raises(ValueError):
        oi.violated[0] = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        oi.violated = ~oi.violated
    assert fault_count(oi) == 1 and len(built) == 1


class TestVertexDrops:
    def test_global_winner_is_always_selected(self):
        inst = consistent_instance(F3, 6)
        assert drop_always_selected_vertex(inst)[1] == 5

    def test_one_lost_pair_moves_or_removes_the_winner(self):
        inst = consistent_instance(F2, 4).replace({(2, 3): Constraint((2, 3), 2)})
        assert drop_always_selected_vertex(inst)[1] == 2
        inst = inst.replace({(1, 2): Constraint((1, 2), 1)})
        assert drop_always_selected_vertex(inst) is None

    def test_family_gate(self):
        with pytest.raises(SemanticsError):
            drop_always_selected_vertex(consistent_instance(B3, 5))

    def test_two_always_selected_vertices_fail_loudly(self, monkeypatch):
        inst = consistent_instance(F2, 4)
        monkeypatch.setattr(kernel, "in_degrees", lambda inst: DegreeProfile((3, 3, 0, 0), 2))
        with pytest.raises(KernelDriverError, match="multiple always-selected"):
            drop_always_selected_vertex(inst)

    def test_drop_preserves_the_optimum(self, planted):
        checked = 0
        for seed in range(30):
            inst = planted(Family.FAST, 3, 6, seed, 1)
            hit = drop_always_selected_vertex(inst)
            if hit is None:
                continue
            reduced, v, relabel = hit
            assert reduced.n == 5 and v not in relabel
            assert oracle.min_inconsistencies(inst).opt == oracle.min_inconsistencies(reduced).opt
            checked += 1
        assert checked > 0


class TestCycleFreeDrops:
    def test_pair_instances_only(self):
        with pytest.raises(SemanticsError):
            drop_cycle_free_vertex(consistent_instance(F3, 5))
        with pytest.raises(SemanticsError):
            drop_cycle_free_vertex(consistent_instance(B3, 5))

    def test_acyclic_instance_frees_the_smallest_vertex(self):
        assert drop_cycle_free_vertex(consistent_instance(F2, 5))[1] == 0

    def test_directed_triangle_frees_nothing(self):
        inst = Instance(
            3,
            F2,
            [Constraint((0, 1), 0), Constraint((1, 2), 1), Constraint((0, 2), 2)],
        )
        assert drop_cycle_free_vertex(inst) is None

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_cyclic_triple_definition(self, data):
        n = data.draw(st.integers(2, 80), label="n")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        edits = data.draw(st.integers(0, min(8, n * (n - 1) // 2)), label="edits")
        mode = GenerationMode.UNIFORM if edits == 0 else GenerationMode.PLANTED
        inst = generate(GeneratorSpec(F2, n, mode, seed, edits=edits))
        winner = {c.members: c.selected for c in reference.constraints(inst)}
        on_cycle = set()
        for triple in itertools.combinations(range(n), 3):
            if len({winner[pair] for pair in itertools.combinations(triple, 2)}) == 3:
                on_cycle.update(triple)
        free = [v for v in range(n) if v not in on_cycle]
        if n > 2:
            hit = drop_cycle_free_vertex(inst)
            assert (hit[1] if hit else None) == (free[0] if free else None)
        # dropping a vertex of a single pair would leave no instance
        assert _cycle_free(in_degrees(inst).counts) == (free[0] if free else None)

    def test_subsumes_the_always_selected_drop(self, uniform):
        for seed in range(40):
            inst = uniform(Family.FAST, 2, 6, seed)
            if drop_always_selected_vertex(inst) is not None:
                assert drop_cycle_free_vertex(inst) is not None

    def test_drop_preserves_the_optimum(self, uniform):
        checked = 0
        for seed in range(25):
            inst = uniform(Family.FAST, 2, 6, seed)
            hit = drop_cycle_free_vertex(inst)
            if hit is None:
                continue
            reduced, v, _ = hit
            assert oracle.min_inconsistencies(inst).opt == oracle.min_inconsistencies(reduced).opt
            checked += 1
        assert checked > 0


class TestConflictPacking:
    def packed_instance(self):
        # violated center (0,1) plus vertices 2 and 3 each closing a
        # directed cycle with it; 4 and 5 stay out of every cycle
        return consistent_instance(F2, 6).replace(
            {
                (0, 1): Constraint((0, 1), 0),
                (1, 2): Constraint((1, 2), 1),
                (1, 3): Constraint((1, 3), 1),
            }
        )

    def test_collects_single_vertex_groups_in_ranking_order(self):
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        packing = _find_conflict_packing(oi, row_of(inst, (0, 1)), 1)
        assert packing.extras == ((2,), (3,))

    def test_too_few_groups_is_none(self):
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        assert _find_conflict_packing(oi, row_of(inst, (0, 1)), 2) is None

    def test_gates(self):
        inst3 = consistent_instance(F3, 5)
        with pytest.raises(SemanticsError):
            _find_conflict_packing(
                OrderedInstance(inst3, Ranking.identity(5)), row_of(inst3, (0, 1, 2)), 0
            )
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        with pytest.raises(PreconditionError):
            _find_conflict_packing(oi, row_of(inst, (4, 5)), 0)

    def test_edit_preserves_the_answer(self):
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        packing = _find_conflict_packing(oi, row_of(inst, (0, 1)), 1)
        new_inst, new_k = _apply_packing_edit(oi, packing, 1)
        assert new_k == 0
        assert reference.constraint(new_inst, (0, 1)).selected == 1
        assert oracle.decide(inst, 1) == oracle.decide(new_inst, 0)

    def test_group_without_a_cycle_is_rejected(self):
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        with pytest.raises(PreconditionError):
            _apply_packing_edit(oi, SimpleSunflower(row_of(inst, (0, 1)), (0, 1), ((4,),)), 0)

    def test_budget_at_least_groups_is_inapplicable(self):
        inst = self.packed_instance()
        oi = OrderedInstance(inst, Ranking.identity(6))
        with pytest.raises(RuleInapplicableError):
            _apply_packing_edit(oi, SimpleSunflower(row_of(inst, (0, 1)), (0, 1), ((2,), (3,))), 2)


class TestTrivialInstances:
    @pytest.mark.parametrize("kind", [B3, B4, F2, F3, T3])
    def test_yes_and_no_shapes(self, kind):
        yes_inst, yes_k = trivial_instance(kind, True)
        assert (yes_inst.n, yes_k) == (kind.r, 0)
        assert oracle.decide(yes_inst, yes_k)
        no_inst, no_k = trivial_instance(kind, False)
        assert (no_inst.n, no_k) == (kind.r + 1, 0)
        assert not oracle.decide(no_inst, no_k)

    @pytest.mark.parametrize("kind", [B3, B4, F2, F3, T3])
    def test_instances_are_shared_and_read_only(self, kind):
        yes_inst, _ = trivial_instance(kind, True)
        consistent = reference.constraints(consistent_instance(kind, kind.r))
        assert yes_inst == Instance(kind.r, kind, consistent)
        for yes in (True, False):
            inst, _ = trivial_instance(kind, yes)
            assert trivial_instance(kind, yes)[0] is inst
            with pytest.raises(ValueError):
                inst.selected[0, 0] = 0

    @pytest.mark.parametrize("yes", [True, False])
    def test_wrong_oracle_answer_fails_loudly(self, monkeypatch, yes):
        trivial_instance(F3, yes)  # confirmed once, so the next call skips the oracle
        monkeypatch.setattr(oracle, "decide", lambda inst, k, cap=None: not yes)
        trivial_instance.cache_clear()
        with pytest.raises(KernelDriverError, match="opposite answer to yes"):
            trivial_instance(F3, yes)
        with pytest.raises(KernelDriverError, match="opposite answer to yes"):
            trivial_instance(F3, yes)

    def test_oracle_confirms_each_answer_once(self, monkeypatch):
        calls = []
        decide = oracle.decide

        def counted(inst, k):
            calls.append(inst)
            return decide(inst, k)

        monkeypatch.setattr(oracle, "decide", counted)
        trivial_instance.cache_clear()
        for kind in (B3, F2):
            for yes in (True, False):
                first = trivial_instance(kind, yes)
                assert trivial_instance(kind, yes) == first
        assert [(inst.kind, inst.n) for inst in calls] == [(B3, 3), (B3, 4), (F2, 2), (F2, 3)]


class TestCharacterizedDriver:
    def test_consistent_input_is_trivially_yes(self):
        out = kernelize_characterized(consistent_instance(B3, 7), 0, exact_provider())
        assert out.verdict is Verdict.TRIVIAL_YES
        assert out.p0 == 0 and out.trace == ()

    def test_negative_budget_is_trivially_no(self):
        out = kernelize_characterized(consistent_instance(T3, 5), -1, exact_provider())
        assert out.verdict is Verdict.TRIVIAL_NO

    def test_edits_run_until_a_verdict(self, planted):
        inst = planted(Family.BETWEENNESS, 3, 8, 3, 2)
        opt = oracle.min_inconsistencies(inst).opt
        out = kernelize_characterized(inst, 1, exact_provider(), debug_oracle_checks=True)
        assert out.p0 == opt
        assert oracle.decide(*out.materialize()) == oracle.decide(inst, 1)

    def test_edit_that_leaves_its_fault_fails_loudly(self, planted, monkeypatch):
        monkeypatch.setattr(kernel, "apply_sunflower_edit", lambda oi, flower, k: (oi.instance, k - 1))
        inst = planted(Family.BETWEENNESS, 3, 8, 3, 2)
        with pytest.raises(KernelDriverError, match="clear exactly its own fault"):
            kernelize_characterized(inst, 1, exact_provider())

    # n = 21 exceeds p*w + w*(k+1) + r = 20 at p = 2, k = 1, w = r = 4, so
    # width-4 petals (8-vertex petal sets) must fire; traces frozen from
    # the per-subset petal check.
    @pytest.mark.parametrize(
        "seed,trace",
        [
            (
                0,
                "rule=sunflower-edit center=5,8,12,20 selected=8,20->5,20 k=1->0 petals=4\n"
                "rule=sunflower-edit center=6,11,14,20 selected=6,11->6,20 k=0->-1 petals=4",
            ),
            (
                1,
                "rule=sunflower-edit center=0,2,3,7 selected=0,2->2,7 k=1->0 petals=4\n"
                "rule=sunflower-edit center=1,10,16,19 selected=1,16->1,19 k=0->-1 petals=4",
            ),
        ],
    )
    def test_width_r_petals_fire_on_betweenness_r4(self, seed, trace):
        spec = GeneratorSpec(B4, 21, GenerationMode.PLANTED, seed, 2)
        inst, base, _ = generate_with_details(spec)
        out = kernelize_characterized(inst, 1, lambda _: base)
        assert out.trace_text() == trace
        assert out.verdict is Verdict.TRIVIAL_NO
        assert oracle.decide(*out.materialize(), cap=21) == oracle.decide(inst, 1, cap=21)

    def test_fast_is_not_served(self):
        with pytest.raises(SemanticsError):
            kernelize_characterized(consistent_instance(F2, 5), 1, exact_provider())

    @pytest.mark.parametrize("family,r", [(Family.BETWEENNESS, 3), (Family.TRANSITIVE_FAST, 3)])
    def test_verdict_matches_the_oracle(self, planted, family, r):
        for seed in range(6):
            for k in (0, 1, 2):
                inst = planted(family, r, 7, seed, 2)
                out = kernelize_characterized(inst, k, exact_provider(), debug_oracle_checks=True)
                assert oracle.decide(*out.materialize()) == oracle.decide(inst, k), (seed, k)


class TestFastDriver:
    def test_consistent_input_is_trivially_yes(self):
        out = kernelize_fast(consistent_instance(F2, 6), 0)
        assert out.verdict is Verdict.TRIVIAL_YES
        assert out.p0 == 0

    def test_negative_budget_is_trivially_no(self):
        out = kernelize_fast(consistent_instance(F3, 5), -1)
        assert out.verdict is Verdict.TRIVIAL_NO

    def test_heavy_faults_at_zero_budget_are_no(self, planted):
        inst = planted(Family.FAST, 2, 7, 11, 3)
        p = fault_count(OrderedInstance(inst, inc_degree_ranking(inst)))
        assert p > 0
        out = kernelize_fast(inst, 0)
        assert out.verdict is Verdict.TRIVIAL_NO
        assert not oracle.decide(inst, 0)

    def test_family_gate(self):
        with pytest.raises(SemanticsError):
            kernelize_fast(consistent_instance(T3, 5), 1)

    def test_p0_is_the_initial_incdegree_fault_count(self, planted):
        inst = planted(Family.FAST, 3, 7, 2, 2)
        out = kernelize_fast(inst, 1)
        assert out.p0 == fault_count(OrderedInstance(inst, inc_degree_ranking(inst)))

    @pytest.mark.parametrize("r", [2, 3])
    def test_verdict_matches_the_oracle(self, planted, r):
        for n in (6, 7):
            for seed in range(8):
                for k, edits in ((1, 1), (1, 2), (2, 2)):
                    inst = planted(Family.FAST, r, n, seed, edits)
                    out = kernelize_fast(inst, k, debug_oracle_checks=True)
                    assert oracle.decide(*out.materialize()) == oracle.decide(inst, k), (
                        r,
                        n,
                        seed,
                        k,
                        edits,
                    )

    @pytest.mark.parametrize("r", [2, 3])
    def test_reduced_outputs_respect_both_size_bounds(self, planted, r):
        seen_reduced = 0
        for n in (7, 8):
            for seed in range(10):
                inst = planted(Family.FAST, r, n, seed, 2)
                out = kernelize_fast(inst, 2)
                if out.verdict is not Verdict.REDUCED:
                    continue
                seen_reduced += 1
                assert out.instance.n <= 6 * 2 + r
                p_out = fault_count(
                    OrderedInstance(out.instance, inc_degree_ranking(out.instance))
                )
                assert out.instance.n <= p_out + out.k + r
        assert seen_reduced > 0

    def test_trace_is_deterministic(self, planted):
        inst = planted(Family.FAST, 2, 8, 4, 3)
        first = kernelize_fast(inst, 2)
        second = kernelize_fast(inst, 2)
        assert first.trace_text() == second.trace_text()
        assert first.verdict is second.verdict

    def test_trace_lines_and_budget_are_wellformed(self, planted):
        seen_edit = 0
        for seed in range(12):
            inst = planted(Family.FAST, 2, 8, seed, 2)
            out = kernelize_fast(inst, 2)
            assert out.edit_count() + out.drop_count() == len(out.trace)
            k = 2
            for record in out.trace:
                if isinstance(record, EditRecord):
                    assert EDIT_LINE.match(record.line()), record.line()
                    assert (record.k_before, record.k_after) == (k, k - 1)
                    k -= 1
                    seen_edit += 1
                else:
                    assert isinstance(record, DropRecord)
                    assert DROP_LINE.match(record.line()), record.line()
                    assert record.k == k
                    assert record.n_after == record.n_before - 1
        assert seen_edit > 0

    def test_always_selected_drops_shrink_to_the_cyclic_core(self):
        # three flips leave a directed triangle through vertex 1 while
        # every vertex from 4 up still wins all of its pairs
        inst = consistent_instance(F2, 9).replace(
            {
                (0, 1): Constraint((0, 1), 0),
                (1, 2): Constraint((1, 2), 1),
                (1, 3): Constraint((1, 3), 1),
            }
        )
        out = kernelize_fast(inst, 1, debug_oracle_checks=True)
        assert out.verdict is Verdict.REDUCED
        assert out.edit_count() == 0 and out.drop_count() == 5
        assert all(r.rule == "drop-always-selected" for r in out.trace)
        assert all(DROP_LINE.match(r.line()) for r in out.trace)
        assert out.instance.n == 4
        assert oracle.decide(*out.materialize()) == oracle.decide(inst, 1)

    def test_cycle_free_drop_fires_when_no_global_winner_is_left(self):
        # two far-apart flips: after the top vertex drops, nobody wins
        # every pair, yet most vertices sit in no directed cycle
        inst = consistent_instance(F2, 9).replace(
            {(1, 3): Constraint((1, 3), 1), (5, 7): Constraint((5, 7), 5)}
        )
        out = kernelize_fast(inst, 1, debug_oracle_checks=True)
        rules = [r.rule for r in out.trace if isinstance(r, DropRecord)]
        assert "drop-cycle-free" in rules
        assert oracle.decide(*out.materialize()) == oracle.decide(inst, 1)

    @pytest.mark.parametrize("cap,checked", [(None, True), (11, False)])
    def test_debug_checks_run_wherever_the_oracle_accepts(self, monkeypatch, cap, checked):
        # 12 vertices: above the enumeration cap, within the subset DP's
        inst = consistent_instance(F2, 12).replace(
            {
                (0, 1): Constraint((0, 1), 0),
                (1, 2): Constraint((1, 2), 1),
                (1, 3): Constraint((1, 3), 1),
            }
        )
        seen = []
        decide = oracle.decide

        def spy(inst, k, cap=None):
            seen.append(inst.n)
            return decide(inst, k, cap)

        monkeypatch.setattr(oracle, "decide", spy)
        out = kernelize_fast(inst, 1, debug_oracle_checks=True, oracle_cap=cap)
        assert out.drop_count() > 1
        assert (12 in seen) == checked
        # one check per drop, on the instances before and after it
        steps = [(d.n_before, d.n_after) for d in out.trace if isinstance(d, DropRecord)]
        assert all(pair in zip(seen[::2], seen[1::2]) for pair in steps if pair[0] <= (cap or 12))

    def test_materialized_trivials_decide_like_their_verdict(self, planted):
        yes = kernelize_fast(consistent_instance(F2, 5), 1)
        inst, k = yes.materialize()
        assert oracle.decide(inst, k)
        no = kernelize_fast(planted(Family.FAST, 2, 7, 11, 3), 0)
        inst, k = no.materialize()
        assert not oracle.decide(inst, k)


def chained_drops(inst):
    """A round of drops made one `drop_*_vertex` call at a time, each on the
    instance the last one left: (vertex, rule) pairs, kept ids, last instance."""
    drops, kept = [], list(range(inst.n))
    while inst.n > inst.r:
        rule, hit = "drop-always-selected", drop_always_selected_vertex(inst)
        if hit is None and inst.r == 2:
            rule, hit = "drop-cycle-free", drop_cycle_free_vertex(inst)
        if hit is None:
            break
        inst, v, _ = hit
        drops.append((v, rule))
        del kept[v]
    return drops, kept, inst


ROUND_CASES = [
    (r, n, mode, edits, seed)
    for r, sizes in ((2, (20, 40, 80, 150, 300, 600)), (3, (30, 60, 100, 150)))
    for n in sizes
    for mode, edits in (
        (GenerationMode.UNIFORM, 0),
        (GenerationMode.PLANTED, 5),
        (GenerationMode.PLANTED, n // 2),
    )
    for seed in (0, 1)
]


def test_a_round_of_drops_equals_its_chain_of_single_drops(monkeypatch):
    """A round drops the vertices, by the rules and in the order, that the
    single drops take one at a time, and `induced` on its kept ids is the
    instance the last single drop leaves.  This holds on each input and
    on every round `kernelize_fast` runs, and with the chain in place of
    the round the driver writes the same trace and kernel.  The cases are
    fixed seeds, not hypothesis draws (whose derandomized seed follows the
    test's source), so the floors on inputs that drop 0, 1 and more
    vertices, and on drop rounds after an edit, keep their meaning."""
    round_drops = kernel._round_drops
    dropped, rounds = Counter(), []

    def chained_round(inst, counts):
        assert counts == in_degrees(inst).counts
        drops, kept, last = chained_drops(inst)
        assert round_drops(inst, counts) == (drops, kept)
        assert not drops or induced(inst, kept)[0] == last
        rounds.append((inst, len(drops)))
        return drops, kept

    for r, n, mode, edits, seed in ROUND_CASES:
        inst = generate(GeneratorSpec(ProblemKind(Family.FAST, r), n, mode, seed, edits=edits))
        k = max(2, edits // 4)
        out = kernelize_fast(inst, k)
        rounds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_round_drops", chained_round)
            chained = kernelize_fast(inst, k)
        if not rounds or rounds[0][0] is not inst:  # the driver gated before its drops
            chained_round(inst, in_degrees(inst).counts)
        dropped[min(next(size for seen, size in rounds if seen is inst), 2)] += 1
        dropped["after an edit"] += sum(seen is not inst and size > 0 for seen, size in rounds)
        assert (out.verdict, out.p0, out.trace_text()) == (
            chained.verdict,
            chained.p0,
            chained.trace_text(),
        ), (r, n, mode, edits, seed)
        assert out.materialize() == chained.materialize()
    assert dropped[0] >= 30 and dropped[1] >= 4 and dropped[2] >= 20, dropped
    assert dropped["after an edit"] >= 10, dropped


@pytest.mark.parametrize("r,n", [(2, 300), (3, 150)])
def test_a_drop_round_reads_the_profile_and_calls_induced_once(monkeypatch, r, n):
    """Finding a round's drops builds no instance and no pair tournament;
    the driver then makes one `induced` call per round that drops."""
    calls = Counter()
    for name in ("induced", "_pair_tournament"):

        def spy(*args, _name=name, _original=getattr(kernel, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(kernel, name, spy)
    inst = generate(GeneratorSpec(ProblemKind(Family.FAST, r), n, GenerationMode.PLANTED, 0, 5))
    drops, _ = kernel._round_drops(inst, in_degrees(inst).counts)
    assert len(drops) > 1 and calls == Counter()
    out = kernelize_fast(inst, 3)
    kinds = [isinstance(record, DropRecord) for record in out.trace]
    rounds = sum(1 for i, drop in enumerate(kinds) if drop and (i == 0 or not kinds[i - 1]))
    assert out.drop_count() > rounds > 0
    assert calls["induced"] == rounds


class TestDebugDropChecks:
    def two_triangles(self):
        # directed triangles on 0-2 and on 3-5 below a transitive top 6-9:
        # the optimum is 2, and the top four vertices drop first
        return consistent_instance(F2, 10).replace(
            {(0, 2): Constraint((0, 2), 0), (3, 5): Constraint((3, 5), 3)}
        )

    def test_a_drop_on_a_cycle_is_caught(self, monkeypatch):
        inst = self.two_triangles()
        honest = kernelize_fast(inst, 1, debug_oracle_checks=True)
        assert honest.verdict is Verdict.TRIVIAL_NO and honest.drop_count() == 4
        # after the top four, vertex 0 of the first triangle goes too
        monkeypatch.setattr(kernel, "_cycle_free", lambda counts: 0)
        with pytest.raises(KernelDriverError, match="changed the answer"):
            kernelize_fast(inst, 1, debug_oracle_checks=True)

    def test_kept_ids_that_miss_the_drops_are_caught(self, monkeypatch):
        inst = self.two_triangles()
        round_drops = kernel._round_drops

        def wrong_kept(inst, counts):
            drops, kept = round_drops(inst, counts)
            return drops, kept[:-1] + [inst.n - 1]

        monkeypatch.setattr(kernel, "_round_drops", wrong_kept)
        with pytest.raises(KernelDriverError, match="differs from its drops made one by one"):
            kernelize_fast(inst, 1, debug_oracle_checks=True)


def test_kernelize_runs_build_no_constraint(monkeypatch):
    """Faults stay table rows from the driver to the trace record, and
    single faults stay rows in the characterization sweeps: the golden
    kernelize inputs run and materialize their outcomes with no
    `Constraint` built, cold (the canonical trivial instances built anew)
    and warm, to the same traces and kernels, and so do exhaustive
    single-fault sweeps of all three families."""
    runs = []
    for _, (family, r, n, edits, seed), argv in GOLDEN_KERNEL_CASES:
        kind = ProblemKind(Family(family), int(r))
        spec = GeneratorSpec(kind, int(n), GenerationMode.PLANTED, int(seed), int(edits))
        runs.append((generate(spec), int(argv[argv.index("--k") + 1])))

    def kernelize(inst, k):
        if inst.kind.family is Family.FAST:
            outcome = kernelize_fast(inst, k)
        else:
            outcome = kernelize_characterized(inst, k, local_search_provider)
        return outcome.trace_text(), outcome.materialize(), outcome.edit_count()

    built = []
    init = Constraint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Constraint, "__init__", counted)
    trivial_instance.cache_clear()
    cold = [kernelize(inst, k) for inst, k in runs]
    assert trivial_instance.cache_info().currsize > 0
    warm = [kernelize(inst, k) for inst, k in runs]
    sweeps = [
        verify_simple_characterization(ProblemKind(family, r), size)
        for family, r, size in (
            (Family.BETWEENNESS, 4, 5),
            (Family.TRANSITIVE_FAST, 3, 4),
            (Family.FAST, 3, 4),
        )
    ]
    assert built == []
    assert cold == warm
    assert sum(edits for _, _, edits in warm) > 0
    assert [len(report.counterexamples) for report in sweeps] == [2, 0, 2]

import itertools
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import consistent_instance
from denserank import oracle
from denserank.errors import EnumerationCapError, SemanticsError
from denserank.generate import GenerationMode, GeneratorSpec, generate
from denserank.model import (
    Constraint,
    Family,
    OrderedInstance,
    ProblemKind,
    all_selected_values,
    fault_count,
    induced,
)

F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)
B3 = ProblemKind(Family.BETWEENNESS, 3)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)
B4 = ProblemKind(Family.BETWEENNESS, 4)

# Golden optima for seeded uniform instances, frozen after both
# enumerators (the vectorized oracle and the plain reference loop)
# computed them independently.
GOLDEN = [
    (F2, 6, 1234, 2, (2, 3, 0, 1, 5, 4)),
    (F2, 6, 2024, 3, (2, 0, 3, 4, 5, 1)),
    (B3, 6, 77, 8, None),
    (T3, 6, 77, 12, None),
]


class TestMinInconsistencies:
    def test_consistent_instance_has_opt_zero(self, any_family):
        kind = ProblemKind(any_family, 3)
        res = oracle.min_inconsistencies(consistent_instance(kind, 5))
        assert res.opt == 0

    def test_single_reedit_keeps_opt_at_most_one(self):
        for kind in (B3, T3):
            inst = consistent_instance(kind, 5)
            current = inst.constraint((0, 1, 2)).selected
            other = next(
                sel for sel in all_selected_values(kind, (0, 1, 2)) if sel != current
            )
            flipped = inst.replace({(0, 1, 2): Constraint((0, 1, 2), other)})
            assert oracle.min_inconsistencies(flipped).opt <= 1

    @pytest.mark.parametrize("kind,n,seed,opt,witness", GOLDEN)
    def test_golden_values(self, uniform, kind, n, seed, opt, witness):
        inst = uniform(kind.family, kind.r, n, seed)
        res = oracle.min_inconsistencies(inst)
        assert res.opt == opt
        if witness is not None:
            assert res.witness.order == witness
        ref_opt, ref_arg = reference.best(inst)
        assert ref_opt == opt
        if witness is not None:
            assert ref_arg == witness

    def test_witness_reproduces_opt(self, uniform, any_family):
        inst = uniform(any_family, 3, 6, 5)
        res = oracle.min_inconsistencies(inst)
        assert fault_count(OrderedInstance(inst, res.witness)) == res.opt

    def test_witness_is_lexicographically_first(self, uniform):
        for seed in range(6):
            inst = uniform(Family.FAST, 2, 5, seed)
            res = oracle.min_inconsistencies(inst)
            assert res.witness.order == reference.best(inst)[1]

    def test_agrees_with_reference_across_families(self, uniform):
        for family in Family:
            for seed in range(4):
                inst = uniform(family, 3, 5, seed)
                assert oracle.min_inconsistencies(inst).opt == reference.best(inst)[0]

    def test_cap_refuses_large_instances(self, uniform):
        inst = uniform(Family.FAST, 2, 6, 0)
        with pytest.raises(EnumerationCapError):
            oracle.min_inconsistencies(inst, cap=5)
        oracle.min_inconsistencies(inst, cap=6)

    def test_each_engine_has_its_own_default_cap(self):
        for kind, cap in ((F2, 18), (F3, 18), (B3, 18), (T3, 18), (B4, 10)):
            assert not oracle.refuses(kind, cap)
            assert oracle.refuses(kind, cap + 1)
            assert oracle.refuses(kind, 9, cap=8) and not oracle.refuses(kind, 8, cap=8)

    def test_reports_engine_and_search_size(self, uniform):
        res = oracle.min_inconsistencies(uniform(Family.FAST, 3, 6, 2))
        assert (res.engine, res.searched) == ("subset-dp", 2**6)
        res = oracle.min_inconsistencies(uniform(Family.BETWEENNESS, 4, 6, 2))
        assert (res.engine, res.searched) == ("enumeration", factorial(6))

    def test_enumeration_stops_after_the_first_consistent_block(self):
        res = oracle.min_by_enumeration(consistent_instance(B4, 9))
        assert (res.opt, res.searched) == (0, 40320)

    def test_subset_dp_rejects_arity_four(self, uniform):
        with pytest.raises(SemanticsError):
            oracle.min_by_subset_dp(uniform(Family.BETWEENNESS, 4, 5, 0))


class TestDecide:
    def test_yes_no_edges(self, uniform):
        inst = uniform(Family.FAST, 2, 6, 1234)
        # golden opt is 2
        assert not oracle.decide(inst, 1)
        assert oracle.decide(inst, 2)
        assert not oracle.decide(inst, -1)

    def test_monotone_in_k(self, uniform):
        inst = uniform(Family.BETWEENNESS, 3, 5, 9)
        answers = [oracle.decide(inst, k) for k in range(-1, 8)]
        assert answers == sorted(answers)

    def test_matches_edition_view(self, uniform):
        # YES at k iff some edition of at most k constraints goes consistent
        inst = uniform(Family.FAST, 2, 4, 3)
        keys = [c.members for c in inst.constraints()]

        def editable(k):
            for count in range(k + 1):
                for subset in itertools.combinations(keys, count):
                    pools = [
                        [
                            Constraint(m, sel)
                            for sel in all_selected_values(inst.kind, m)
                            if sel != inst.constraint(m).selected
                        ]
                        for m in subset
                    ]
                    for choice in itertools.product(*pools):
                        edited = inst.replace({c.members: c for c in choice})
                        if oracle.min_inconsistencies(edited).opt == 0:
                            return True
            return False

        for k in range(0, 4):
            assert oracle.decide(inst, k) == editable(k)


class TestIsConflict:
    def test_below_arity_is_vacuously_consistent(self):
        inst = consistent_instance(F3, 5)
        assert not oracle.is_conflict(inst, (0, 1))

    def test_consistent_subsets_are_not_conflicts(self):
        inst = consistent_instance(F3, 5)
        assert not oracle.is_conflict(inst, (0, 1, 2, 3))

    def test_fast_single_fault_on_last_block_is_a_conflict(self):
        # consecutive four vertices, fault on the last three
        inst = consistent_instance(F3, 4)
        inst = inst.replace({(1, 2, 3): Constraint((1, 2, 3), 1)})
        assert oracle.is_conflict(inst, (0, 1, 2, 3))
        assert reference.conflict(inst, (0, 1, 2, 3))

    def test_fast_single_fault_on_first_block_is_not(self):
        inst = consistent_instance(F3, 4)
        inst = inst.replace({(0, 1, 2): Constraint((0, 1, 2), 0)})
        assert not oracle.is_conflict(inst, (0, 1, 2, 3))
        assert not reference.conflict(inst, (0, 1, 2, 3))


# Each kind gets a planted and a uniform instance at n = 9 on top of the
# drawn ones, which lean small.
@pytest.mark.parametrize("kind", [F2, F3, B3, T3], ids=["fast2", "fast3", "betweenness3", "tfast3"])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    n=st.integers(3, 9),
    planted=st.booleans(),
    edits=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    subsets=st.lists(st.sets(st.integers(0, 8), max_size=7), min_size=1, max_size=3),
)
@example(n=9, planted=False, edits=1, seed=1, subsets=[{0, 2, 3, 5, 8}])
@example(n=9, planted=True, edits=4, seed=2, subsets=[{1, 2, 4, 6, 7, 8}])
def test_subset_dp_matches_enumeration(kind, n, planted, edits, seed, subsets):
    """Same optimum, same lexicographically first witness, same
    decisions and conflict verdicts as scoring every ranking."""
    if planted:
        spec = GeneratorSpec(kind, n, GenerationMode.PLANTED, seed, min(edits, comb(n, kind.r)))
    else:
        spec = GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed)
    inst = generate(spec)

    dp = oracle.min_by_subset_dp(inst)
    enum = oracle.min_by_enumeration(inst)
    assert (dp.engine, enum.engine) == ("subset-dp", "enumeration")
    assert (dp.opt, dp.witness) == (enum.opt, enum.witness)
    assert oracle.min_inconsistencies(inst) == dp
    assert not oracle.decide(inst, dp.opt - 1)
    assert oracle.decide(inst, dp.opt)

    for subset in subsets:
        subset = {v for v in subset if v < n}
        expected = len(subset) >= kind.r and (
            oracle.min_by_enumeration(induced(inst, subset)[0]).opt > 0
        )
        assert oracle.is_conflict(inst, subset) == expected

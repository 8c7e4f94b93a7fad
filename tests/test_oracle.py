import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    Ranking,
    all_selected_values,
    fault_count,
    induced,
)

F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)
B3 = ProblemKind(Family.BETWEENNESS, 3)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)
F4 = ProblemKind(Family.FAST, 4)
B4 = ProblemKind(Family.BETWEENNESS, 4)
T4 = ProblemKind(Family.TRANSITIVE_FAST, 4)

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
            current = reference.constraint(inst, (0, 1, 2)).selected
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
        # prefixes extended: 5 by the greedy dive, the rest by the search
        res = oracle.min_inconsistencies(uniform(Family.BETWEENNESS, 4, 6, 2))
        assert (res.engine, res.searched) == ("prefix-search", 116)

    def test_consistent_instance_is_found_without_backtracking(self):
        # the greedy dive reaches 0 in 8 steps, so the search runs at budget
        # 0 and extends only prefixes of sigma and of its reverse, which
        # betweenness also accepts: 1 + 2 * 7 of them
        sigma = Ranking((4, 2, 7, 0, 8, 1, 6, 3, 5))
        res = oracle.min_inconsistencies(consistent_instance(B4, 9, sigma))
        assert (res.opt, res.witness, res.searched) == (0, sigma, 23)

    def test_decide_stops_at_the_first_ranking_within_budget(self, uniform, monkeypatch):
        extended = []
        extend = oracle._PrefixSearch.extend

        def counting(search, block, budget):
            extended.append(len(block.bound))
            return extend(search, block, budget)

        monkeypatch.setattr(oracle._PrefixSearch, "extend", counting)
        inst = uniform(Family.BETWEENNESS, 4, 9, 0)  # opt 84 of 126 constraints
        # nothing is pruned, so each depth extends the first
        # _BLOCK // (n - depth) parents of its block, and the identity, the
        # first whole ranking, ends the search
        assert oracle.decide(inst, 126)
        assert extended == [1, 9, 72, 170, 204, 256, 341, 512]
        extended.clear()
        assert not oracle.decide(inst, 83)
        assert sum(extended) == 7344
        extended.clear()
        assert not oracle.decide(inst, -1)
        assert extended == []

    def test_prefix_search_refuses_above_its_cap(self, planted):
        inst = planted(Family.BETWEENNESS, 4, 11, 0, 2)
        for call in (
            lambda **cap: oracle.min_inconsistencies(inst, **cap),
            lambda **cap: oracle.decide(inst, 2, **cap),
            lambda **cap: oracle.is_conflict(inst, range(11), **cap),
        ):
            with pytest.raises(EnumerationCapError, match="prefix-search over 11 vertices exceeds the cap of 10;"):
                call()
            with pytest.raises(EnumerationCapError, match="exceeds the cap of 9;"):
                call(cap=9)
        res = oracle.min_inconsistencies(inst, cap=11)
        assert res.opt <= 2 and fault_count(OrderedInstance(inst, res.witness)) == res.opt
        assert oracle.decide(inst, res.opt, cap=11)

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
        keys = [c.members for c in reference.constraints(inst)]

        def editable(k):
            for count in range(k + 1):
                for subset in itertools.combinations(keys, count):
                    pools = [
                        [
                            Constraint(m, sel)
                            for sel in all_selected_values(inst.kind, m)
                            if sel != reference.constraint(inst, m).selected
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


def _draw(kind, n, planted, edits, seed):
    if planted:
        spec = GeneratorSpec(kind, n, GenerationMode.PLANTED, seed, min(edits, comb(n, kind.r)))
    else:
        spec = GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed)
    return generate(spec)


def _check_conflicts(inst, subsets):
    """`is_conflict` on each drawn subset against enumerating its sub-instance."""
    for subset in subsets:
        subset = {v for v in subset if v < inst.n}
        expected = len(subset) >= inst.r and (
            reference.min_by_enumeration(induced(inst, subset)[0]).opt > 0
        )
        assert oracle.is_conflict(inst, subset) == expected


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
    decisions and conflict verdicts as scoring every ranking; the prefix
    search, run directly, agrees with both."""
    inst = _draw(kind, n, planted, edits, seed)

    dp = oracle.min_by_subset_dp(inst)
    enum = reference.min_by_enumeration(inst)
    search = oracle.min_by_prefix_search(inst)
    assert (dp.engine, search.engine) == ("subset-dp", "prefix-search")
    assert (dp.opt, dp.witness) == (enum.opt, enum.witness) == (search.opt, search.witness)
    assert oracle.min_inconsistencies(inst) == dp
    assert not oracle.decide(inst, dp.opt - 1)
    assert oracle.decide(inst, dp.opt)
    _check_conflicts(inst, subsets)


# As above for the prefix search at r = 3 and r = 4.  The r = 3 kinds run
# it directly (the public entry points take the subset DP there).
@pytest.mark.parametrize(
    "kind",
    [F3, B3, T3, F4, B4, T4],
    ids=["fast3", "betweenness3", "tfast3", "fast4", "betweenness4", "tfast4"],
)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    n=st.integers(3, 9),
    planted=st.booleans(),
    edits=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    subsets=st.lists(st.sets(st.integers(0, 8), max_size=7), min_size=1, max_size=3),
)
@example(n=9, planted=False, edits=1, seed=3, subsets=[{0, 1, 3, 4, 6, 8}])
@example(n=9, planted=True, edits=3, seed=4, subsets=[{0, 2, 3, 5, 7}])
def test_prefix_search_matches_enumeration(kind, n, planted, edits, seed, subsets):
    """Same optimum and lexicographically first witness as scoring every
    ranking, and the budgeted search answers YES exactly from opt on."""
    assume(n >= kind.r)
    inst = _draw(kind, n, planted, edits, seed)

    search = oracle.min_by_prefix_search(inst)
    enum = reference.min_by_enumeration(inst)
    assert search.engine == "prefix-search"
    assert (search.opt, search.witness) == (enum.opt, enum.witness)
    for k in (search.opt - 1, search.opt):
        found = oracle._PrefixSearch(inst).search(k, first=True)
        assert (found is not None) == (k >= enum.opt)
    if kind.r == 4:
        assert oracle.min_inconsistencies(inst) == search
        assert not oracle.decide(inst, search.opt - 1)
        assert oracle.decide(inst, search.opt)
        _check_conflicts(inst, subsets)


# Frozen (opt, witness, searched) of `min_by_prefix_search`, so a faster
# search cannot change how much it searches.  The uniform instances start
# the search above the optimum: the budget falls three times on the first
# case and twice on `fast` r = 5.
SEARCH_PINS = [
    (B4, 9, None, 1, 89, (5, 0, 6, 3, 1, 4, 2, 8, 7), 20615),
    (F4, 9, 5, 0, 5, (0, 1, 3, 5, 6, 8, 2, 4, 7), 170),
    (T4, 8, None, 1, 58, (3, 6, 2, 5, 7, 4, 0, 1), 1949),
    (ProblemKind(Family.FAST, 5), 8, None, 0, 36, (1, 3, 4, 5, 6, 2, 0, 7), 8162),
    (ProblemKind(Family.BETWEENNESS, 5), 8, 5, 1, 5, (1, 0, 6, 5, 7, 2, 3, 4), 23),
    (ProblemKind(Family.TRANSITIVE_FAST, 5), 8, None, 2, 51, (0, 2, 6, 4, 7, 3, 1, 5), 1337),
]


@pytest.mark.parametrize(
    "kind,n,edits,seed,opt,witness,searched",
    SEARCH_PINS,
    ids=[
        "betweenness4-uniform", "fast4-planted", "tfast4-uniform",
        "fast5-uniform", "betweenness5-planted", "tfast5-uniform",
    ],
)
def test_prefix_search_size_is_pinned(kind, n, edits, seed, opt, witness, searched):
    res = oracle.min_by_prefix_search(_draw(kind, n, edits is not None, edits, seed))
    assert (res.opt, res.witness.order, res.searched) == (opt, witness, searched)


def test_search_tables_are_shared_and_read_only(uniform):
    a, b = uniform(Family.FAST, 4, 7, 0), uniform(Family.TRANSITIVE_FAST, 4, 7, 1)
    expected = oracle.min_by_prefix_search(b)
    tables = oracle._PrefixSearch(a).tables
    assert oracle._PrefixSearch(b).tables is tables
    for array in (*tables[:-1], *tables.root):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    oracle.min_by_prefix_search(a)
    assert oracle.min_by_prefix_search(b) == expected


# Kernel-sized instances (ROADMAP item 2): the budget prunes the search to
# a few hundred prefixes, and nothing it allocates grows like 2^n.
@pytest.mark.parametrize(
    "family,edits,searched",
    [(Family.FAST, 5, [143, 323]), (Family.BETWEENNESS, 6, [59, 77])],
    ids=["fast3", "betweenness3"],
)
def test_prefix_search_decides_at_forty_vertices(planted, family, edits, searched):
    inst = planted(family, 3, 40, 0, edits)
    oracle._search_tables.cache_clear()
    counts = []
    tracemalloc.start()
    try:
        for k in (edits - 1, edits):
            search = oracle._PrefixSearch(inst)
            found = search.search(k, first=True)
            assert (found is not None) == (k == edits)
            counts.append(search.searched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == searched
    assert fault_count(OrderedInstance(inst, Ranking(found[1]))) == found[0] <= edits
    assert peak < 64 << 20


@pytest.mark.parametrize("n,bound_mb", [(16, 32), (20, 64)])
def test_prefix_search_memory_does_not_grow_with_the_budget(planted, n, bound_mb):
    """At a budget of every constraint almost no child is pruned, yet the
    search holds at most one block of `_BLOCK` prefixes per depth."""
    inst = planted(Family.FAST, 3, n, 0, 5)
    oracle._search_tables.cache_clear()
    tracemalloc.start()
    try:
        found = oracle._PrefixSearch(inst).search(comb(n, 3), first=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fault_count(OrderedInstance(inst, Ranking(found[1]))) == found[0]
    assert peak < bound_mb << 20


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_prefix_search_across_block_boundaries(family, monkeypatch):
    """With blocks so small that each depth splits its prefixes, the
    optimum, its witness and the first ranking within every budget from
    opt - 1 up to every constraint are still those of lexicographic
    enumeration."""
    for r, n, edits in ((4, 6, None), (4, 7, 3), (5, 7, None)):
        inst = _draw(ProblemKind(family, r), n, edits is not None, edits, 0)
        orders = list(itertools.permutations(range(n)))
        faults = [reference.faults_under(inst, order) for order in orders]
        opt = min(faults)
        for block in (n, n + 1, 2 * n + 1):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            res = oracle.min_inconsistencies(inst)
            assert (res.opt, res.witness.order) == (opt, orders[faults.index(opt)])
            for k in range(opt - 1, comb(n, r) + 1):
                found = oracle._PrefixSearch(inst).search(k, first=True)
                i = next((i for i, f in enumerate(faults) if f <= k), None)
                assert found == (None if i is None else (faults[i], orders[i]))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("r", [5, 6, 7])
def test_prefix_search_on_one_constraint(family, r):
    """n = r: a single constraint, always satisfiable; the witness is its
    lexicographically first satisfying order."""
    for seed in range(3):
        inst = generate(GeneratorSpec(ProblemKind(family, r), r, GenerationMode.UNIFORM, seed))
        res = oracle.min_inconsistencies(inst)
        enum = reference.min_by_enumeration(inst)
        assert (res.engine, res.opt) == ("prefix-search", 0)
        assert res.witness == enum.witness
        assert oracle.decide(inst, 0) and not oracle.is_conflict(inst, range(r))

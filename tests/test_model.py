import itertools
import math
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import FORMAT_KINDS, consistent_instance
from denserank import model
from denserank.errors import DensityError, EmptyInstanceError, InvalidConstraintError
from denserank.generate import GenerationMode, GeneratorSpec, generate
from denserank.model import (
    Constraint,
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    all_selected_values,
    batch_valid,
    fault_count,
    inconsistent_constraints,
    induced,
    nth_combination,
    order_violations,
    satisfied_data,
    satisfied_selected,
    selected_datum,
    selected_width,
    subsets,
    validate_constraint,
)

B3 = ProblemKind(Family.BETWEENNESS, 3)
F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)


class TestProblemKind:
    def test_fast_allows_pairs(self):
        assert ProblemKind(Family.FAST, 2).r == 2

    def test_betweenness_rejects_pairs(self):
        with pytest.raises(InvalidConstraintError):
            ProblemKind(Family.BETWEENNESS, 2)

    def test_tfast_rejects_pairs(self):
        with pytest.raises(InvalidConstraintError):
            ProblemKind(Family.TRANSITIVE_FAST, 2)


class TestRanking:
    def test_position_inverts_order(self):
        rk = Ranking((2, 0, 3, 1))
        for i, v in enumerate(rk.order):
            assert rk.pos(v) == i
        assert rk.last() == 1

    def test_rejects_non_permutations(self):
        with pytest.raises(InvalidConstraintError):
            Ranking((0, 0, 1))
        with pytest.raises(InvalidConstraintError):
            Ranking((1, 2, 3))


class TestConstraintValidation:
    def test_members_must_increase(self):
        with pytest.raises(InvalidConstraintError):
            validate_constraint(F3, (2, 1, 3), 3)

    def test_fast_selected_is_a_member(self):
        validate_constraint(F3, (0, 1, 2), 1)
        with pytest.raises(InvalidConstraintError):
            validate_constraint(F3, (0, 1, 2), 5)
        with pytest.raises(InvalidConstraintError):
            validate_constraint(F3, (0, 1, 2), (0, 1))

    def test_betweenness_selected_is_increasing_member_pair(self):
        validate_constraint(B3, (0, 1, 2), (0, 2))
        with pytest.raises(InvalidConstraintError):
            validate_constraint(B3, (0, 1, 2), (2, 0))
        with pytest.raises(InvalidConstraintError):
            validate_constraint(B3, (0, 1, 2), (0, 3))

    def test_tfast_selected_is_member_permutation(self):
        validate_constraint(T3, (0, 1, 2), (2, 0, 1))
        with pytest.raises(InvalidConstraintError):
            validate_constraint(T3, (0, 1, 2), (2, 0, 0))

    def test_all_selected_value_counts(self):
        m = (0, 1, 2)
        assert len(all_selected_values(F3, m)) == 3
        assert len(all_selected_values(B3, m)) == 3
        assert len(all_selected_values(T3, m)) == 6


class TestInstance:
    def test_density_is_enforced(self):
        cs = [Constraint(m, m[-1]) for m in itertools.combinations(range(4), 2)]
        Instance(4, F2, cs)
        with pytest.raises(DensityError, match=r"missing constraint for subset \(0, 1\)"):
            Instance(4, F2, cs[1:])

    def test_duplicates_rejected(self):
        cs = [Constraint(m, m[-1]) for m in itertools.combinations(range(4), 2)]
        with pytest.raises(DensityError, match="duplicate"):
            Instance(4, F2, cs + [Constraint((0, 1), 0)])

    def test_members_within_range(self):
        cs = [Constraint(m, m[-1]) for m in itertools.combinations(range(1, 5), 2)]
        with pytest.raises(DensityError):
            Instance(4, F2, cs)

    def test_too_few_vertices(self):
        with pytest.raises(EmptyInstanceError):
            Instance(2, F3, [])

    def test_constraints_iterate_lexicographically(self):
        inst = consistent_instance(F3, 5)
        members = [c.members for c in reference.constraints(inst)]
        assert members == sorted(members)
        assert inst.constraint_count() == math.comb(5, 3) == 10

    def test_replace_swaps_one_subset(self):
        inst = consistent_instance(F2, 4)
        new = inst.replace({(0, 1): Constraint((0, 1), 0)})
        assert reference.constraint(new, (0, 1)).selected == 0
        assert reference.constraint(inst, (0, 1)).selected == 1
        assert new != inst

    def test_replace_rejects_foreign_members(self):
        inst = consistent_instance(F2, 4)
        with pytest.raises(InvalidConstraintError):
            inst.replace({(0, 1): Constraint((0, 2), 0)})


class TestEvaluate:
    def test_fast_needs_selected_last(self):
        c = Constraint((0, 1, 2), 0)
        assert reference.evaluate(F3, c, Ranking((1, 2, 0, 3)))
        assert not reference.evaluate(F3, c, Ranking.identity(4))

    def test_betweenness_accepts_both_orientations(self):
        c = Constraint((0, 1, 2), (0, 2))
        assert reference.evaluate(B3, c, Ranking((0, 1, 2)))
        assert reference.evaluate(B3, c, Ranking((2, 1, 0)))
        assert not reference.evaluate(B3, c, Ranking((1, 0, 2)))

    def test_tfast_is_satisfied_by_exactly_one_member_order(self):
        c = Constraint((0, 1, 2), (2, 0, 1))
        hits = [
            order
            for order in itertools.permutations(range(3))
            if reference.evaluate(T3, c, Ranking(order))
        ]
        assert hits == [(2, 0, 1)]

    def test_locality(self):
        # verdicts depend only on the members' relative order
        c = Constraint((1, 2, 4), 4)
        a = Ranking((0, 1, 2, 3, 4, 5))
        b = Ranking((3, 1, 5, 2, 0, 4))
        assert reference.evaluate(F3, c, a) == reference.evaluate(F3, c, b) is True


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(FORMAT_KINDS), data=st.data())
def test_scalar_verdict_agrees_with_the_batch_verdict(kind, data):
    n = data.draw(st.integers(kind.r, 8), label="n")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    inst = generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed))
    sigma = Ranking(tuple(data.draw(st.permutations(range(n)), label="order")))
    oi = OrderedInstance(inst, sigma)

    rejected = [c for c in reference.constraints(inst) if not reference.evaluate(kind, c, sigma)]
    assert inconsistent_constraints(oi) == rejected

    row = reference._positions(np.array([sigma.order], dtype=np.int8))
    satisfied = reference.batch_verdict(inst)(row)[0]
    assert np.array_equal(oi.violated, ~satisfied)
    assert fault_count(oi) == int((~satisfied).sum()) == len(rejected)

    for c in reference.constraints(inst):
        edited = Constraint(c.members, satisfied_selected(kind, c.members, sigma))
        assert reference.evaluate(kind, edited, sigma)

    scalar = [
        reference.satisfied_selected(kind, c.members, sigma) for c in reference.constraints(inst)
    ]
    table = satisfied_data(kind, subsets(n, kind.r), sigma.position)
    assert np.array_equal(table, Instance._from_table(n, kind, scalar).selected)


def test_violated_mask_gathers_positions_narrowly():
    # one ranking's verdict gathers positions in the narrowest integer
    # type that holds n; gathered as int64 they peaked at 1.75 MB here
    inst = generate(GeneratorSpec(F3, 65, GenerationMode.PLANTED, 1, edits=10))
    subsets(65, 3)
    oi = OrderedInstance(inst, Ranking.identity(65))
    tracemalloc.start()
    try:
        mask = oi.violated
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (math.comb(65, 3),)
    assert peak < 1.4e6


@pytest.mark.parametrize("kind", [B3, T3], ids=lambda k: k.family.value)
def test_violated_mask_of_pair_and_order_data_stays_under_the_fast_bound(kind):
    # the ranked positions and the selected positions are both gathered
    # narrowly, column by column; sorting id rows peaked at 2.6-2.9 MB here
    inst = generate(GeneratorSpec(kind, 65, GenerationMode.PLANTED, 1, edits=10))
    subsets(65, 3)
    oi = OrderedInstance(inst, Ranking.identity(65))
    tracemalloc.start()
    try:
        mask = oi.violated
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (math.comb(65, 3),)
    assert peak < 1.4e6

ORDER_KINDS = [
    ProblemKind(family, r)
    for r in range(2, 10)
    for family in Family
    if r >= (2 if family is Family.FAST else 3)
]


@pytest.mark.parametrize("kind", ORDER_KINDS, ids=lambda k: f"{k.family.value}-r{k.r}")
def test_order_violations_match_the_scalar_rule_on_every_member_order(kind):
    r = kind.r
    # several constraints while r! is small, one (n = r) above; r = 9
    # scores its orders in blocks of 8! that share the leading slot
    n = r + 2 if r <= 5 else r
    inst = generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed=r))
    slots = tuple(range(r))
    # each selected datum in member slots, where the scalar rule answers
    selected = [
        c.members.index(c.selected)
        if isinstance(c.selected, int)
        else tuple(map(c.members.index, c.selected))
        for c in reference.constraints(inst)
    ]
    # a ranking of the member slots: the scalar rule reads only its positions
    ranking = types.SimpleNamespace()
    expected = []
    orders = itertools.permutations(slots)  # lexicographic, like member_orders(r)
    while chunk := list(itertools.islice(orders, math.factorial(8))):
        for position in np.argsort(chunk, axis=1).tolist():
            ranking.position = position
            datum = reference.satisfied_selected(kind, slots, ranking)
            expected.extend(datum != s for s in selected)
    table = np.array(expected).reshape(math.factorial(r), -1).T
    assert np.array_equal(order_violations(inst), table)


# n per arity for the verdict sweep: r = 2 reaches n = 300, where positions
# no longer fit in uint8; the rest keep C(n, r) near a thousand rows
VERDICT_N = {2: 300, 3: 20, 4: 14, 5: 12}


@pytest.mark.parametrize("kind", ORDER_KINDS, ids=lambda k: f"{k.family.value}-r{k.r}")
def test_verdict_kernel_matches_the_reference_rule_under_three_rankings(kind):
    r = kind.r
    n = VERDICT_N.get(r, r + 3)
    inst = generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed=r))
    rows = reference._rows(inst)
    family = kind.family.value
    shuffled = list(range(n))
    random.Random(r).shuffle(shuffled)
    for order in (range(n), range(n - 1, -1, -1), shuffled):
        sigma = Ranking(tuple(order))
        oi = OrderedInstance(inst, sigma)
        expected = [not reference._satisfied(family, m, s, sigma.position) for m, s in rows]
        assert oi.violated.tolist() == expected
        assert fault_count(oi) == sum(expected)
        table = satisfied_data(kind, subsets(n, r), sigma.position)
        assert table.shape == inst.selected.shape and table.flags.c_contiguous
        assert all(
            reference._satisfied(family, m, selected_datum(kind, row), sigma.position)
            for (m, _), row in zip(rows, table.tolist())
        )


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(FORMAT_KINDS), data=st.data())
def test_batch_record_checks_agree_with_their_scalar_forms(kind, data):
    r, width = kind.r, selected_width(kind)
    # past the int64 range, `batch_valid` is checked on Python ints
    n = data.draw(
        st.one_of(st.integers(r, 9), st.integers(r, 10**6), st.just(2**64 + 5)), label="n"
    )
    ids = st.integers(0, n - 1)
    subset = st.lists(ids, min_size=r, max_size=r, unique=True).map(sorted)
    rows = []
    for _ in range(data.draw(st.integers(1, 12), label="rows")):
        members = data.draw(
            st.one_of(subset, st.lists(ids, min_size=r, max_size=r)), label="members"
        )
        if data.draw(st.booleans(), label="drawn from the members"):
            selected = data.draw(st.sampled_from(all_selected_values(kind, tuple(members))))
            selected = list(selected) if isinstance(selected, tuple) else [selected]
        else:
            selected = data.draw(st.lists(ids, min_size=width, max_size=width), label="selected")
        rows.append(members + selected)
    table = np.array(rows, dtype=np.int64 if n < 2**63 else object)

    def scalar_valid(row):
        try:
            validate_constraint(kind, tuple(row[:r]), selected_datum(kind, row[r:]))
        except InvalidConstraintError:
            return False
        return True

    mask = batch_valid(kind, table[:, :r].T, table[:, r:].T)
    assert mask.tolist() == [scalar_valid(row) for row in rows]

    # the batch ranks table every id 0..n-1 in int64
    if n <= 2_000:
        increasing = [row[:r] == sorted(set(row[:r])) for row in rows]
        shell = Instance._from_table(n, kind, [])  # `_row` reads only n and r
        expected = [shell._row(row[:r])[1] for row, ok in zip(rows, increasing) if ok]
        assert Instance._ranks(n, r, table[increasing, :r].T).tolist() == expected


def test_tfast_batch_check_agrees_at_arity_one_thousand():
    """One sort checks a selected permutation at any arity: a valid one,
    one with a repeated id and one with an id outside the members."""
    kind, r = ProblemKind(Family.TRANSITIVE_FAST, 1000), 1000
    members = np.arange(0, 2 * r, 2)
    valid = np.random.default_rng(0).permutation(members)
    repeated, stranger = valid.copy(), valid.copy()
    repeated[7] = repeated[500]
    stranger[7] = 1
    for selected, ok in ((valid, True), (repeated, False), (stranger, False)):
        assert batch_valid(kind, members[:, None], selected[:, None]).tolist() == [ok]
        fields = kind, tuple(members.tolist()), tuple(selected.tolist())
        if ok:
            validate_constraint(*fields)
        else:
            with pytest.raises(InvalidConstraintError):
                validate_constraint(*fields)


class TestEditWrt:
    """An edit with respect to a ranking writes the one datum on the
    members that the ranking satisfies (`satisfied_selected`)."""

    def test_fast_edit_takes_the_max(self):
        assert satisfied_selected(F3, (0, 1, 2), Ranking.identity(3)) == 2

    def test_betweenness_edit_canonicalizes_orientation(self):
        assert satisfied_selected(B3, (0, 1, 2), Ranking((2, 1, 0))) == (0, 2)

    @pytest.mark.parametrize("kind", [B3, F2, F3, T3])
    def test_edit_satisfies_and_is_idempotent(self, kind):
        # the edited datum satisfies the ranking and is the only value
        # that does, so editing an edited constraint changes nothing
        sigma = Ranking((3, 0, 4, 1, 2))
        for members in itertools.combinations(range(5), kind.r):
            edited = satisfied_selected(kind, members, sigma)
            for sel in all_selected_values(kind, members):
                assert reference.evaluate(kind, Constraint(members, sel), sigma) == (sel == edited)


class TestFaults:
    def test_consistent_instance_has_no_faults(self, any_family):
        kind = ProblemKind(any_family, 3)
        inst = consistent_instance(kind, 5)
        assert fault_count(OrderedInstance(inst, Ranking.identity(5))) == 0

    def test_single_flip_is_the_single_fault(self):
        inst = consistent_instance(F3, 5)
        inst = inst.replace({(1, 2, 3): Constraint((1, 2, 3), 1)})
        bad = inconsistent_constraints(OrderedInstance(inst, Ranking.identity(5)))
        assert [c.members for c in bad] == [(1, 2, 3)]


class TestInduced:
    def test_relabelling_is_dense_and_ascending(self):
        inst = consistent_instance(F3, 6)
        sub, relabel = induced(inst, [1, 3, 4, 5])
        assert relabel == {1: 0, 3: 1, 4: 2, 5: 3}
        assert sub.n == 4
        assert sub.constraint_count() == math.comb(4, 3)

    def test_verdicts_survive_restriction(self):
        inst = consistent_instance(T3, 6, Ranking((5, 3, 1, 0, 2, 4)))
        edited = satisfied_selected(T3, (1, 3, 5), Ranking.identity(6))
        inst = inst.replace({(1, 3, 5): Constraint((1, 3, 5), edited)})
        oi = OrderedInstance(inst, Ranking((5, 3, 1, 0, 2, 4)))
        sub, relabel = induced(inst, [1, 2, 3, 5])
        # the ranking restricted to the kept vertices, in the new ids
        sub_oi = OrderedInstance(
            sub, Ranking(tuple(relabel[v] for v in oi.sigma.order if v in relabel))
        )
        want = {tuple(sorted(relabel[v] for v in c.members)) for c in inconsistent_constraints(oi) if set(c.members) <= {1, 2, 3, 5}}
        got = {c.members for c in inconsistent_constraints(sub_oi)}
        assert got == want

    def test_subset_below_arity_is_rejected(self):
        inst = consistent_instance(F3, 6)
        with pytest.raises(EmptyInstanceError):
            induced(inst, [0, 1])


class TestCombinatorics:
    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (7, 4)])
    def test_nth_combination_matches_lexicographic_enumeration(self, n, r):
        subsets = list(itertools.combinations(range(n), r))
        assert [nth_combination(n, r, i) for i in range(len(subsets))] == subsets

    @pytest.mark.parametrize("n,r", [(5, 2), (9, 4), (70, 69)])
    def test_ranks_of_the_lexicographic_table_count_up(self, n, r):
        # at (70, 69) the unused terms comb(69 - v, 69 - i), v < i, pass int64
        ranks = Instance._ranks(n, r, subsets(n, r).T)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == list(range(math.comb(n, r)))

    @pytest.mark.parametrize(
        "n,r", [(2000, 2000), (2000, 1999), (2000, 3), (300, 2), (62, 31), (70, 69)]
    )
    def test_rank_terms_match_the_scalar_rank_on_sampled_keys(self, n, r):
        # the table computes only the terms of ids a valid subset holds
        sample = random.Random(n * 10_000 + r)
        keys = [tuple(range(r)), tuple(range(n - r, n))]
        keys += [tuple(sorted(sample.sample(range(n), r))) for _ in range(40)]
        ranks = Instance._ranks(n, r, np.array(keys, dtype=np.int64).T)
        assert ranks.tolist() == [Instance._rank(n, r, key) for key in keys]
        assert model._rank_terms(n, r).shape == (r, n)
        assert not model._rank_terms(n, r).flags.writeable

    @pytest.mark.parametrize("largest_first", [True, False])
    def test_subsets_tables_match_combinations_in_any_build_order(self, largest_first):
        # a table for a smaller n is filtered from the largest one built
        model._LARGEST_SUBSETS.clear()
        subsets.cache_clear()
        sizes = sorted(range(13), reverse=largest_first)
        for n in sizes:
            for r in range(1, 13):
                table = subsets(n, r)
                assert table.shape == (math.comb(n, r), r) and table.dtype == np.int64
                assert not table.flags.writeable
                assert list(map(tuple, table.tolist())) == list(itertools.combinations(range(n), r))

    def test_nth_combination_bounds(self):
        with pytest.raises(IndexError):
            nth_combination(5, 2, 10)


def _rebuilt_induced(inst, keep):
    """`induced` written constraint by constraint through the public constructor."""
    relabel = {v: i for i, v in enumerate(sorted(keep))}
    rebuilt = []
    for c in reference.constraints(inst):
        if not set(c.members) <= relabel.keys():
            continue
        members = tuple(relabel[v] for v in c.members)
        if inst.kind.family is Family.FAST:
            sel = relabel[c.selected]
        elif inst.kind.family is Family.BETWEENNESS:
            sel = tuple(sorted(relabel[v] for v in c.selected))
        else:
            sel = tuple(relabel[v] for v in c.selected)
        rebuilt.append(Constraint(members, sel))
    return Instance(len(relabel), inst.kind, rebuilt)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(FORMAT_KINDS), data=st.data())
def test_table_operations_match_a_constraint_by_constraint_rebuild(kind, data):
    n = data.draw(st.integers(kind.r, 8), label="n")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    inst = generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed))
    assert inst == Instance(n, kind, reference.constraints(inst))

    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=kind.r), label="keep")
    sub, _ = induced(inst, keep)
    assert sub == _rebuilt_induced(inst, keep)

    edited = data.draw(
        st.lists(st.sampled_from(list(itertools.combinations(range(n), kind.r))), unique=True),
        label="edited subsets",
    )
    changes = {
        m: Constraint(m, data.draw(st.sampled_from(all_selected_values(kind, m)), label="value"))
        for m in edited
    }
    before = list(reference.constraints(inst))
    new = inst.replace(changes)
    rebuilt = [changes.get(c.members, c) for c in reference.constraints(inst)]
    assert new == Instance(n, kind, rebuilt)
    assert list(reference.constraints(inst)) == before


def test_selected_tables_are_read_only(planted):
    inst = planted(Family.BETWEENNESS, 3, 6, 1, 2)
    derived = [
        Instance(inst.n, inst.kind, reference.constraints(inst)),
        inst.replace({(0, 1, 2): Constraint((0, 1, 2), (0, 2))}),
        induced(inst, [0, 2, 3, 5])[0],
        inst,
    ]
    for table in [d.selected for d in derived]:
        with pytest.raises(ValueError):
            table[0, 0] = 1
    for d in derived[:-1]:
        assert not np.shares_memory(d.selected, inst.selected)

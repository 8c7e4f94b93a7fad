import itertools
import tracemalloc

import pytest

import reference
from conftest import consistent_instance, first_block_witness
from denserank import oracle
from denserank.characterize import (
    Compatibility,
    SingleFaultConfig,
    _pattern,
    betweenness_single_fault_conflict,
    default_conflict_size,
    enumerate_single_fault_configs,
    fast_single_fault_conflict,
    predicted_non_conflicts,
    single_fault_config,
    verify_simple_characterization,
    violating_selected_values,
)
from denserank.errors import (
    ConfigError,
    DensityError,
    EnumerationCapError,
    InvalidConstraintError,
    PreconditionError,
    SemanticsError,
)
from denserank.model import (
    Constraint,
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    satisfied_selected,
)

B3 = ProblemKind(Family.BETWEENNESS, 3)
B4 = ProblemKind(Family.BETWEENNESS, 4)
F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)
F4 = ProblemKind(Family.FAST, 4)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)
T4 = ProblemKind(Family.TRANSITIVE_FAST, 4)

# Every family, with its smallest arity and one more.
FAULT_KINDS = [F2, F3, B3, B4, T3, T4]

# Selected data that no constraint on members 0..r-1 can carry.
INVALID_DATA = {
    Family.FAST: lambda r: [r, -1, (0,)],
    Family.BETWEENNESS: lambda r: [(r - 1, 0), (0, r), (0, 0), 0],
    Family.TRANSITIVE_FAST: lambda r: [(0,) * r, tuple(range(r - 1)), tuple(range(1, r + 1))],
}


class TestSingleFaultConfig:
    def test_builder_produces_exactly_one_fault(self):
        config = single_fault_config(F3, 4, (3, 1, 2), 1)
        assert config.members == (1, 2, 3)
        assert config.selected == 1
        assert config.row == 3
        assert config.instance.n == 4
        config = single_fault_config(B4, 5, (0, 1, 2, 3), (0, 2))
        assert (config.row, config.members, config.selected) == (0, (0, 1, 2, 3), (0, 2))

    def test_satisfied_fault_is_rejected(self):
        # selected = the identity maximum is the satisfied value
        with pytest.raises(ConfigError):
            single_fault_config(F3, 4, (1, 2, 3), 3)
        # and for every family: a satisfied datum, members that name no
        # r-subset of the vertices, and a datum that is no datum of the
        # members are each refused
        for kind in FAULT_KINDS:
            r, size = kind.r, kind.r + 1
            members = tuple(range(r))
            satisfied = satisfied_selected(kind, members, Ranking.identity(size))
            with pytest.raises(ConfigError):
                single_fault_config(kind, size, members, satisfied)
            foreign = [
                (*members[1:], size),  # out of range
                (-1, *members[1:]),
                (0, *members[:-1]),  # repeated
                members[:-1],  # too few
                (*members, size - 1),  # too many
            ]
            for bad in foreign:
                with pytest.raises(DensityError):
                    single_fault_config(kind, size, bad, satisfied)
            for bad in INVALID_DATA[kind.family](r):
                with pytest.raises(InvalidConstraintError):
                    single_fault_config(kind, size, members, bad)

    def test_constructor_rechecks_premise(self):
        good = single_fault_config(F3, 4, (1, 2, 3), 1)
        extra = good.instance.replace({(0, 1, 2): Constraint((0, 1, 2), 0)})
        with pytest.raises(ConfigError):
            SingleFaultConfig(OrderedInstance(extra, good.sigma), good.row)
        # for every family, no other row of a single-fault instance, and
        # no row of one with a second fault, passes for the fault
        for kind in FAULT_KINDS:
            size = kind.r + 1
            for good in enumerate_single_fault_configs(kind, size):
                assert SingleFaultConfig(good.ordered, good.row) == good
                for row in range(good.instance.constraint_count()):
                    if row != good.row:
                        with pytest.raises(ConfigError):
                            SingleFaultConfig(good.ordered, row)
            good = next(enumerate_single_fault_configs(kind, size))
            other = next(c for c in enumerate_single_fault_configs(kind, size) if c.row != good.row)
            table = good.instance.selected.copy()
            table[other.row] = other.instance.selected[other.row]
            twice = OrderedInstance(Instance._from_table(size, kind, table), good.sigma)
            for row in (good.row, other.row):
                with pytest.raises(ConfigError):
                    SingleFaultConfig(twice, row)

    def test_violating_values_exclude_the_satisfied_one(self):
        sigma = Ranking.identity(4)
        vals = violating_selected_values(F3, (0, 1, 3), sigma)
        assert vals == [0, 1]
        vals = violating_selected_values(T3, (0, 1, 2), sigma)
        assert len(vals) == 5 and (0, 1, 2) not in vals

    def test_enumeration_counts(self):
        assert sum(1 for _ in enumerate_single_fault_configs(F3, 4)) == 4 * 2
        assert sum(1 for _ in enumerate_single_fault_configs(B3, 4)) == 4 * 2
        assert sum(1 for _ in enumerate_single_fault_configs(T3, 4)) == 4 * 5


class TestCompatibility:
    def test_right_shape(self):
        # members by rank t1..t4, selected {t1, t3}
        assert _pattern((0, 1, 2, 3), (0, 2), Ranking.identity(5)) is Compatibility.RIGHT

    def test_left_shape(self):
        assert _pattern((0, 1, 2, 3), (1, 3), Ranking.identity(5)) is Compatibility.LEFT

    def test_neither_shape(self):
        assert _pattern((0, 1, 2, 3), (0, 1), Ranking.identity(5)) is Compatibility.NEITHER

    def test_shapes_follow_the_ranking_not_the_ids(self):
        # under a reversed order the id-wise "right" pair becomes {t_l, t_r}
        reverse = Ranking((4, 3, 2, 1, 0))
        assert _pattern((0, 1, 2, 3), (1, 3), reverse) is Compatibility.RIGHT

    def test_shapes_are_mutually_exclusive(self):
        sigma = Ranking.identity(6)
        for members in itertools.combinations(range(6), 4):
            for sel in violating_selected_values(B4, members, sigma):
                shape = _pattern(members, sel, sigma)
                assert shape in (Compatibility.RIGHT, Compatibility.LEFT, Compatibility.NEITHER)


class TestVerdictTables:
    """Every closed-form verdict row is pinned against the oracle."""

    def test_betweenness_r4_all_configs(self):
        for config in enumerate_single_fault_configs(B4, 5):
            want = oracle.is_conflict(config.instance, range(5))
            assert betweenness_single_fault_conflict(config) == want

    def test_betweenness_r3_all_configs(self):
        for config in enumerate_single_fault_configs(B3, 4):
            want = oracle.is_conflict(config.instance, range(4))
            assert betweenness_single_fault_conflict(config) == want

    def test_fast_r3_all_configs(self):
        for config in enumerate_single_fault_configs(F3, 4):
            want = oracle.is_conflict(config.instance, range(4))
            assert fast_single_fault_conflict(config) == want
            assert want == reference.conflict(config.instance, range(4))

    def test_fast_r2_closed_form_refuses(self):
        config = single_fault_config(F2, 3, (0, 2), 0)
        with pytest.raises(PreconditionError):
            fast_single_fault_conflict(config)

    def test_fast_r2_suffix_flip(self):
        # backward pair on the last two vertices: acyclic triangle, not
        # a conflict, although r >= 3 suffix placements always conflict
        config = single_fault_config(F2, 3, (1, 2), 1)
        assert not oracle.is_conflict(config.instance, range(3))
        # the split shape still conflicts at r = 2
        config = single_fault_config(F2, 3, (0, 2), 0)
        assert oracle.is_conflict(config.instance, range(3))

    def test_family_and_size_gates(self):
        config = single_fault_config(F3, 4, (1, 2, 3), 1)
        with pytest.raises(SemanticsError):
            betweenness_single_fault_conflict(config)
        big = single_fault_config(F3, 5, (2, 3, 4), 2)
        with pytest.raises(PreconditionError):
            fast_single_fault_conflict(big)


class TestCharacterizationSweeps:
    def test_tfast_r3_is_conflict_at_size_4_exhaustively(self):
        report = verify_simple_characterization(T3, 4)
        assert report.exhaustive
        assert report.checked == 4 * 5
        assert report.counterexamples == ()

    @pytest.mark.parametrize("r,configs", [(4, 5 * 23), (5, 6 * 119)])
    def test_tfast_is_conflict_at_size_r_plus_1_exhaustively(self, r, configs):
        # the certified conflict size the characterized kernel's edits rest on
        kind = ProblemKind(Family.TRANSITIVE_FAST, r)
        report = verify_simple_characterization(kind, default_conflict_size(kind))
        assert report.exhaustive
        assert report.checked == configs
        assert report.counterexamples == ()

    @pytest.mark.parametrize(
        "family,r,size,sample",
        [(Family.BETWEENNESS, 5, 10, 150), (Family.TRANSITIVE_FAST, 6, 7, 500)],
    )
    def test_certified_conflict_size_holds_on_a_seeded_sample(self, family, r, size, sample):
        # exhausting these takes seconds: 2,268 configurations for
        # betweenness r = 5 and 5,033 for tfast r = 6
        kind = ProblemKind(family, r)
        assert default_conflict_size(kind) == size
        report = verify_simple_characterization(kind, size, sample=sample, seed=17)
        assert not report.exhaustive
        assert report.checked == sample
        assert report.counterexamples == ()

    def test_betweenness_r3_size_4_has_no_counterexamples(self):
        report = verify_simple_characterization(B3, 4)
        assert report.exhaustive
        assert report.counterexamples == ()

    def test_fast_counterexamples_are_exactly_the_first_block(self):
        report = verify_simple_characterization(F3, 4)
        members = {m for m, _ in report.counterexamples}
        assert members == {(0, 1, 2)}

    def test_sampling_is_seeded_and_reproducible(self):
        a = verify_simple_characterization(B4, 5, sample=10, seed=3)
        b = verify_simple_characterization(B4, 5, sample=10, seed=3)
        assert not a.exhaustive
        assert a.checked == 10
        assert a.counterexamples == b.counterexamples

    def test_size_gate(self):
        with pytest.raises(ConfigError):
            verify_simple_characterization(F3, 3)

    def test_cap_refusal_comes_before_any_selected_datum_is_listed(self):
        # tfast r = 10 has 10! selected data per constraint; listing them
        # (as the sweep does for every configuration) takes hundreds of MB
        t10 = ProblemKind(Family.TRANSITIVE_FAST, 10)
        with pytest.raises(EnumerationCapError) as oracle_refusal:
            oracle.decide(consistent_instance(t10, 11), 0)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError) as refusal:
                verify_simple_characterization(t10, 11, sample=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refusal.value) == str(oracle_refusal.value)
        assert peak < 2**20

    def test_report_summary_mentions_counts(self):
        report = verify_simple_characterization(F3, 4)
        text = report.summary()
        assert "8 single-fault configurations" in text
        assert "non-conflict" in text


class TestPredictedNonConflicts:
    @pytest.mark.parametrize("kind,size", [(B3, 4), (B3, 6), (T3, 4), (T3, 5), (B4, 8)])
    def test_conflict_only_sizes(self, kind, size):
        assert predicted_non_conflicts(kind, size) == ()

    @pytest.mark.parametrize("kind,size", [(B4, 6), (B4, 7), (F3, 5), (F2, 3), (F2, 4)])
    def test_unclaimed_sizes(self, kind, size):
        assert predicted_non_conflicts(kind, size) is None

    @pytest.mark.parametrize("kind", [B4, F3])
    def test_verdict_table_misses_match_the_oracle_sweep(self, kind):
        size = kind.r + 1
        report = verify_simple_characterization(kind, size)
        assert report.exhaustive
        assert predicted_non_conflicts(kind, size) == report.counterexamples


class TestFirstBlockWitness:
    @pytest.mark.parametrize("size", [4, 5, 6, 7])
    def test_never_a_conflict_fast_r3(self, size):
        config = first_block_witness(F3, size)
        assert not oracle.is_conflict(config.instance, range(size))

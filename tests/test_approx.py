import itertools

import pytest

import reference
from conftest import consistent_instance
from denserank import approx, oracle
from denserank.approx import (
    DegreeProfile,
    csp_distance,
    degree_gap_slack,
    in_degrees,
    inc_degree_ranking,
    incdegree_optimality_slack,
    left_counts,
    ranking_distance_slacks,
)
from denserank.errors import SemanticsError
from denserank.model import (
    Constraint,
    Family,
    OrderedInstance,
    ProblemKind,
    Ranking,
    fault_count,
)
from denserank.rng import SplitMix64

F2 = ProblemKind(Family.FAST, 2)
F3 = ProblemKind(Family.FAST, 3)


def random_ranking(n, rng):
    return Ranking(tuple(rng.permutation(n)))


class TestDegrees:
    def test_fast_only(self):
        inst = consistent_instance(ProblemKind(Family.BETWEENNESS, 3), 5)
        with pytest.raises(SemanticsError):
            in_degrees(inst)

    def test_profile_must_sum_to_the_dense_total(self):
        with pytest.raises(SemanticsError):
            DegreeProfile((1, 1, 1, 1), 2)

    def test_identity_consistent_counts_are_binomials(self):
        inst = consistent_instance(F3, 5)
        assert in_degrees(inst).counts == (0, 0, 1, 3, 6)

    def test_ranking_sorts_by_count_then_id(self):
        inst = consistent_instance(F3, 5)
        assert inc_degree_ranking(inst).order == (0, 1, 2, 3, 4)
        # flipping one constraint moves a win from 4 to 2
        flipped = inst.replace({(2, 3, 4): Constraint((2, 3, 4), 2)})
        assert in_degrees(flipped).counts == (0, 0, 2, 3, 5)
        assert inc_degree_ranking(flipped).order == (0, 1, 2, 3, 4)


class TestLeftCounts:
    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (7, 4)])
    def test_closed_form_matches_enumeration(self, n, r):
        sigma = Ranking(tuple(SplitMix64(n * 31 + r).permutation(n)))
        direct = [0] * n
        for subset in itertools.combinations(range(n), r):
            direct[max(subset, key=sigma.pos)] += 1
        assert left_counts(sigma, r) == tuple(direct)


class TestCspDistance:
    def test_zero_on_equal_rankings(self, uniform):
        inst = uniform(Family.FAST, 2, 5, 0)
        rho = Ranking((3, 1, 4, 0, 2))
        assert csp_distance(inst, rho, rho) == 0

    def test_equals_pair_inversions_at_r2(self, uniform):
        # at width two a constraint changes verdict exactly when the two
        # rankings order its members differently, whatever is selected
        rng = SplitMix64(42)
        for seed in range(5):
            inst = uniform(Family.FAST, 2, 6, seed)
            rho, gamma = random_ranking(6, rng), random_ranking(6, rng)
            inversions = sum(
                1
                for u, w in itertools.combinations(range(6), 2)
                if (rho.pos(u) < rho.pos(w)) != (gamma.pos(u) < gamma.pos(w))
            )
            assert csp_distance(inst, rho, gamma) == inversions

    def test_ranking_size_gate(self, uniform):
        inst = uniform(Family.FAST, 2, 5, 0)
        with pytest.raises(SemanticsError):
            csp_distance(inst, Ranking.identity(4), Ranking.identity(5))


class TestDegreeGap:
    def test_consistent_ranking_has_zero_slack_and_gap(self):
        inst = consistent_instance(F3, 6)
        report = degree_gap_slack(inst, Ranking.identity(6))
        assert report.faults == 0
        assert report.gap_total == 0
        assert report.slack == 0

    def test_slack_is_nonnegative_on_random_pairs(self, uniform):
        rng = SplitMix64(7)
        for seed in range(10):
            for r in (2, 3):
                inst = uniform(Family.FAST, r, 6, seed)
                report = degree_gap_slack(inst, random_ranking(6, rng))
                assert report.slack >= 0
                assert report.gap_total >= 0

    def test_identities_hold_with_faults_present(self, uniform):
        # the identity checks run inside; a return means they held
        inst = uniform(Family.FAST, 3, 7, 99)
        report = degree_gap_slack(inst, Ranking.identity(7))
        assert sum(report.late_unselected) + sum(report.early_selected) == 2 * report.faults

    def test_tallies_match_a_constraint_by_constraint_count(self, uniform):
        rng = SplitMix64(11)
        for seed in range(4):
            for r in (2, 3, 4):
                inst = uniform(Family.FAST, r, 7, seed)
                rho = random_ranking(7, rng)
                late_sel, late_unsel, early_sel = [0] * 7, [0] * 7, [0] * 7
                for c in reference.constraints(inst):
                    last = max(c.members, key=rho.pos)
                    if c.selected == last:
                        late_sel[last] += 1
                    else:
                        late_unsel[last] += 1
                        early_sel[c.selected] += 1
                report = degree_gap_slack(inst, rho)
                assert report.late_selected == tuple(late_sel)
                assert report.late_unselected == tuple(late_unsel)
                assert report.early_selected == tuple(early_sel)

    def test_broken_vertex_identity_fails_loudly(self, uniform, monkeypatch):
        monkeypatch.setattr(approx, "left_counts", lambda sigma, r: (1,) * sigma.n)
        with pytest.raises(SemanticsError, match="identity fails at vertex 0"):
            degree_gap_slack(uniform(Family.FAST, 3, 7, 99), Ranking.identity(7))

    def test_broken_fault_total_fails_loudly(self, uniform, monkeypatch):
        monkeypatch.setattr(approx, "fault_count", lambda oi: -1)
        with pytest.raises(SemanticsError, match="not twice the fault count -1"):
            degree_gap_slack(uniform(Family.FAST, 3, 7, 99), Ranking.identity(7))

    def test_adversarial_descent_never_goes_negative(self, uniform):
        # steepest-descent over adjacent swaps, chasing small slack
        for seed in (3, 4):
            inst = uniform(Family.FAST, 2, 6, seed)
            order = list(range(6))
            slack = degree_gap_slack(inst, Ranking(tuple(order))).slack
            improved = True
            while improved:
                improved = False
                for i in range(5):
                    order[i], order[i + 1] = order[i + 1], order[i]
                    cand = degree_gap_slack(inst, Ranking(tuple(order))).slack
                    if cand < slack:
                        slack = cand
                        improved = True
                    else:
                        order[i], order[i + 1] = order[i + 1], order[i]
            assert slack >= 0


class TestIncDegreeOptimality:
    def test_no_ranking_beats_it_exhaustively(self, uniform):
        inst = uniform(Family.FAST, 2, 5, 11)
        for order in itertools.permutations(range(5)):
            assert incdegree_optimality_slack(inst, Ranking(order)) >= 0

    def test_five_approximation_spot_check(self, uniform):
        for seed in range(8):
            inst = uniform(Family.FAST, 2, 6, seed)
            b = fault_count(OrderedInstance(inst, inc_degree_ranking(inst)))
            assert b <= 5 * oracle.min_inconsistencies(inst).opt or b == 0


class TestDistanceSlacks:
    def test_both_slacks_nonnegative(self, uniform):
        rng = SplitMix64(13)
        for seed in range(8):
            inst = uniform(Family.FAST, 3, 6, seed)
            s = ranking_distance_slacks(inst, random_ranking(6, rng), random_ranking(6, rng))
            assert s.slack_vs_flips >= 0
            assert s.slack_vs_faults >= 0

    def test_equal_rankings_collapse_everything(self, uniform):
        inst = uniform(Family.FAST, 2, 5, 2)
        rho = Ranking((4, 2, 0, 1, 3))
        s = ranking_distance_slacks(inst, rho, rho)
        assert (s.left_gap, s.flip_count, s.fault_gap) == (0, 0, 0)

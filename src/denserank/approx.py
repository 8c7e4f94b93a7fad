"""Inc-Degree approximation for FAST instances, plus slack checkers.

The Inc-Degree ranking sorts vertices by how often they are the selected
(i.e. must-come-last) member.  The supporting inequalities are exposed
as checkers that return integer slacks instead of booleans, so sweeps
can log how tight each bound runs in practice; a negative slack anywhere
would falsify the analysis.

Everything in this module is specific to FAST: in-degrees need a single
selected vertex per constraint, and the slack arguments lean on
"selected means ranked last".  Other families are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import SemanticsError
from .model import (
    Family,
    Instance,
    OrderedInstance,
    Ranking,
    fault_count,
    satisfied_data,
    subsets,
)


def _require_fast(inst: Instance) -> None:
    if inst.kind.family is not Family.FAST:
        raise SemanticsError(
            f"operation is defined for FAST instances only, got {inst.kind.family.value}"
        )


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex count of constraints selecting that vertex.

    Dense instances select exactly one vertex per r-subset, so the
    counts always sum to C(n, r); the constructor insists on it.
    """

    counts: tuple[int, ...]
    r: int

    def __post_init__(self):
        expected = comb(len(self.counts), self.r)
        if sum(self.counts) != expected:
            raise SemanticsError(
                f"in-degrees sum to {sum(self.counts)}, dense total is {expected}"
            )


def in_degrees(inst: Instance) -> DegreeProfile:
    _require_fast(inst)
    counts = np.bincount(inst.selected[:, 0], minlength=inst.n)
    return DegreeProfile(tuple(counts.tolist()), inst.kind.r)


def inc_degree_ranking(inst: Instance, profile: Optional[DegreeProfile] = None) -> Ranking:
    """Vertices by ascending in-degree, ties by ascending id.  `profile`
    is `in_degrees(inst)`, passed by a caller that reads it as well."""
    if profile is None:
        profile = in_degrees(inst)
    return Ranking(tuple(np.argsort(profile.counts, kind="stable").tolist()))


def left_counts(sigma: Ranking, r: int) -> tuple[int, ...]:
    """Per-vertex number of r-subsets whose last-ranked member it is.

    Density makes this a pure position count: C(position, r - 1)
    smaller-ranked companions can be chosen.  The tests confirm the
    closed form against direct enumeration.
    """
    return tuple(comb(sigma.pos(v), r - 1) for v in range(sigma.n))


def csp_distance(inst: Instance, rho: Ranking, gamma: Ranking) -> int:
    """Number of constraints satisfied under exactly one of the two rankings."""
    _require_fast(inst)
    if rho.n != inst.n or gamma.n != inst.n:
        raise SemanticsError("rankings must cover the instance's vertex set")
    rho_violated = OrderedInstance(inst, rho).violated
    return int((rho_violated != OrderedInstance(inst, gamma).violated).sum())


@dataclass(frozen=True)
class DegreeGapReport:
    """Tallies behind `degree_gap_slack`, kept for logging.

    For each vertex v, constraints containing v split by whether v is
    ranked last in them (the "left" side) and whether v is selected:

    * late_selected:   v ranked last and selected (satisfied there)
    * late_unselected: v ranked last, someone else selected (violated)
    * early_selected:  v selected but not ranked last (violated)
    """

    slack: int
    faults: int
    gap_total: int
    late_selected: tuple[int, ...]
    late_unselected: tuple[int, ...]
    early_selected: tuple[int, ...]


def degree_gap_slack(inst: Instance, rho: Ranking) -> DegreeGapReport:
    """Slack of: twice the fault count bounds the total gap between
    left-counts and in-degrees.

    The exact double-counting identities behind the bound are checked
    here on every call (SemanticsError if one fails); only the final
    inequality is left to the caller as a slack.
    """
    _require_fast(inst)
    n = inst.n
    # the last-ranked member of every constraint against its selected one
    last = satisfied_data(inst.kind, subsets(n, inst.r), rho.position)[:, 0]
    selected = inst.selected[:, 0]
    ok = last == selected
    late_sel = np.bincount(last[ok], minlength=n).tolist()
    late_unsel = np.bincount(last[~ok], minlength=n).tolist()
    early_sel = np.bincount(selected[~ok], minlength=n).tolist()

    profile = in_degrees(inst)
    lefts = left_counts(rho, inst.kind.r)
    faults = fault_count(OrderedInstance(inst, rho))
    for v in range(n):
        if not (
            late_sel[v] + early_sel[v] == profile.counts[v]
            and late_sel[v] + late_unsel[v] == lefts[v]
            and min(lefts[v], profile.counts[v]) >= late_sel[v]
        ):
            raise SemanticsError(f"degree double-counting identity fails at vertex {v}")
    if sum(late_unsel) + sum(early_sel) != 2 * faults:
        raise SemanticsError(f"violated tallies are not twice the fault count {faults}")

    gap_total = sum(abs(lefts[v] - profile.counts[v]) for v in range(n))
    return DegreeGapReport(
        slack=2 * faults - gap_total,
        faults=faults,
        gap_total=gap_total,
        late_selected=tuple(late_sel),
        late_unselected=tuple(late_unsel),
        early_selected=tuple(early_sel),
    )


def incdegree_optimality_slack(inst: Instance, rho: Ranking) -> int:
    """Slack of: no ranking has a smaller left-count/in-degree gap than
    the Inc-Degree ranking."""
    _require_fast(inst)
    profile = in_degrees(inst)
    r = inst.kind.r

    def gap(sigma: Ranking) -> int:
        lefts = left_counts(sigma, r)
        return sum(abs(lefts[v] - profile.counts[v]) for v in range(inst.n))

    return gap(rho) - gap(inc_degree_ranking(inst))


@dataclass(frozen=True)
class DistanceSlacks:
    """Slacks of: the left-count gap between two rankings bounds both
    the number of constraints they disagree on and the difference of
    their fault counts."""

    left_gap: int
    flip_count: int
    fault_gap: int

    @property
    def slack_vs_flips(self) -> int:
        return self.left_gap - self.flip_count

    @property
    def slack_vs_faults(self) -> int:
        return self.left_gap - self.fault_gap


def ranking_distance_slacks(inst: Instance, rho: Ranking, gamma: Ranking) -> DistanceSlacks:
    _require_fast(inst)
    r = inst.kind.r
    lr = left_counts(rho, r)
    lg = left_counts(gamma, r)
    left_gap = sum(abs(lr[v] - lg[v]) for v in range(inst.n))
    flips = csp_distance(inst, rho, gamma)
    b_rho = fault_count(OrderedInstance(inst, rho))
    b_gamma = fault_count(OrderedInstance(inst, gamma))
    return DistanceSlacks(left_gap=left_gap, flip_count=flips, fault_gap=abs(b_rho - b_gamma))

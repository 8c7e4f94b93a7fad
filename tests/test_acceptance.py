"""Acceptance battery.

One test per acceptance criterion.  Every test prints exactly one
PASS/FAIL line (run pytest with -s or read the captured output) and then
asserts, so the battery doubles as a human-readable checklist.  All
schedules are seeded and deterministic.
"""

import itertools
from pathlib import Path

from conftest import first_block_witness
from denserank import fileformat, oracle
from denserank.approx import (
    degree_gap_slack,
    in_degrees,
    inc_degree_ranking,
    incdegree_optimality_slack,
    left_counts,
    ranking_distance_slacks,
)
from denserank.characterize import (
    betweenness_single_fault_conflict,
    enumerate_single_fault_configs,
    fast_single_fault_conflict,
    verify_simple_characterization,
)
from denserank.generate import GenerationMode, GeneratorSpec, generate
from denserank.kernel import (
    Verdict,
    drop_always_selected_vertex,
    exact_provider,
    kernelize_characterized,
    kernelize_fast,
)
from denserank.model import Family, OrderedInstance, ProblemKind, Ranking, fault_count
from denserank.rng import SplitMix64

GOLDEN_DIR = Path(__file__).parent / "golden"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _planted(family: Family, r: int, n: int, seed: int, edits: int):
    spec = GeneratorSpec(ProblemKind(family, r), n, GenerationMode.PLANTED, seed, edits=edits)
    return generate(spec)


def _uniform(family: Family, r: int, n: int, seed: int):
    return generate(GeneratorSpec(ProblemKind(family, r), n, GenerationMode.UNIFORM, seed))


def test_kernel_answer_preservation():
    """500 seeded planted instances, all five problem kinds, n <= 9,
    k <= 3: deciding the kernelization output must equal deciding the
    original instance at the same budget, with no exceptions."""
    kinds = [
        (Family.BETWEENNESS, 3),
        (Family.BETWEENNESS, 4),
        (Family.TRANSITIVE_FAST, 3),
        (Family.FAST, 2),
        (Family.FAST, 3),
    ]
    total = mismatches = 0
    verdicts = {v: 0 for v in Verdict}
    for block, (family, r) in enumerate(kinds):
        span = 9 - (r + 2) + 1
        for idx in range(100):
            n = r + 2 + idx % span
            k = idx % 4
            edits = 1 + (idx // 4) % 3
            inst = _planted(family, r, n, 1000 * block + idx, edits)
            if family is Family.FAST:
                out = kernelize_fast(inst, k)
            else:
                out = kernelize_characterized(inst, k, exact_provider())
            verdicts[out.verdict] += 1
            total += 1
            if oracle.decide(*out.materialize()) != oracle.decide(inst, k):
                mismatches += 1
    detail = (
        f"{total} instances, {mismatches} mismatches; verdicts: "
        + " ".join(f"{v.value}={c}" for v, c in verdicts.items())
    )
    _verdict("kernel answer preservation", total == 500 and mismatches == 0, detail)


def test_fast_kernel_size_bounds():
    """Every REDUCED output of the FAST driver fits in 6k + r vertices
    for the input budget k, and in p + k' + r for the fault count p of
    its own recomputed greedy ranking and the remaining budget k'."""
    reduced = oversized = 0
    for r in (2, 3):
        for n in (8, 9):
            for k in (1, 2, 3):
                for seed in range(10):
                    inst = _planted(Family.FAST, r, n, 3000 + seed, k + 1)
                    out = kernelize_fast(inst, k)
                    if out.verdict is not Verdict.REDUCED:
                        continue
                    reduced += 1
                    p_out = fault_count(
                        OrderedInstance(out.instance, inc_degree_ranking(out.instance))
                    )
                    if out.instance.n > 6 * k + r or out.instance.n > p_out + out.k + r:
                        oversized += 1
    detail = f"{reduced} reduced kernels, {oversized} over a bound"
    _verdict("fast kernel size bounds", reduced >= 25 and oversized == 0, detail)


def test_incdegree_five_approximation():
    """At least 1000 seeded FAST instances with n <= 7: the in-degree
    ranking's fault count never exceeds five times the exact optimum."""
    checked = violations = 0
    worst = 0.0
    for r in (2, 3):
        span = 7 - (r + 1) + 1
        for i in range(500):
            n = r + 1 + i % span
            if i % 2:
                inst = _uniform(Family.FAST, r, n, 5000 + i)
            else:
                inst = _planted(Family.FAST, r, n, 5000 + i, 1 + i % 3)
            b = fault_count(OrderedInstance(inst, inc_degree_ranking(inst)))
            opt = oracle.min_inconsistencies(inst).opt
            checked += 1
            if b > 5 * opt:
                violations += 1
            if opt:
                worst = max(worst, b / opt)
    detail = f"{checked} instances, {violations} violations, worst ratio {worst:.3f}"
    _verdict("incdegree five-approximation", checked >= 1000 and violations == 0, detail)


def _descend(n: int, start_rng: SplitMix64, objective) -> int:
    """First-improvement adjacent-swap descent; returns the local
    minimum of `objective` over one seeded start."""
    order = list(start_rng.permutation(n))
    best = objective(Ranking(tuple(order)))
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            value = objective(Ranking(tuple(order)))
            if value < best:
                best = value
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return best


def test_degree_gap_inequalities():
    """1000 random (instance, ranking, ranking) triples: the degree-gap
    slack, the greedy-optimality slack, and both ranking-distance slacks
    stay non-negative; the double-counting identity (late unselected
    plus early selected appearances equal twice the fault count) and the
    per-vertex cap on late selected appearances hold exactly.  Seeded
    hill climbs that try to push each slack negative must bottom out at
    zero or above."""
    checked = negatives = identity_breaks = 0
    for i in range(1000):
        r = 2 + i % 2
        n = 5 + i % 4
        inst = _uniform(Family.FAST, r, n, 7000 + i)
        rng = SplitMix64(777000 + i)
        rho = Ranking(tuple(rng.permutation(n)))
        gamma = Ranking(tuple(rng.permutation(n)))
        report = degree_gap_slack(inst, rho)
        dist = ranking_distance_slacks(inst, rho, gamma)
        slacks = (
            report.slack,
            incdegree_optimality_slack(inst, rho),
            dist.slack_vs_flips,
            dist.slack_vs_faults,
        )
        checked += 1
        if any(s < 0 for s in slacks):
            negatives += 1
        if sum(report.late_unselected) + sum(report.early_selected) != 2 * report.faults:
            identity_breaks += 1
        lefts = left_counts(rho, r)
        counts = in_degrees(inst).counts
        if any(
            report.late_selected[v] > min(lefts[v], counts[v]) for v in range(n)
        ):
            identity_breaks += 1

    adversarial_min = None
    for i in range(12):
        r = 2 + i % 2
        inst = _uniform(Family.FAST, r, 6, 7500 + i)
        lows = (
            _descend(6, SplitMix64(i), lambda rho: degree_gap_slack(inst, rho).slack),
            _descend(6, SplitMix64(i + 50), lambda rho: incdegree_optimality_slack(inst, rho)),
            _descend(
                6,
                SplitMix64(i + 100),
                lambda rho: min(
                    ranking_distance_slacks(inst, rho, gamma).slack_vs_flips
                    for gamma in (Ranking.identity(6), Ranking(tuple(reversed(range(6)))))
                ),
            ),
        )
        low = min(lows)
        adversarial_min = low if adversarial_min is None else min(adversarial_min, low)

    ok = (
        checked == 1000
        and negatives == 0
        and identity_breaks == 0
        and adversarial_min >= 0
    )
    detail = (
        f"{checked} triples, {negatives} negative slacks, "
        f"{identity_breaks} identity breaks, adversarial minimum {adversarial_min}"
    )
    _verdict("degree-gap inequalities", ok, detail)


def test_small_conflict_characterizations():
    """Closed-form conflict verdicts match the oracle everywhere they
    are stated: the pair-shape table for width-4 betweenness faults on
    five vertices, the placement table for FAST faults on r+1 vertices
    at r = 3 and r = 4, conflict-only sweeps for betweenness r = 4 on
    eight vertices and the strongly-fragile family on four, and the
    first-block FAST fault staying a non-conflict as the set grows."""
    B4 = ProblemKind(Family.BETWEENNESS, 4)
    table_misses = 0
    b4_checked = 0
    for config in enumerate_single_fault_configs(B4, 5):
        b4_checked += 1
        predicted = betweenness_single_fault_conflict(config)
        if predicted != oracle.is_conflict(config.instance, range(5)):
            table_misses += 1

    fast_checked = 0
    for r in (3, 4):
        kind = ProblemKind(Family.FAST, r)
        for config in enumerate_single_fault_configs(kind, r + 1):
            fast_checked += 1
            predicted = fast_single_fault_conflict(config)
            if predicted != oracle.is_conflict(config.instance, range(r + 1)):
                table_misses += 1

    wide = verify_simple_characterization(B4, 8)
    fragile = verify_simple_characterization(ProblemKind(Family.TRANSITIVE_FAST, 3), 4)

    witness_conflicts = 0
    for r in (2, 3):
        kind = ProblemKind(Family.FAST, r)
        for size in range(r + 1, r + 5):
            config = first_block_witness(kind, size)
            if oracle.is_conflict(config.instance, range(size)):
                witness_conflicts += 1

    ok = (
        table_misses == 0
        and b4_checked == 25
        and fast_checked == 23
        and wide.exhaustive
        and wide.counterexamples == ()
        and fragile.exhaustive
        and fragile.counterexamples == ()
        and witness_conflicts == 0
    )
    detail = (
        f"{b4_checked}+{fast_checked} table rows, {table_misses} misses; "
        f"wide sweep {wide.checked} configs {len(wide.counterexamples)} non-conflicts; "
        f"fragile sweep {fragile.checked} configs {len(fragile.counterexamples)} non-conflicts; "
        f"{witness_conflicts} first-block witnesses misclassified"
    )
    _verdict("small-conflict characterizations", ok, detail)


def test_always_selected_drop_exactness():
    """200 seeded FAST instances on which the always-selected vertex
    rule fires: the exact optimum is unchanged by the removal."""
    checked = changed = 0
    seed = 0
    while checked < 200:
        r = 2 + seed % 2
        n = 5 + seed % 3
        inst = _planted(Family.FAST, r, n, 9000 + seed, seed % 2)
        seed += 1
        hit = drop_always_selected_vertex(inst)
        if hit is None:
            continue
        reduced, _, _ = hit
        checked += 1
        if oracle.min_inconsistencies(inst).opt != oracle.min_inconsistencies(reduced).opt:
            changed += 1
    detail = f"{checked} applicable instances from {seed} seeds, {changed} optimum changes"
    _verdict("always-selected drop exactness", checked == 200 and changed == 0, detail)


def test_serialization_and_generator_infrastructure():
    """Golden files round-trip byte-identically, regeneration from the
    same spec reproduces instances exactly, and the closed-form count of
    subsets whose ranking-maximum is a given vertex matches enumeration
    on the whole small grid."""
    golden = sorted(GOLDEN_DIR.glob("*.rcsp"))
    bad_roundtrip = 0
    for path in golden:
        text = path.read_text(encoding="ascii")
        inst = fileformat.parse(text)
        if fileformat.serialize(inst) != text or fileformat.parse(fileformat.serialize(inst)) != inst:
            bad_roundtrip += 1

    nondeterministic = 0
    grid = [
        (Family.FAST, 2, GenerationMode.PLANTED, 2),
        (Family.FAST, 3, GenerationMode.UNIFORM, 0),
        (Family.BETWEENNESS, 3, GenerationMode.PLANTED, 3),
        (Family.BETWEENNESS, 4, GenerationMode.UNIFORM, 0),
        (Family.TRANSITIVE_FAST, 3, GenerationMode.PLANTED, 1),
    ]
    for family, r, mode, edits in grid:
        for seed in range(5):
            spec = GeneratorSpec(ProblemKind(family, r), 7, mode, seed, edits=edits)
            if generate(spec) != generate(spec):
                nondeterministic += 1

    closed_form_misses = 0
    cells = 0
    for r in (2, 3, 4):
        for n in range(r, 9):
            rng = SplitMix64(40 * r + n)
            rankings = [
                Ranking.identity(n),
                Ranking(tuple(reversed(range(n)))),
                Ranking(tuple(rng.permutation(n))),
                Ranking(tuple(rng.permutation(n))),
            ]
            for sigma in rankings:
                cells += 1
                direct = [0] * n
                for subset in itertools.combinations(range(n), r):
                    direct[max(subset, key=sigma.pos)] += 1
                if left_counts(sigma, r) != tuple(direct):
                    closed_form_misses += 1

    ok = (
        len(golden) == 5
        and bad_roundtrip == 0
        and nondeterministic == 0
        and closed_form_misses == 0
    )
    detail = (
        f"{len(golden)} golden files, {bad_roundtrip} bad round-trips; "
        f"{nondeterministic} regeneration mismatches; "
        f"{cells} left-count cells, {closed_form_misses} misses"
    )
    _verdict("serialization and generator infrastructure", ok, detail)

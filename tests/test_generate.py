import hashlib
import time
import tracemalloc
from math import comb

import pytest

import reference
from denserank import oracle
from denserank.errors import ConfigError
from denserank.fileformat import serialize
from denserank.generate import GenerationMode, GeneratorSpec, generate, generate_with_details
from denserank.model import Family, OrderedInstance, ProblemKind, fault_count
from denserank.rng import SplitMix64

F2 = ProblemKind(Family.FAST, 2)
B3 = ProblemKind(Family.BETWEENNESS, 3)


def spec_for(family, r=None, n=6, mode=GenerationMode.PLANTED, seed=7, edits=2):
    r = r or (2 if family is Family.FAST else 3)
    return GeneratorSpec(ProblemKind(family, r), n, mode, seed, edits=edits)


class TestSpecValidation:
    def test_n_below_arity(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(B3, 2, GenerationMode.UNIFORM, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        with pytest.raises(ConfigError):
            GeneratorSpec(F2, 5, GenerationMode.UNIFORM, seed)

    def test_negative_edits(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(F2, 5, GenerationMode.PLANTED, 0, edits=-1)

    def test_more_edits_than_constraints(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(F2, 4, GenerationMode.PLANTED, 0, edits=7)

    def test_uniform_takes_no_edits(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(F2, 5, GenerationMode.UNIFORM, 0, edits=1)

    @pytest.mark.parametrize("mode,edits", [(GenerationMode.UNIFORM, 0), (GenerationMode.PLANTED, 1)])
    def test_tfast_draws_reach_arity_twenty_and_stop_at_twenty_one(self, mode, edits):
        # 20! < 2**64 < 21!: a selected datum is one draw below the value count
        t20 = ProblemKind(Family.TRANSITIVE_FAST, 20)
        inst, base, _ = generate_with_details(GeneratorSpec(t20, 21, mode, 3, edits=edits))
        assert inst.n == 21 and len(inst.selected) == 21
        if base is not None:
            assert fault_count(OrderedInstance(inst, base)) == 1
        with pytest.raises(ConfigError, match="more than 2\\*\\*64 selected data"):
            GeneratorSpec(ProblemKind(Family.TRANSITIVE_FAST, 21), 21, mode, 3, edits=edits)


class TestDeterminism:
    def test_same_spec_same_instance(self, any_family):
        spec = spec_for(any_family)
        assert generate(spec) == generate(spec)

    def test_uniform_reproduces_too(self, any_family):
        spec = spec_for(any_family, mode=GenerationMode.UNIFORM, edits=0)
        assert generate(spec) == generate(spec)

    def test_seeds_decorrelate(self, any_family):
        a = generate(spec_for(any_family, seed=1))
        b = generate(spec_for(any_family, seed=2))
        assert a != b


class TestPlantedStructure:
    def test_base_ranking_faults_are_exactly_the_targets(self, any_family):
        spec = spec_for(any_family, n=7, edits=3)
        inst, base, targets = generate_with_details(spec)
        assert len(targets) == 3 and len(set(targets)) == 3
        for c in reference.constraints(inst):
            assert reference.evaluate(inst.kind, c, base) == (c.members not in targets)
        assert fault_count(OrderedInstance(inst, base)) == 3

    def test_zero_edits_is_consistent(self, any_family):
        inst = generate(spec_for(any_family, edits=0))
        assert oracle.min_inconsistencies(inst).opt == 0

    def test_planted_optimum_never_exceeds_the_edit_count(self, any_family):
        for seed in range(5):
            inst = generate(spec_for(any_family, n=6, seed=seed, edits=2))
            assert oracle.min_inconsistencies(inst).opt <= 2


class TestUniform:
    def test_details_carry_no_planting(self):
        inst, base, targets = generate_with_details(
            GeneratorSpec(F2, 6, GenerationMode.UNIFORM, 3)
        )
        assert base is None and targets == ()
        assert inst.constraint_count() == 15

    def test_values_spread_across_the_range(self):
        # a frozen pick: both orientations of some pair must appear
        inst = generate(GeneratorSpec(F2, 8, GenerationMode.UNIFORM, 12))
        sels = {c.selected == max(c.members) for c in reference.constraints(inst)}
        assert sels == {True, False}


PLANTED, UNIFORM = GenerationMode.PLANTED, GenerationMode.UNIFORM
GRID_KINDS = [
    ProblemKind(family, r)
    for family, arities in (
        (Family.FAST, range(2, 6)),
        (Family.BETWEENNESS, range(3, 6)),
        (Family.TRANSITIVE_FAST, range(3, 7)),
    )
    for r in arities
]


def _grid_specs(kind):
    r = kind.r
    for n in (r, r + 1, r + 3, 12):
        for seed in range(6):
            yield GeneratorSpec(kind, n, PLANTED, seed, edits=min(3, comb(n, r)))
            yield GeneratorSpec(kind, n, UNIFORM, seed)
        yield GeneratorSpec(kind, n, PLANTED, 0, edits=comb(n, r))


# one slot shape of each perfbench workload, at its generator's seed size
PERFBENCH_SPECS = [
    GeneratorSpec(ProblemKind(Family.BETWEENNESS, 4), 9, PLANTED, 2**63 + 11, edits=3),
    GeneratorSpec(ProblemKind(Family.FAST, 3), 36, PLANTED, 2**64 - 3, edits=9),
    GeneratorSpec(ProblemKind(Family.TRANSITIVE_FAST, 3), 18, PLANTED, 12345, edits=4),
    GeneratorSpec(ProblemKind(Family.FAST, 2), 300, UNIFORM, 2**40 + 7),
]


class TestDrawOrder:
    """The generator against the per-subset reference it replaced: the
    same draws must give the same bytes, planted targets and base."""

    @staticmethod
    def _same(spec):
        inst, base, targets = generate_with_details(spec)
        ref, ref_base, ref_targets = reference.generate_with_details(spec)
        assert serialize(inst) == serialize(ref), spec
        assert (base, targets) == (ref_base, ref_targets), spec

    @pytest.mark.parametrize("kind", GRID_KINDS, ids=lambda k: f"{k.family.value}{k.r}")
    def test_grid_matches_the_reference(self, kind):
        for spec in _grid_specs(kind):
            self._same(spec)

    @pytest.mark.parametrize("spec", PERFBENCH_SPECS, ids=lambda s: f"{s.kind.family.value}{s.kind.r}-{s.n}")
    def test_perfbench_shapes_match_the_reference(self, spec):
        self._same(spec)

    def test_tfast_r10_lists_no_member_orders(self):
        # frozen once from the reference generator, which lists all 10!
        # member orders per constraint (about 1 GB and 13 s for these four)
        t10 = ProblemKind(Family.TRANSITIVE_FAST, 10)
        specs = [
            GeneratorSpec(t10, n, mode, 7, edits)
            for n in (10, 11)
            for mode, edits in ((PLANTED, n - 9), (UNIFORM, 0))
        ]
        start = time.perf_counter()
        tracemalloc.start()
        try:
            instances = [generate(spec) for spec in specs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 5 * 2**20
        digest = hashlib.sha256("".join(map(serialize, instances)).encode()).hexdigest()
        assert digest == "1cb4dd41d48b890a59c20d07f5d4ef4c2d1ec37148559bc1652379facd2973b1"


class TestBlockDraws:
    @pytest.mark.parametrize("bound", [2**64, 2**64 - 1, 2**63 + 1, 2**16, 1, 3, 720])
    @pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
    def test_below_many_equals_scalar_draws(self, bound, seed):
        # 2**63 + 1 rejects about half the words; a power of two never
        # rejects, and 2**64 returns every word as it is
        for count in (0, 1, 40):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            values = block.below_many(bound, count)
            assert values.tolist() == [scalar.below(bound) for _ in range(count)]
            assert block.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**65])
    def test_both_draws_reject_a_bound_outside_one_to_two_to_the_64(self, bound):
        # past 2**64 the rejection limit is 0, so the scalar draw used to loop forever
        with pytest.raises(ValueError, match="bound must lie in"):
            SplitMix64(0).below(bound)
        with pytest.raises(ValueError, match="bound must lie in"):
            SplitMix64(0).below_many(bound, 3)

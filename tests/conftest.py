import itertools

import pytest

from denserank.characterize import single_fault_config, violating_selected_values
from denserank.generate import GenerationMode, GeneratorSpec, generate
from denserank.model import (
    Constraint,
    Family,
    Instance,
    ProblemKind,
    Ranking,
    satisfied_selected,
)


# Every kind the file format and the batch forms are checked on.
FORMAT_KINDS = [
    ProblemKind(family, r)
    for family, arities in (
        (Family.FAST, (2, 3, 4)),
        (Family.BETWEENNESS, (3, 4)),
        (Family.TRANSITIVE_FAST, (3, 4)),
    )
    for r in arities
]


def make_kind(family, r):
    return ProblemKind(family, r)


def consistent_instance(kind, n, sigma=None):
    """Instance whose every constraint agrees with sigma."""
    if sigma is None:
        sigma = Ranking.identity(n)
    subsets = itertools.combinations(range(n), kind.r)
    return Instance(n, kind, [Constraint(m, satisfied_selected(kind, m, sigma)) for m in subsets])


def first_block_witness(kind, size):
    """The known FAST non-conflict shape: one fault on the first r
    consecutive vertices of an identity-ordered instance."""
    members = tuple(range(kind.r))
    values = violating_selected_values(kind, members, Ranking.identity(size))
    return single_fault_config(kind, size, members, values[0])


@pytest.fixture
def planted():
    """Factory for seeded planted instances."""

    def build(family, r, n, seed, edits):
        spec = GeneratorSpec(ProblemKind(family, r), n, GenerationMode.PLANTED, seed, edits=edits)
        return generate(spec)

    return build


@pytest.fixture
def uniform():
    """Factory for seeded uniform instances."""

    def build(family, r, n, seed):
        return generate(GeneratorSpec(ProblemKind(family, r), n, GenerationMode.UNIFORM, seed))

    return build


@pytest.fixture(params=[Family.BETWEENNESS, Family.FAST, Family.TRANSITIVE_FAST])
def any_family(request):
    return request.param

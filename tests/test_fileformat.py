import pytest
from hypothesis import given, settings, strategies as st

from conftest import consistent_instance
from denserank.errors import (
    DuplicateRecordError,
    HeaderError,
    RecordCountError,
    RecordSyntaxError,
    SelectedValueError,
    UnknownFamilyError,
)
from denserank.fileformat import dump, load, parse, serialize
from denserank.generate import GenerationMode, GeneratorSpec, generate
from denserank.model import Family, ProblemKind

F2 = ProblemKind(Family.FAST, 2)
B3 = ProblemKind(Family.BETWEENNESS, 3)
T3 = ProblemKind(Family.TRANSITIVE_FAST, 3)


class TestRoundTrips:
    def test_parse_of_serialize_is_identity(self, planted, any_family):
        r = 2 if any_family is Family.FAST else 3
        inst = planted(any_family, r, 6, 9, 2)
        assert parse(serialize(inst)) == inst

    def test_serialize_of_parse_is_identity_on_canonical_text(self):
        text = serialize(consistent_instance(T3, 5))
        assert serialize(parse(text)) == text

    def test_record_order_does_not_matter(self):
        lines = serialize(consistent_instance(B3, 5)).splitlines()
        shuffled = [lines[0]] + lines[1:][::-1]
        assert parse("\n".join(shuffled) + "\n") == consistent_instance(B3, 5)

    def test_files_round_trip(self, tmp_path, planted):
        inst = planted(Family.FAST, 3, 6, 0, 1)
        path = tmp_path / "inst.rcsp"
        dump(inst, str(path))
        assert load(str(path)) == inst

    def test_header_and_record_shapes(self):
        text = serialize(consistent_instance(F2, 3))
        assert text.splitlines() == ["rcsp 1 fast 3 2", "0 1 1", "0 2 2", "1 2 2"]


def header_only(tag="fast", n=4, r=2):
    return f"rcsp 1 {tag} {n} {r}\n"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "rcsp 2 fast 4 2\n", "csp 1 fast 4 2\n", "rcsp 1 fast 4\n", "rcsp 1 fast four 2\n"],
    )
    def test_header_shape(self, text):
        with pytest.raises(HeaderError) as err:
            parse(text)
        assert err.value.line == 1

    @pytest.mark.parametrize("n,r", [(4, 1), (2, 3)])
    def test_header_bounds(self, n, r):
        with pytest.raises(HeaderError):
            parse(header_only(n=n, r=r))

    def test_family_tag(self):
        with pytest.raises(UnknownFamilyError) as err:
            parse(header_only(tag="linear"))
        assert err.value.line == 1

    def test_family_arity_mismatch(self):
        # betweenness starts at width three
        with pytest.raises(HeaderError):
            parse(header_only(tag="betweenness", r=2))

    @pytest.mark.parametrize(
        "record", ["0 1", "0 1 1 1", "0 x 1", "0 9 9", "1 0 1", "0 0 0"]
    )
    def test_record_shape(self, record):
        with pytest.raises(RecordSyntaxError) as err:
            parse(header_only() + record + "\n")
        assert err.value.line == 2

    def test_duplicate_subset(self):
        text = header_only(n=3) + "0 1 1\n0 2 2\n0 1 0\n"
        with pytest.raises(DuplicateRecordError) as err:
            parse(text)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "tag,record",
        [
            ("fast", "0 1 3"),
            ("betweenness", "0 1 2 0 3"),
            ("betweenness", "0 1 2 2 0"),
            ("tfast", "0 1 2 0 1 1"),
        ],
    )
    def test_selected_values(self, tag, record):
        r = 2 if tag == "fast" else 3
        with pytest.raises(SelectedValueError) as err:
            parse(header_only(tag=tag, r=r) + record + "\n")
        assert err.value.line == 2

    def test_missing_record_names_the_gap(self):
        text = header_only(n=3) + "0 1 1\n1 2 2\n"
        with pytest.raises(RecordCountError) as err:
            parse(text)
        assert "(0, 2)" in str(err.value)
        assert err.value.line == 4


FORMAT_KINDS = [
    ProblemKind(family, r)
    for family, arities in (
        (Family.FAST, (2, 3, 4)),
        (Family.BETWEENNESS, (3, 4)),
        (Family.TRANSITIVE_FAST, (3, 4)),
    )
    for r in arities
]


def drawn_instance(data, min_extra=0):
    kind = data.draw(st.sampled_from(FORMAT_KINDS), label="kind")
    n = data.draw(st.integers(kind.r + min_extra, 8), label="n")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    return generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, seed))


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_parse_inverts_serialize(data):
    inst = drawn_instance(data)
    assert parse(serialize(inst)) == inst


def _bad_selected(kind, n, members, selected):
    if kind.family is Family.FAST:
        return [next(v for v in range(n + 1) if v not in members)]
    if kind.family is Family.BETWEENNESS:
        return selected[::-1]
    return selected[1:2] + selected[1:]


MUTATIONS = ("member-range", "member-order", "duplicate", "selected", "dropped", "token-count")


@settings(derandomize=True, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_each_single_record_change_is_rejected_at_its_line(mutation, data):
    inst = drawn_instance(data, min_extra=1)
    kind, r = inst.kind, inst.r
    lines = serialize(inst).splitlines()
    i = data.draw(st.integers(1, len(lines) - 1), label="record line index")
    values = [int(t) for t in lines[i].split()]
    members, selected = values[:r], values[r:]
    line = i + 1
    if mutation == "member-range":
        members[data.draw(st.integers(0, r - 1), label="slot")] = inst.n
        expected = RecordSyntaxError
    elif mutation == "member-order":
        members = members[::-1]
        expected = RecordSyntaxError
    elif mutation == "duplicate":
        j = data.draw(st.integers(1, len(lines) - 2), label="copied line index")
        j += j >= i
        copied = [int(t) for t in lines[j].split()]
        members, selected = copied[:r], copied[r:]
        line = max(i, j) + 1
        expected = DuplicateRecordError
    elif mutation == "selected":
        selected = _bad_selected(kind, inst.n, members, selected)
        expected = SelectedValueError
    elif mutation == "token-count":
        selected = selected + [0] if data.draw(st.booleans(), label="longer") else selected[:-1]
        expected = RecordSyntaxError
    if mutation == "dropped":
        del lines[i]
        line = len(lines) + 1
        expected = RecordCountError
    else:
        lines[i] = " ".join(str(v) for v in members + selected)
    with pytest.raises(expected) as err:
        parse("\n".join(lines) + "\n")
    assert type(err.value) is expected
    assert err.value.line == line

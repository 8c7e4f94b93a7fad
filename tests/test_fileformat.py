
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import FORMAT_KINDS, consistent_instance
from denserank import fileformat
from denserank.errors import (
    DuplicateRecordError,
    HeaderError,
    ParseError,
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


# Kinds and sizes whose files span three or more tokenizer blocks of
# LARGE_BLOCK_CHARS characters.
LARGE_BLOCK_CHARS = 6_000
LARGE = [
    (ProblemKind(Family.FAST, 2), 100),
    (ProblemKind(Family.FAST, 3), 26),
    (B3, 26),
    (ProblemKind(Family.BETWEENNESS, 4), 16),
    (T3, 26),
]


def _line(data, lines, label, end=0):
    """A line index from 1 to len(lines) - 1 + end.  The drawn word is
    scrambled first: hypothesis favours small draws, which would put
    nearly every change in the first tokenizer block."""
    word = data.draw(st.integers(0, 2**64 - 1), label=label)
    return 1 + word * 0x9E3779B97F4A7C15 % 2**64 % (len(lines) - 1 + end)


def _tokens(data, lines, label="line"):
    """A record line's index and its tokens, or None if the file has none."""
    if len(lines) < 2:
        return None
    i = _line(data, lines, label)
    return i, lines[i].split()


DIFF_MUTATIONS = (
    "token-count", "non-integer", "20-digit", "plus", "underscore",
    "tab", "double-space", "trailing-space", "blank-line",
    "member-range", "member-order", "duplicate", "selected", "dropped", "moved",
    "18-digit", "19-digit", "leading-zeros", "lone-cr", "vt-ff", "non-ascii", "header",
)

# The n a changed header claims for a file of n vertices.
HEADER_CLAIMS = (lambda n: n + 1, lambda n: 10 * n, lambda n: 10**6, lambda n: 2**64 + 5)


def _mutate(data, lines, kind, n, mutation=None):
    """Apply one change to `lines` in place, of a drawn kind unless given."""
    r = kind.r
    if mutation is None:
        mutation = data.draw(st.sampled_from(DIFF_MUTATIONS), label="mutation")
    if mutation == "header":
        # a claim of more subsets than the records: a walk that runs out of
        # records, or no table at all, and past n = 2^63 ids beyond int64
        head = lines[0].split()
        head[3] = str(data.draw(st.sampled_from(HEADER_CLAIMS), label="claim")(n))
        lines[0] = " ".join(head)
        return
    if mutation == "blank-line":
        lines.insert(_line(data, lines, "at", end=1), "")
        return
    if mutation == "moved" and len(lines) > 2:
        line = lines.pop(_line(data, lines, "from"))
        lines.insert(_line(data, lines, "to", end=1), line)
        return
    if mutation == "dropped" and len(lines) > 1:
        del lines[_line(data, lines, "dropped")]
        return
    drawn = _tokens(data, lines)
    if drawn is None or not drawn[1]:
        return
    i, tokens = drawn
    slot = data.draw(st.integers(0, len(tokens) - 1), label="slot")
    if mutation == "token-count":
        tokens = tokens[:-1] if data.draw(st.booleans(), label="shorter") else tokens + ["0"]
    elif mutation == "non-integer":
        tokens[slot] = data.draw(st.sampled_from(["x", "1.0", "0x1", "1e3", "--1"]))
    elif mutation == "20-digit":
        tokens[slot] = data.draw(st.sampled_from(["12345678901234567890", "-99999999999999999999"]))
    elif mutation == "18-digit":
        tokens[slot] = data.draw(st.sampled_from(["123456789012345678", "999999999999999999"]))
    elif mutation == "19-digit":
        tokens[slot] = data.draw(
            st.sampled_from(["9223372036854775807", "9223372036854775808", "1000000000000000000"])
        )
    elif mutation == "leading-zeros":
        # 17 zeros make a one-digit token 18 digits long, 18 make it 19
        tokens[slot] = "0" * data.draw(st.sampled_from([1, 2, 17, 18]), label="zeros") + tokens[slot]
    elif mutation == "plus":
        tokens[slot] = "+" + tokens[slot]
    elif mutation == "underscore":
        tokens[slot] = "0_" + tokens[slot]
    elif mutation == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
        return
    elif mutation in ("lone-cr", "vt-ff", "non-ascii"):
        separator = {"lone-cr": ["\r"], "vt-ff": ["\x0b", "\x0c"], "non-ascii": ["\xa0", "\u2028"]}
        lines[i] = lines[i].replace(" ", data.draw(st.sampled_from(separator[mutation])), 1)
        return
    elif mutation == "double-space":
        lines[i] = lines[i].replace(" ", "  ", 1)
        return
    elif mutation == "trailing-space":
        lines[i] += " "
        return
    elif mutation == "member-range":
        tokens[data.draw(st.integers(0, r - 1), label="member")] = str(
            data.draw(st.sampled_from([n, -1]), label="outside")
        )
    elif mutation == "member-order":
        tokens[:r] = tokens[:r][::-1]
    elif mutation == "duplicate":
        tokens = _tokens(data, lines, "copied")[1]
    elif mutation == "selected":
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            return
        tokens = tokens[:r] + [str(v) for v in _bad_selected(kind, n, values[:r], values[r:])]
    lines[i] = " ".join(tokens)


def _outcome(read, text):
    """What `read` makes of `text`: the instance's table bytes, or the error."""
    try:
        inst = read(text)
    except ParseError as err:
        return type(err), err.line, str(err)
    table = inst.selected
    return inst.n, inst.kind, table.dtype, table.shape, table.tobytes(), table.flags.writeable


def _agrees_with_the_line_by_line_reader(data, forced=None):
    """Draw a file, change it (first by the `forced` kind of change, if
    given), and read it both ways."""
    block_chars = fileformat.BLOCK_CHARS
    if data.draw(st.booleans(), label="large"):
        kind, n = data.draw(st.sampled_from(LARGE), label="kind and n")
        inst = generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, 0))
        block_chars = LARGE_BLOCK_CHARS
        assert len(serialize(inst)) > 2 * block_chars
    else:
        inst = drawn_instance(data)
    lines = serialize(inst).splitlines()
    if forced is not None:
        _mutate(data, lines, inst.kind, inst.n, forced)
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        _mutate(data, lines, inst.kind, inst.n)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    text = newline.join(lines) + newline * data.draw(st.integers(0, 1), label="final newline")
    with mock.patch.object(fileformat, "BLOCK_CHARS", block_chars):
        assert _outcome(parse, text) == _outcome(reference.parse, text)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_parse_agrees_with_the_line_by_line_reader(data):
    _agrees_with_the_line_by_line_reader(data)


# Drawn kinds of change come unevenly, some never; these make each
# kind at least once, then draw more as above.
@pytest.mark.parametrize("mutation", DIFF_MUTATIONS)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_parse_agrees_with_the_line_by_line_reader_after_each_kind_of_change(mutation, data):
    _agrees_with_the_line_by_line_reader(data, mutation)


@pytest.mark.parametrize(
    "records",
    [
        "0 1 1 0\n1 2\n0 2 2\n",  # the right token total, split wrongly between lines
        "0 1\n1 2 2 2\n0 2 2\n",
        "0 1 1\n0 2 2\n1 2 2 1\n",
        " 0  1 1 \n0 2 2\n1 2 2",  # extra spaces, no final line feed
        "0 1 1\n\n0 2 2\n1 2 2\n",
        "0 1 1\n0 2 2\n1 2 2\n\n",
        "000 001 001\n0 2 2\n1 2 2\n",
        "0 1 000000000000000001\n0 2 2\n1 2 2\n",  # 18 digits
        "0 1 0000000000000000001\n0 2 2\n1 2 2\n",  # 19 digits, in range
        "0 1 9223372036854775807\n0 2 2\n1 2 2\n",
        "0 1 9223372036854775808\n0 2 2\n1 2 2\n",
        "0 1 18446744073709551617\n0 2 2\n1 2 2\n",  # 2**64 + 1, which int64 would wrap to 1
        "0 1 1\n0 2 2\n1 2 99999999999999999999999\n",
        "0 1 1\n0 2 2\n1 2\x0c2\n",
    ],
)
def test_plain_blocks_agree_with_the_line_by_line_reader(records):
    text = header_only(n=3) + records
    assert _outcome(parse, text) == _outcome(reference.parse, text)


@pytest.mark.parametrize("claim", HEADER_CLAIMS)
@pytest.mark.parametrize("kind,n", [(F2, 6), (T3, 5), LARGE[1]])
@pytest.mark.parametrize("change", ["none", "duplicate", "dropped"])
def test_headers_that_claim_more_subsets_agree_with_the_line_by_line_reader(claim, kind, n, change):
    lines = serialize(generate(GeneratorSpec(kind, n, GenerationMode.UNIFORM, 0))).splitlines()
    lines[0] = lines[0].replace(f" {n} ", f" {claim(n)} ")
    middle = len(lines) // 2
    if change == "duplicate":
        lines[middle] = lines[1]
    elif change == "dropped":
        del lines[middle]
    text = "\n".join(lines) + "\n"
    with mock.patch.object(fileformat, "BLOCK_CHARS", LARGE_BLOCK_CHARS):
        assert _outcome(parse, text) == _outcome(reference.parse, text)


def test_files_of_several_full_blocks_read_alike_by_bytes_and_by_str():
    inst = generate(GeneratorSpec(F2, 190, GenerationMode.UNIFORM, 0))
    text = serialize(inst)
    assert len(text) > 2 * fileformat.BLOCK_CHARS
    assert parse(text) == inst
    assert parse(text.replace("\n", "\r\n")) == inst  # no block is plain
    lines = text.splitlines()
    last = len(lines) - 1
    for i, record in [(last, "0 1 1"), (last // 2, "1 2 3 4"), (last - 1, lines[1]), (last // 3, "0 1 x")]:
        changed = "\n".join(lines[:i] + [record] + lines[i + 1 :]) + "\n"
        assert _outcome(parse, changed) == _outcome(reference.parse, changed)


def test_a_valid_file_is_placed_block_by_block():
    # each block is checked and placed as it is read, so parsing never
    # holds one int64 table of every record (4 fields x 82,160 records)
    kind = ProblemKind(Family.FAST, 3)
    inst = generate(GeneratorSpec(kind, 80, GenerationMode.PLANTED, 0, edits=5))
    text = serialize(inst)
    whole_table = 4 * inst.constraint_count() * 8
    tracemalloc.start()
    try:
        parsed = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == inst
    assert peak < whole_table


def test_an_invalid_file_is_read_line_by_line_in_one_block_at_most():
    # the walk stops at the block that repeats a subset and reads only that
    # block again, so parsing builds no table of every record either
    kind = ProblemKind(Family.FAST, 3)
    inst = generate(GeneratorSpec(kind, 80, GenerationMode.PLANTED, 0, edits=5))
    text = serialize(inst)
    lines = text.splitlines()
    text += lines[-1] + "\n"
    whole_table = 4 * inst.constraint_count() * 8
    block_lines = max(chunk.count("\n") for chunk in fileformat._chunks(text, len(lines[0]) + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DuplicateRecordError) as err:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == len(lines) + 1
    assert peak < whole_table
    with mock.patch.object(fileformat, "_record_error", wraps=fileformat._record_error) as checked:
        with pytest.raises(DuplicateRecordError):
            parse(text)
    assert 0 < checked.call_count <= block_lines

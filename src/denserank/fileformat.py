"""Plain-text instance files.

Line 1 is the header: ``rcsp 1 <family> <n> <r>`` with family one of
``betweenness``, ``fast``, ``tfast``.  Every following line is one
constraint record, space-separated integers: the r members in increasing
order, then the selected data (one id for fast, an increasing pair for
betweenness, a permutation of the members for tfast).  A file holds
exactly one record per r-subset; writers emit them in lexicographic
member order, readers accept any order.

`parse` reads the records a block of lines at a time into int64 tables
with one row per field.  A block in the form `serialize` writes,
only ASCII digits, spaces and line feeds, is tokenized on its bytes with
numpy: tokens are the runs of digits, each line must hold exactly as
many as a record has fields, and values are built digit by digit, in
the narrowest integer type that holds the block's longest token (int16
up to 4 digits, int32 up to 9, else int64), then cast to int64 once.
Any other block (tabs, carriage returns or other line breaks, signs,
`_`, non-ASCII characters, tokens of 19 or more digits, ids past the
int64 range) is split and converted as `str`, so it is read as before
and fails as before.  `parse` runs each check over a whole block at
once: member range, strictly increasing members and valid selected
data, then lexicographic subset ranks, which place each record and show
whether a subset repeats one of an earlier block or of its own.  Blocks
are placed as they are read, so a file is never held as one table of
all its records, and the walk stops at the first block that fails a
check.  While each block holds exactly the ranks that follow the blocks
before it, 0, 1, 2, ... as `serialize` writes them, it is copied in as
one slice: it can repeat no subset.  From the first block that does
not, each block's subsets are marked, which is how a repeat shows, and
its records are put at their ranks.  Only a block that fails a check is
read again, line by line, in the order a line is checked: token count,
integer tokens, member range, member order, duplicate, selected data.
A file that passes every block but holds fewer than C(n, r) records is
missing the subset of the first unset rank.  So every error is the one
a line-by-line read raises first.  A header that claims more table
cells than the file has characters builds no table: its records are
read line by line from the first one.

`serialize` writes every field, member or selected, as an id below n:
it gathers each id's row of a per-id digit table (the digits after
padding bytes, then a space), makes each record's last space a line
feed, drops the padding with one mask and decodes the bytes once.

Serializing then parsing is the identity on instances, and parsing then
serializing is the identity on canonically ordered files.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DuplicateRecordError,
    HeaderError,
    InstanceReadError,
    InvalidConstraintError,
    ParseError,
    RecordCountError,
    RecordSyntaxError,
    SelectedValueError,
    UnknownFamilyError,
)
from .model import (
    Family,
    Instance,
    ProblemKind,
    batch_valid,
    nth_combination,
    selected_datum,
    selected_width,
    subsets,
    validate_constraint,
)

MAGIC = "rcsp"
VERSION = "1"
# Characters per tokenizer block, about 3,000 record lines of the benchmark
# files.  A plain block (see `_convert`) pays a fixed numpy cost per block
# and a little per byte, and its temporary arrays take about 19 bytes per
# character.  On a uniform `fast` r = 2, n = 300 file (489,000 characters)
# parse took 6.4 ms with blocks of 6,000 characters, 3.0 ms with 32,768,
# 2.7 ms with 65,536 and 3.1 ms with 131,072, against 23 ms with every
# block read as str (medians on a shared 2-core VM).  65,536 also raised
# the peak RSS of the benchmark's kernelize-fast workload by 0.5 MB over
# 32,768.  Any other block goes through `str.split`, which keeps every
# token of the block alive as a str at once, about 0.6 MB.
BLOCK_CHARS = 32_768
# The bytes of a plain block, and its longest token: 18 digits always fit
# in int64, 19 may not.
_PLAIN = b"0123456789 \n"
PLAIN_DIGITS = 18
# The narrowest integer type that holds every number of up to i digits.
_SUM_TYPES = [np.int16] * 5 + [np.int32] * 5 + [np.int64] * (PLAIN_DIGITS - 9)

_TAGS = {family.value: family for family in Family}


def serialize(inst: Instance) -> str:
    header = f"{MAGIC} {VERSION} {inst.kind.family.value} {inst.n} {inst.kind.r}\n"
    # Every field, member or selected, is an id below n: the records are
    # rows of one digit table gathered in record order, with the padding
    # dropped and each record's last space made a line feed.
    ids = _id_digits(inst.n)
    r, selected = inst.r, inst.selected
    chars = np.empty((len(selected), r + selected.shape[1], ids.shape[1]), dtype=np.uint8)
    np.take(ids, subsets(inst.n, r), axis=0, out=chars[:, :r])
    np.take(ids, selected, axis=0, out=chars[:, r:])
    chars[:, -1, -1] = ord("\n")
    text = chars.ravel()
    return header + str(memoryview(text[text != 0]), "ascii")


def _id_digits(n: int) -> np.ndarray:
    """The (n, digits + 1) uint8 table whose row v holds the decimal digits
    of id v right-aligned after NUL bytes, then a space."""
    digits = len(str(n - 1))
    text = "".join([str(v).rjust(digits, "\0") + " " for v in range(n)])
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(n, digits + 1)


def _chunks(text: str, start: int) -> Iterator[str]:
    """`text[start:]` in blocks of about BLOCK_CHARS characters.  Each
    block ends just after a line feed, which ends a line whatever comes
    before it, so the blocks' lines are exactly the text's lines."""
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _convert(chunk: str, width: int) -> Optional[np.ndarray]:
    """The record lines of `chunk` as one contiguous (width, lines) int64
    table, one row per field, or None when a line has another token count
    or a token int64 cannot hold.  A plain block, one that holds only
    ASCII digits, spaces and line feeds and no token of more than
    PLAIN_DIGITS digits, is tokenized on its bytes; any other goes through
    `_convert_text`, which returns the same for a plain one."""
    if not chunk.isascii():
        return _convert_text(chunk, width)
    data = chunk.encode("ascii")
    if data.translate(None, _PLAIN):
        return _convert_text(chunk, width)
    text = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(text) + 2, dtype=np.int8)
    digit[1:-1] = text >= ord("0")  # digits are the only plain bytes above the space
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = edges[0::2], edges[1::2]  # each token is text[start:end]
    lengths = ends - starts
    longest = int(lengths.max(initial=0))
    if longest > PLAIN_DIGITS:
        return _convert_text(chunk, width)
    feeds = np.flatnonzero(text == ord("\n"))
    lines = len(feeds) + (len(data) > 0 and data[-1] != ord("\n"))
    if len(starts) != lines * width:
        return None
    # Tokens are in text order, so every line holds `width` of them exactly
    # when each line's share, tokens width*i to width*i + width - 1, starts
    # after line feed i - 1 and ends before line feed i.
    if (starts[width::width] < feeds[: lines - 1]).any() or (
        ends[width - 1 :: width][: len(feeds)] > feeds
    ).any():
        return None
    # Horner over the tokens' digits aligned at their ends, after `longest`
    # leading zeros so that no index falls before the text: a token shorter
    # than `back` reads a 0 there, as if it had leading zeros.  The sums
    # stay below 10**longest, so they run in the narrowest type that holds
    # that.
    digits = np.zeros(longest + len(text), dtype=np.uint8)
    np.subtract(text, np.uint8(ord("0")), out=digits[longest:])
    ends = ends + longest
    values = np.zeros(len(starts), dtype=_SUM_TYPES[longest])
    for back in range(longest, 0, -1):
        term = digits[ends - back]
        if back > 1:  # every token has a last digit
            term *= lengths >= back
        values *= 10
        values += term
    # row-wise checks over a strided table cost several times more
    return np.ascontiguousarray(values.reshape(-1, width).T, dtype=np.int64)


def _convert_text(chunk: str, width: int) -> Optional[np.ndarray]:
    """`_convert` by `str.split` and `int`, for any block."""
    counts = list(map(len, map(str.split, chunk.splitlines())))
    if counts.count(width) != len(counts):
        return None
    tokens = chunk.split()  # line ends are whitespace too
    try:
        return np.ascontiguousarray(np.array(tokens, dtype=np.int64).reshape(-1, width).T)
    except (ValueError, OverflowError):
        return None


def _block_ranks(kind: ProblemKind, n: int, block: np.ndarray) -> Optional[np.ndarray]:
    """The subset ranks of the records of a (width, lines) table, or None
    when one of them is invalid."""
    members, selected = block[: kind.r], block[kind.r :]
    if ((members >= 0) & (members < n)).all() and batch_valid(kind, members, selected).all():
        return Instance._ranks(n, kind.r, members)
    return None


def _placed(chunks: Iterable[str], kind: ProblemKind, n: int, width: int) -> np.ndarray:
    """The (C(n, r), width - r) selected table in subset order, when the
    record lines of `chunks` hold each r-subset exactly once in valid
    records; else raises the first error of a line-by-line read.  Each
    block is checked and placed as it is converted, so no table of every
    record is held, and only a block that fails a check is read again.
    While the blocks hold ranks 0, 1, 2, ... in order, each is copied in
    as one slice; from the first block that does not, every block's
    subsets are marked and its rows put at their ranks."""
    r = kind.r
    total = comb(n, r)
    placed = np.full((total, width - r), -1, dtype=np.int64)  # -1: not placed yet
    seen = None  # the subsets of every block converted, once out of order
    records = 0
    for chunk in chunks:
        block = _convert(chunk, width)
        ranks = None if block is None else _block_ranks(kind, n, block)
        if seen is None:
            if ranks is not None and (ranks == np.arange(records, records + len(ranks))).all():
                placed[records : records + len(ranks)] = block[r:].T
                records += len(ranks)
                continue
            seen = np.zeros(total, dtype=bool)
            seen[:records] = True  # the in-order blocks held exactly these
        if ranks is not None:
            seen[ranks] = True
        # a subset repeated in the block or from an earlier one adds no mark
        if ranks is None or np.count_nonzero(seen) < records + len(ranks):
            # every earlier line is a record, so the block starts on line records + 2
            raise _line_error(kind, n, chunk, records + 2, set(), placed[:, 0] >= 0)
        for column, values in zip(placed.T, block[r:]):
            np.put(column, ranks, values)  # unlike `column[ranks] = values`, buffers nothing
        records += len(ranks)
    if records < total:
        first = records if seen is None else int(np.argmin(seen))
        raise _count_error(n, r, records, nth_combination(n, r, first))
    return placed


def _line_error(
    kind: ProblemKind, n: int, text: str, lineno: int, earlier: set, seen: Optional[np.ndarray]
) -> Optional[ParseError]:
    """The first error of a line-by-line read of `text`, whose first line
    is line `lineno`, or None; `earlier` gains the members of each record
    read.  A subset repeats when `earlier` holds it or `seen`, unless
    None, marks its rank."""
    for lineno, raw in enumerate(text.splitlines(), start=lineno):
        error = _record_error(kind, n, raw, lineno, earlier, seen)
        if error is not None:
            return error
    return None


def _record_error(
    kind: ProblemKind, n: int, raw: str, lineno: int, earlier: set, seen: Optional[np.ndarray]
) -> Optional[ParseError]:
    """The error of the first per-record check that `raw` fails, or None,
    and then `earlier` gains its members; duplicates as in `_line_error`."""
    tokens = raw.split()
    width = kind.r + selected_width(kind)
    if len(tokens) != width:
        return RecordSyntaxError(f"expected {width} integers, got {len(tokens)}", lineno)
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        return RecordSyntaxError(f"non-integer token in {raw!r}", lineno)
    r = kind.r
    members = tuple(values[:r])
    if any(not 0 <= v < n for v in members):
        return RecordSyntaxError(f"member outside 0..{n - 1} in {members}", lineno)
    if any(members[i] >= members[i + 1] for i in range(r - 1)):
        return RecordSyntaxError(f"members not strictly increasing: {members}", lineno)
    if members in earlier or seen is not None and seen[Instance._rank(n, r, members)]:
        return DuplicateRecordError(f"second record for subset {members}", lineno)
    try:
        validate_constraint(kind, members, selected_datum(kind, values[r:]))
    except InvalidConstraintError as err:
        return SelectedValueError(str(err), lineno)
    earlier.add(members)
    return None


def _count_error(n: int, r: int, records: int, missing: tuple[int, ...]) -> RecordCountError:
    """The error of a file whose `records` record lines are distinct valid
    subsets, fewer than C(n, r), the first of those absent being `missing`."""
    return RecordCountError(
        f"{records} records, expected {comb(n, r)}; first missing subset {missing}", records + 2
    )


def parse(text: str) -> Instance:
    # the first line, with its end, is in the text up to the first line feed
    lines = text[: text.find("\n") + 1 or len(text)].splitlines(keepends=True)[:1]
    if not lines:
        raise HeaderError("empty file", 1)
    (header,) = lines[0].splitlines()
    head = header.split()
    if len(head) != 5 or head[0] != MAGIC or head[1] != VERSION:
        raise HeaderError(f"expected '{MAGIC} {VERSION} <family> <n> <r>', got {header!r}", 1)
    if head[2] not in _TAGS:
        raise UnknownFamilyError(f"unknown family tag {head[2]!r}", 1)
    try:
        n, r = int(head[3]), int(head[4])
    except ValueError:
        raise HeaderError(f"n and r must be integers, got {head[3]!r} {head[4]!r}", 1) from None
    if r < 2 or n < r:
        raise HeaderError(f"need n >= r >= 2, got n={n} r={r}", 1)
    try:
        kind = ProblemKind(_TAGS[head[2]], r)
    except Exception:
        raise HeaderError(f"family {head[2]} does not admit arity {r}", 1) from None

    width = r + selected_width(kind)
    start = len(lines[0])
    # the walk's tables hold at most one cell per character of the records
    if width * comb(n, r) <= len(text) - start:
        return Instance._from_table(n, kind, _placed(_chunks(text, start), kind, n, width))
    # A record line takes two characters per field, the last line's end
    # aside, so this file holds fewer than C(n, r) records.  With no error
    # they are distinct, and every id skipped between two members of the
    # first missing subset starts an earlier subset, which is a record: so
    # that subset lies in range(records + r).
    earlier: set = set()
    error = _line_error(kind, n, text[start:], 2, earlier, None)
    if error is None:
        candidates = itertools.combinations(range(min(n, len(earlier) + r)), r)
        error = _count_error(n, r, len(earlier), next(s for s in candidates if s not in earlier))
    raise error


def load(path: str) -> Instance:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise InstanceReadError(f"cannot read {path}: {err.strerror or err}") from None
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as err:
        # the byte's line, counted as `parse` counts lines
        line = len((data[: err.start] + b".").decode("ascii").splitlines())
        error = HeaderError if line == 1 else RecordSyntaxError
        raise error(f"non-ASCII byte 0x{data[err.start]:02x}", line) from None
    return parse(text)


def dump(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(inst))

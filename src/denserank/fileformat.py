"""Plain-text instance files.

Line 1 is the header: ``rcsp 1 <family> <n> <r>`` with family one of
``betweenness``, ``fast``, ``tfast``.  Every following line is one
constraint record, space-separated integers: the r members in increasing
order, then the selected data (one id for fast, an increasing pair for
betweenness, a permutation of the members for tfast).  A file holds
exactly one record per r-subset; writers emit them in lexicographic
member order, readers accept any order.

`parse` reads the records a block of lines at a time into one int64
table with one row per field.  A block in the form `serialize` writes,
only ASCII digits, spaces and line feeds, is tokenized on its bytes with
numpy: tokens are the runs of digits, each line must hold exactly as
many as a record has fields, and values are built digit by digit.  Any
other block (tabs, carriage returns or other line breaks, signs, `_`,
non-ASCII characters, tokens of 19 or more digits, ids past the int64
range) is split and converted as `str`, so it is read as before and
fails as before.  `parse` then runs each check over the whole table
at once: member range, strictly increasing members and valid selected
data, then lexicographic subset ranks, which place each record and show
whether any subset is duplicated or missing.  When a check fails, the
first failing line wins: a stable sort of the ranks tells each duplicate
from the record it repeats, and the per-record checks run again on that
one line, in the order a line is checked: token count, integer tokens,
member range, member order, duplicate, selected data.  So every error is
the one a line-by-line read raises first.

Serializing then parsing is the identity on instances, and parsing then
serializing is the identity on canonically ordered files.
"""

from __future__ import annotations

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
    constraint_from_row,
    nth_combination,
    selected_width,
    subsets,
    validate_constraint,
)

MAGIC = "rcsp"
VERSION = "1"
# Characters per tokenizer block, about 3,000 record lines of the benchmark
# files.  A plain block (see `_convert`) pays a fixed numpy cost per block
# and a little per byte, and its temporary arrays take about 22 bytes per
# character.  On a uniform `fast` r = 2, n = 300 file (489,000 characters)
# parse took 12.5 ms with blocks of 6,000 characters, 7.0 ms with 32,768,
# 6.6 ms with 65,536 and 7.8 ms with 131,072, against 41.7 ms with every
# block read as str.  65,536 also raised the peak RSS of the benchmark's
# kernelize-fast workload by 0.3-0.5 MB over that, and 32,768 did not.
# Any other block goes through `str.split`, which keeps every token of the
# block alive as a str at once, about 0.6 MB.
BLOCK_CHARS = 32_768
# The bytes of a plain block, and its longest token: 18 digits always fit
# in int64, 19 may not.
_PLAIN = b"0123456789 \n"
PLAIN_DIGITS = 18

_TAGS = {family.value: family for family in Family}


def serialize(inst: Instance) -> str:
    header = f"{MAGIC} {VERSION} {inst.kind.family.value} {inst.n} {inst.kind.r}\n"
    table = np.hstack([subsets(inst.n, inst.r), inst.selected])
    record = " ".join(["%d"] * table.shape[1])  # one format for the whole table
    return header + "\n".join([record] * len(table)) % tuple(table.ravel().tolist()) + "\n"


def _chunks(text: str, start: int) -> Iterator[str]:
    """`text[start:]` in blocks of about BLOCK_CHARS characters.  Each
    block ends just after a line feed, which ends a line whatever comes
    before it, so the blocks' lines are exactly the text's lines."""
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _convert(chunk: str, width: int, wide: bool) -> Optional[np.ndarray]:
    """The record lines of `chunk` as one (width, lines) table, one row
    per field, or None when a line has another token count or a token
    `int` rejects.  A plain block, one that holds only ASCII digits,
    spaces and line feeds and no token of more than PLAIN_DIGITS digits,
    is tokenized on its bytes; any other, and every block of `wide` ids,
    goes through `_convert_text`, which returns the same for a plain one."""
    if wide or not chunk.isascii():
        return _convert_text(chunk, width, wide)
    data = chunk.encode("ascii")
    if data.translate(None, _PLAIN):
        return _convert_text(chunk, width, wide)
    text = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(text) + 2, dtype=np.int8)
    digit[1:-1] = text >= ord("0")  # digits are the only plain bytes above the space
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = edges[0::2], edges[1::2]  # each token is text[start:end]
    lengths = ends - starts
    longest = int(lengths.max(initial=0))
    if longest > PLAIN_DIGITS:
        return _convert_text(chunk, width, wide)
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
    # Horner over the tokens' digits aligned at their ends: a token shorter
    # than `back` reads a 0 there, as if it had leading zeros.
    digits = text - np.uint8(ord("0"))
    values = np.zeros(len(starts), dtype=np.int64)
    for back in range(longest, 0, -1):
        values = values * 10 + digits[(ends - back).clip(0)] * (lengths >= back)
    return values.reshape(-1, width).T


def _convert_text(chunk: str, width: int, wide: bool) -> Optional[np.ndarray]:
    """`_convert` by `str.split` and `int`, for any block.  The table is
    int64 unless `wide` (ids may pass the int64 range): then it holds
    Python ints."""
    counts = list(map(len, map(str.split, chunk.splitlines())))
    if counts.count(width) != len(counts):
        return None
    tokens = chunk.split()  # line ends are whitespace too
    try:
        if wide:
            return np.array(list(map(int, tokens)), dtype=object).reshape(-1, width).T
        return np.array(tokens, dtype=np.int64).reshape(-1, width).T
    except (ValueError, OverflowError):
        return None


def _table(chunks: Iterable[str], width: int, wide: bool) -> tuple[np.ndarray, bool]:
    """The record lines of `chunks` as one (width, lines) table, and
    whether it stopped short, before the first line that does not convert."""
    parts, stopped = [], False
    for chunk in chunks:
        block = _convert(chunk, width, wide)
        if block is None:
            lines = chunk.splitlines(keepends=True)
            # by str: per line, the numpy passes of a plain block cost more
            good = next(i for i, line in enumerate(lines) if _convert_text(line, width, wide) is None)
            parts.append(_convert("".join(lines[:good]), width, wide))
            stopped = True
            break
        parts.append(block)
    # one field per contiguous row: the blocks are transposed views, and
    # row-wise checks over a strided table cost several times more
    table = np.empty((width, sum(part.shape[1] for part in parts)), dtype=object if wide else np.int64)
    if parts:
        np.concatenate(parts, axis=1, out=table)
    return table, stopped


def _record_error(
    kind: ProblemKind, n: int, raw: str, lineno: int, earlier: np.ndarray
) -> Optional[ParseError]:
    """The error of the first per-record check that `raw` fails, or None;
    `earlier` (r, lines) holds the members of the records before it."""
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
    if (earlier.T == members).all(axis=1).any():
        return DuplicateRecordError(f"second record for subset {members}", lineno)
    try:
        validate_constraint(kind, constraint_from_row(kind, members, values[r:]))
    except InvalidConstraintError as err:
        return SelectedValueError(str(err), lineno)
    return None


def _rejection(
    text: str, kind: ProblemKind, n: int, members: np.ndarray, valid: np.ndarray, stopped: bool
) -> ParseError:
    """The error a line-by-line read of `text` raises first.  `members`
    and `valid` come from the table of its records, which `stopped` short
    of a line that does not convert; the first line the table checks
    reject is rejected by the per-record checks too."""
    r = kind.r
    rows = np.flatnonzero(valid)
    ranks = Instance._ranks(n, r, members[:, rows])
    order = np.argsort(ranks, kind="stable")
    ranks = ranks[order]
    # a stable sort keeps the first record of a subset ahead of its copies
    valid[rows[order[1:][ranks[1:] == ranks[:-1]]]] = False
    records = members.shape[1]
    first = records if valid.all() else int(np.argmin(valid))
    if stopped or first < records:
        raw = text.splitlines()[first + 1]
        return _record_error(kind, n, raw, first + 2, members[:, :first])
    # the records are distinct valid subsets, so fewer than C(n, r) of them
    gaps = np.flatnonzero(ranks != np.arange(records))
    missing = nth_combination(n, r, int(gaps[0]) if len(gaps) else records)
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
    chunks = _chunks(text, len(lines[0]))
    table, stopped = _table(chunks, width, wide=n > np.iinfo(np.int64).max)
    members, selected = table[:r], table[r:]
    valid = ((members >= 0) & (members < n)).all(axis=0) & batch_valid(kind, members, selected)
    records = table.shape[1]
    if not stopped and valid.all() and records == comb(n, r):
        ranks = Instance._ranks(n, r, members)
        seen = np.zeros(records, dtype=bool)
        seen[ranks] = True
        if seen.all():  # every subset exactly once
            placed_rows = np.empty((records, len(selected)), dtype=np.int64)
            for column, values in zip(placed_rows.T, selected):
                np.put(column, ranks, values)  # unlike `column[ranks] = values`, buffers nothing
            return Instance._from_table(n, kind, placed_rows)
    raise _rejection(text, kind, n, members, valid, stopped)


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

"""Plain-text instance files.

Line 1 is the header: ``rcsp 1 <family> <n> <r>`` with family one of
``betweenness``, ``fast``, ``tfast``.  Every following line is one
constraint record, space-separated integers: the r members in increasing
order, then the selected data (one id for fast, an increasing pair for
betweenness, a permutation of the members for tfast).  A file holds
exactly one record per r-subset; writers emit them in lexicographic
member order, readers accept any order.

Serializing then parsing is the identity on instances, and parsing then
serializing is the identity on canonically ordered files.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .errors import (
    DuplicateRecordError,
    HeaderError,
    InvalidConstraintError,
    RecordCountError,
    RecordSyntaxError,
    SelectedValueError,
    UnknownFamilyError,
)
from .model import (
    Family,
    Instance,
    ProblemKind,
    constraint_from_row,
    selected_width,
    subsets,
    validate_constraint,
)

MAGIC = "rcsp"
VERSION = "1"

_TAGS = {family.value: family for family in Family}


def serialize(inst: Instance) -> str:
    lines = [f"{MAGIC} {VERSION} {inst.kind.family.value} {inst.n} {inst.kind.r}"]
    rows = np.hstack([subsets(inst.n, inst.r), inst.selected]).tolist()
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise HeaderError("empty file", 1)
    head = lines[0].split()
    if len(head) != 5 or head[0] != MAGIC or head[1] != VERSION:
        raise HeaderError(f"expected '{MAGIC} {VERSION} <family> <n> <r>', got {lines[0]!r}", 1)
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
    records: dict[tuple[int, ...], list[int]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if len(tokens) != width:
            raise RecordSyntaxError(f"expected {width} integers, got {len(tokens)}", lineno)
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise RecordSyntaxError(f"non-integer token in {raw!r}", lineno) from None
        members = tuple(values[:r])
        if any(not 0 <= v < n for v in members):
            raise RecordSyntaxError(f"member outside 0..{n - 1} in {members}", lineno)
        if any(members[i] >= members[i + 1] for i in range(r - 1)):
            raise RecordSyntaxError(f"members not strictly increasing: {members}", lineno)
        if members in records:
            raise DuplicateRecordError(f"second record for subset {members}", lineno)
        try:
            validate_constraint(kind, constraint_from_row(kind, members, values[r:]))
        except InvalidConstraintError as err:
            raise SelectedValueError(str(err), lineno) from None
        records[members] = values[r:]

    rows = []
    for subset in itertools.combinations(range(n), r):
        try:
            rows.append(records[subset])
        except KeyError:
            raise RecordCountError(
                f"{len(records)} records, expected {comb(n, r)}; first missing subset {subset}",
                len(lines) + 1,
            ) from None
    return Instance._from_table(n, kind, rows)


def load(path: str) -> Instance:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def dump(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(inst))

"""Output checks, written independently of the denserank package.

The file reader and the fault counter here re-implement the rcsp format
and the three constraint families from their definitions, so a defect in
`denserank.model` or `denserank.fileformat` cannot hide itself by also
being used to check its own output.  Each check returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

FAMILIES = ("fast", "betweenness", "tfast")
EDIT_RULES = ("sunflower-edit", "conflict-packing-edit")
DROP_RULES = ("drop-always-selected", "drop-cycle-free")


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Rcsp:
    family: str
    n: int
    r: int
    records: tuple  # (members, selected) pairs; selected is an int for fast


def read_rcsp(text: str) -> Rcsp:
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("empty instance file")
    head = lines[0].split()
    if len(head) != 5 or head[:2] != ["rcsp", "1"] or head[2] not in FAMILIES:
        raise CheckFailed(f"bad header {lines[0]!r}")
    family, n, r = head[2], int(head[3]), int(head[4])
    width = r + {"fast": 1, "betweenness": 2, "tfast": r}[family]
    records = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        values = tuple(int(t) for t in line.split())
        members = values[:r]
        if len(values) != width:
            raise CheckFailed(f"line {lineno}: {len(values)} integers, expected {width}")
        if any(not 0 <= v < n for v in members) or list(members) != sorted(set(members)):
            raise CheckFailed(f"line {lineno}: members {members} not increasing within 0..{n - 1}")
        if members in seen:
            raise CheckFailed(f"line {lineno}: second record for {members}")
        seen.add(members)
        sel = values[r:]
        if family == "fast":
            ok = sel[0] in members
            sel = sel[0]
        elif family == "betweenness":
            ok = sel[0] < sel[1] and set(sel) <= set(members)
        else:
            ok = sorted(sel) == list(members)
        if not ok:
            raise CheckFailed(f"line {lineno}: selected {sel} invalid for {members}")
        records.append((members, sel))
    if len(records) != comb(n, r):
        raise CheckFailed(f"{len(records)} records, a dense instance has {comb(n, r)}")
    return Rcsp(family, n, r, tuple(records))


def _is_permutation(order, n: int) -> bool:
    return sorted(order) == list(range(n))


def count_faults(inst: Rcsp, order) -> int:
    """Constraints the ranking `order` (first to last) violates."""
    pos = [0] * inst.n
    for i, v in enumerate(order):
        pos[v] = i
    faults = 0
    for members, sel in inst.records:
        if inst.family == "fast":
            ok = max(members, key=pos.__getitem__) == sel
        elif inst.family == "betweenness":
            by_pos = sorted(members, key=pos.__getitem__)
            ok = {by_pos[0], by_pos[-1]} == set(sel)
        else:
            ok = all(pos[a] < pos[b] for a, b in zip(sel, sel[1:]))
        faults += not ok
    return faults


def in_degree_order(inst: Rcsp) -> list[int]:
    """Vertices by ascending (times selected, id): the Inc-Degree ranking."""
    degree = [0] * inst.n
    for _, sel in inst.records:
        degree[sel] += 1
    return sorted(range(inst.n), key=lambda v: (degree[v], v))


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out.setdefault(key, value)
    return out


def check_solve(inst: Rcsp, planted_edits: int, stdout: str) -> list[str]:
    fields = _fields(stdout)
    opt = int(fields["opt"])
    witness = [int(v) for v in fields["witness"].split()]
    if not _is_permutation(witness, inst.n):
        return [f"witness {witness} is not a permutation of 0..{inst.n - 1}"]
    problems = []
    recount = count_faults(inst, witness)
    if recount != opt:
        problems.append(f"witness violates {recount} constraints, printed opt={opt}")
    if opt > planted_edits:
        problems.append(f"opt={opt} exceeds the {planted_edits} planted edits")
    return problems


def check_approx(inst: Rcsp, stdout: str) -> list[str]:
    fields = _fields(stdout)
    ranking = [int(v) for v in fields["ranking"].split()]
    if not _is_permutation(ranking, inst.n):
        return [f"ranking is not a permutation of 0..{inst.n - 1}"]
    problems = []
    recount = count_faults(inst, ranking)
    if recount != int(fields["faults"]):
        problems.append(f"ranking violates {recount} constraints, printed faults={fields['faults']}")
    if ranking != in_degree_order(inst):
        problems.append("ranking does not ascend by (in-degree, id)")
    return problems


def conflict_width(family: str, r: int) -> int:
    """Petal width w of the characterized kernel: the single-fault
    conflict size of the family minus r."""
    if family == "betweenness":
        return 1 if r == 3 else r
    return 1


def check_kernelize(family: str, n: int, r: int, k: int, stdout: str, kernel_text: str) -> list[str]:
    """Rule trace, budget bookkeeping, size bounds and the kernel file."""
    lines = stdout.splitlines()
    fields = _fields(stdout)
    verdict, p0 = fields["verdict"], int(fields["p0"])
    summary = lines[2].split()  # rules: edits=E drops=D
    edits, drops = int(summary[1][6:]), int(summary[2][6:])
    kernel_n, kernel_k = (int(t.split("=")[1]) for t in lines[3].split()[1:])
    problems = []

    cur_n, cur_k, seen_edits, seen_drops = n, k, 0, 0
    for line in lines[4:]:
        rec = dict(t.split("=", 1) for t in line.split())
        k_before, k_after = (int(v) for v in rec["k"].split("->"))
        if rec["rule"] in EDIT_RULES:
            seen_edits += 1
            ok = k_before == cur_k and k_after == cur_k - 1
            cur_k -= 1
        elif rec["rule"] in DROP_RULES:
            seen_drops += 1
            n_before, n_after = (int(v) for v in rec["n"].split("->"))
            ok = n_before == cur_n and n_after == cur_n - 1 and k_before == k_after == cur_k
            cur_n -= 1
        else:
            ok = False
        if not ok:
            problems.append(f"trace line breaks the n/k chain at n={cur_n} k={cur_k}: {line}")
    if (seen_edits, seen_drops) != (edits, drops):
        problems.append(f"trace has {seen_edits} edits/{seen_drops} drops, summary {edits}/{drops}")

    try:
        kernel = read_rcsp(kernel_text)
    except (CheckFailed, ValueError) as exc:
        return problems + [f"kernel file does not re-parse: {exc}"]
    if (kernel.family, kernel.n, kernel.r) != (family, kernel_n, r):
        problems.append(f"kernel file header {kernel.family}/{kernel.n}/{kernel.r} != printed")

    if verdict == "reduced":
        if (kernel_n, kernel_k) != (n - drops, k - edits):
            problems.append(f"kernel n={kernel_n} k={kernel_k}, expected n-drops={n - drops} k-edits={k - edits}")
        if family == "fast":
            p = count_faults(kernel, in_degree_order(kernel))
            if kernel_n > p + kernel_k + r or kernel_n > 6 * kernel_k + r:
                problems.append(f"fast kernel n={kernel_n} exceeds p+k+r={p + kernel_k + r} or 6k+r={6 * kernel_k + r}")
        else:
            w, p = conflict_width(family, r), p0 - edits
            bound = p * w + w * (kernel_k + 1) + r
            if kernel_n > bound:
                problems.append(f"kernel n={kernel_n} exceeds p*w+w(k+1)+r={bound}")
    elif verdict == "trivial-yes":
        if (kernel_n, kernel_k) != (r, 0) or count_faults(kernel, range(r)) != 0:
            problems.append("trivial-yes kernel is not a consistent instance on r vertices at k=0")
    elif verdict == "trivial-no":
        if (kernel_n, kernel_k) != (r + 1, 0):
            problems.append(f"trivial-no kernel has n={kernel_n} k={kernel_k}, expected r+1 and 0")
        elif any(count_faults(kernel, order) == 0 for order in itertools.permutations(range(r + 1))):
            problems.append("trivial-no kernel admits a consistent ranking")
    else:
        problems.append(f"unknown verdict {verdict!r}")
    return problems

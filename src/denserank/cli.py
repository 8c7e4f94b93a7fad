"""Command-line front end.

Subcommands: gen, solve, approx, kernelize, verify-lemmas, bench.
Results go to stdout as plain text (or CSV for bench and the slack
sweeps); there is no other output channel.

Exit codes: 0 success, 2 usage errors (argparse), 3 instance files that
cannot be read or parsed, 4 violated preconditions or semantic misuse,
5 oracle cap refusals, 1 failed verification (verify-lemmas only).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from math import comb
from typing import Optional

from . import approx as approx_mod
from . import characterize, fileformat, kernel, oracle
from .errors import DenseRankError, EnumerationCapError, InstanceReadError, ParseError
# the package re-exports the generate() function under the submodule's
# name, so pull what the CLI needs out of the submodule explicitly
from .generate import GenerationMode, GeneratorSpec, generate as build_instance
from .model import Family, Instance, OrderedInstance, ProblemKind, Ranking, fault_count
from .rng import SplitMix64

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_ORACLE_CAP = 5

_FAMILIES = {f.value: f for f in Family}


def _kind(args) -> ProblemKind:
    return ProblemKind(_FAMILIES[args.family], args.r)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    mode = GenerationMode(args.mode)
    spec = GeneratorSpec(
        kind=_kind(args), n=args.n, mode=mode, seed=args.seed, edits=args.edits
    )
    _write_text(args.out, fileformat.serialize(build_instance(spec)))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = fileformat.load(args.instance)
    result = oracle.min_inconsistencies(inst, cap=args.oracle_cap)
    print(f"opt={result.opt}")
    print("witness=" + " ".join(str(v) for v in result.witness.order))
    return EXIT_OK


def cmd_approx(args) -> int:
    inst = fileformat.load(args.instance)
    ranking = approx_mod.inc_degree_ranking(inst)
    faults = fault_count(OrderedInstance(inst, ranking))
    print("ranking=" + " ".join(str(v) for v in ranking.order))
    print(f"faults={faults}")
    if args.compare_opt:
        opt = oracle.min_inconsistencies(inst, cap=args.oracle_cap).opt
        print(f"opt={opt}")
        print(f"ratio={faults / opt:.4f}" if opt else f"ratio={'1.0000' if faults == 0 else 'inf'}")
    return EXIT_OK


def _kernelize(args, inst: Instance, k: int, debug_oracle_checks: bool = False):
    """The family's kernel driver on `inst`; the characterized driver
    takes its ranking from the provider named by --provider."""
    if inst.kind.family is Family.FAST:
        return kernel.kernelize_fast(inst, k, debug_oracle_checks, args.oracle_cap)
    if args.provider == "exact":
        provider = kernel.exact_provider(args.oracle_cap)
    else:
        provider = kernel.local_search_provider
    return kernel.kernelize_characterized(inst, k, provider, debug_oracle_checks, args.oracle_cap)


def cmd_kernelize(args) -> int:
    outcome = _kernelize(args, fileformat.load(args.instance), args.k, args.debug_oracle_checks)
    print(f"verdict={outcome.verdict.value}")
    print(f"p0={outcome.p0}")
    print(f"rules: edits={outcome.edit_count()} drops={outcome.drop_count()}")
    reduced, k_out = outcome.materialize()
    print(f"kernel: n={reduced.n} k={k_out}")
    if args.out:
        fileformat.dump(reduced, args.out)
    if args.trace_out:
        _write_text(args.trace_out, outcome.trace_text() + "\n" if outcome.trace else "")
    elif outcome.trace:
        print(outcome.trace_text())
    return EXIT_OK


def _characterization_battery(args) -> list[characterize.CharacterizationReport]:
    if args.family:
        kind = _kind(args)
        size = args.size or (kind.r + 1)
        return [
            characterize.verify_simple_characterization(
                kind, size, sample=args.sample, seed=args.seed, oracle_cap=args.oracle_cap
            )
        ]
    battery = [
        (ProblemKind(Family.BETWEENNESS, 3), 4, None),
        (ProblemKind(Family.TRANSITIVE_FAST, 3), 4, None),
        (ProblemKind(Family.BETWEENNESS, 4), 5, None),
        (ProblemKind(Family.FAST, 3), 4, None),
    ]
    return [
        characterize.verify_simple_characterization(
            kind, size, sample=sample, seed=args.seed, oracle_cap=args.oracle_cap
        )
        for kind, size, sample in battery
    ]


def cmd_verify_lemmas(args) -> int:
    failed = False

    for report in _characterization_battery(args):
        print(report.summary())
        expected = characterize.predicted_non_conflicts(report.kind, report.size)
        if expected is None:
            continue  # no closed-form claim at this size; the sweep is data only
        if report.exhaustive:
            mismatch = report.counterexamples != expected
        else:
            mismatch = not set(report.counterexamples) <= set(expected)
        if mismatch:
            failed = True

    rows = []
    worst = None
    for i in range(args.slack_instances):
        seed = args.seed + i
        spec = GeneratorSpec(
            kind=ProblemKind(Family.FAST, args.slack_r),
            n=args.slack_n,
            mode=GenerationMode.UNIFORM,
            seed=seed,
        )
        inst = build_instance(spec)
        rng = SplitMix64(seed ^ 0xC0FFEE)
        rho = Ranking(tuple(rng.permutation(inst.n)))
        gamma = Ranking(tuple(rng.permutation(inst.n)))
        gap = approx_mod.degree_gap_slack(inst, rho)
        opt_slack = approx_mod.incdegree_optimality_slack(inst, rho)
        dist = approx_mod.ranking_distance_slacks(inst, rho, gamma)
        slacks = (gap.slack, opt_slack, dist.slack_vs_flips, dist.slack_vs_faults)
        rows.append((seed, inst.n, inst.kind.r) + slacks)
        low = min(slacks)
        worst = low if worst is None else min(worst, low)
        if low < 0:
            failed = True

    if args.slack_instances:
        print(
            f"slacks over {args.slack_instances} instances "
            f"(n={args.slack_n}, r={args.slack_r}): worst={worst}"
        )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["seed", "n", "r", "slack_gap", "slack_incdegree", "slack_flips", "slack_faults"]
            )
            writer.writerows(rows)
        print(f"wrote {len(rows)} slack rows to {args.csv}")

    print("verdict=" + ("FAIL" if failed else "OK"))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_bench(args) -> int:
    kind = _kind(args)
    fieldnames = [
        "family", "r", "n", "k", "seed", "mode", "edits", "p0", "verdict",
        "kernel_n", "kernel_k", "rule_edits", "rule_drops", "approx_ratio",
    ]
    rows = []
    for n in args.n_list:
        for k in args.k_list:
            for s in range(args.seeds):
                seed = args.seed + s
                edits = args.edits if args.edits is not None else min(k + 1, comb(n, kind.r))
                mode = GenerationMode(args.mode)
                spec = GeneratorSpec(
                    kind=kind,
                    n=n,
                    mode=mode,
                    seed=seed,
                    edits=edits if mode is GenerationMode.PLANTED else 0,
                )
                inst = build_instance(spec)
                outcome = _kernelize(args, inst, k)
                reduced, k_out = outcome.materialize()
                ratio = ""
                if kind.family is Family.FAST and not oracle.refuses(kind, n, args.oracle_cap):
                    opt = oracle.min_inconsistencies(inst, cap=args.oracle_cap).opt
                    greedy = fault_count(
                        OrderedInstance(inst, approx_mod.inc_degree_ranking(inst))
                    )
                    if opt:
                        ratio = f"{greedy / opt:.4f}"
                    elif greedy == 0:
                        ratio = "1.0000"
                rows.append(
                    dict(
                        family=kind.family.value,
                        r=kind.r,
                        n=n,
                        k=k,
                        seed=seed,
                        mode=spec.mode.value,
                        edits=spec.edits,
                        p0=outcome.p0,
                        verdict=outcome.verdict.value,
                        kernel_n=reduced.n,
                        kernel_k=k_out,
                        rule_edits=outcome.edit_count(),
                        rule_drops=outcome.drop_count(),
                        approx_ratio=ratio,
                    )
                )
    out = args.out or "-"
    fh = sys.stdout if out == "-" else open(out, "w", newline="", encoding="ascii")
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
            print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it keeps no state
    between `parse_args` calls."""
    parser = argparse.ArgumentParser(
        prog="denserank",
        description="Dense ranking constraint systems: generate, solve, approximate, kernelize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, required=True):
        p.add_argument("--family", choices=sorted(_FAMILIES), required=required)
        p.add_argument("--r", type=int, default=3, help="constraint arity (default 3)")

    def add_cap(p):
        p.add_argument(
            "--oracle-cap",
            type=int,
            default=None,
            help="largest vertex count the exact oracle will accept (default: "
            f"{oracle.DEFAULT_CAPS[oracle.SUBSET_DP]} for the subset DP at r <= 3, "
            f"{oracle.DEFAULT_CAPS[oracle.PREFIX_SEARCH]} for the prefix search at r >= 4)",
        )

    p = sub.add_parser("gen", help="write a seeded instance file")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["planted", "uniform"], default="planted")
    p.add_argument("--edits", type=int, default=0, help="planted re-edit count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", help="exact optimum: subset DP at r <= 3, bounded prefix search above"
    )
    p.add_argument("instance")
    add_cap(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", help="Inc-Degree ranking for a FAST instance")
    p.add_argument("instance")
    p.add_argument("--compare-opt", action="store_true")
    add_cap(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("kernelize", help="shrink an instance, preserving the answer")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True, help="edit budget")
    p.add_argument(
        "--provider",
        choices=["exact", "localsearch"],
        default="exact",
        help="ranking source for betweenness and tfast (FAST always ranks by Inc-Degree)",
    )
    p.add_argument("--debug-oracle-checks", action="store_true")
    p.add_argument("--out", default=None, help="write the kernel instance here")
    p.add_argument("--trace-out", default=None, help="write the rule trace here")
    add_cap(p)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("verify-lemmas", help="re-check characterizations and slack bounds")
    add_family(p, required=False)
    p.add_argument("--size", type=int, default=None, help="configuration size to sweep")
    p.add_argument("--sample", type=int, default=None, help="sample size (default exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack-instances", type=int, default=50)
    p.add_argument("--slack-n", type=int, default=8)
    p.add_argument("--slack-r", type=int, default=3)
    p.add_argument("--csv", default=None, help="write slack rows to this CSV file")
    add_cap(p)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("bench", help="sweep a seeded grid, emit CSV")
    add_family(p)
    p.add_argument("--n-list", type=int, nargs="+", required=True)
    p.add_argument("--k-list", type=int, nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=3, help="seeds per grid cell")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--mode", choices=["planted", "uniform"], default="planted")
    p.add_argument("--edits", type=int, default=None, help="planted edits (default k+1)")
    p.add_argument("--provider", choices=["exact", "localsearch"], default="localsearch")
    p.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    add_cap(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceReadError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except DenseRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

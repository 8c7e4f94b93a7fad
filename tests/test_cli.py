import ast
import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import denserank
from conftest import consistent_instance
from denserank import cli, fileformat, oracle
from denserank.cli import main
from denserank.errors import (
    DuplicateRecordError,
    HeaderError,
    RecordCountError,
    RecordSyntaxError,
    SelectedValueError,
    UnknownFamilyError,
)
from denserank.model import (
    Constraint,
    Family,
    OrderedInstance,
    ProblemKind,
    Ranking,
    fault_count,
)

F2 = ProblemKind(Family.FAST, 2)
GOLDEN_KERNEL_DIR = Path(__file__).parent / "golden" / "kernel"
GOLDEN_LEMMA_DIR = Path(__file__).parent / "golden" / "verify_lemmas"


# Sizes where both drop rules, sunflower edits and (fast_r2_n16) a
# conflict-packing edit fire, and two r = 4 local-search runs (the
# tfast one fires sunflower edits); the expected stdout, kernel file
# and trace file are frozen byte for byte.
GOLDEN_KERNEL_CASES = [
    ("fast_r2_n45", ("fast", "2", "45", "6", "3"), ("--k", "3")),
    ("fast_r3_n32", ("fast", "3", "32", "6", "4"), ("--k", "3")),
    (
        "tfast_r3_n16",
        ("tfast", "3", "16", "4", "2"),
        ("--k", "2", "--provider", "localsearch"),
    ),
    ("fast_r2_n16", ("fast", "2", "16", "5", "2"), ("--k", "2")),
    (
        "betweenness_r3_n12",
        ("betweenness", "3", "12", "3", "0"),
        ("--k", "2", "--provider", "localsearch"),
    ),
    (
        "tfast_r4_n10",
        ("tfast", "4", "10", "3", "1"),
        ("--k", "1", "--provider", "localsearch"),
    ),
    (
        "betweenness_r4_n9",
        ("betweenness", "4", "9", "2", "1"),
        ("--k", "2", "--provider", "localsearch"),
    ),
]

# The default battery and three single-family sweeps; the stdout, which
# prints selected data both as one id and as a tuple, is frozen byte for
# byte.
GOLDEN_LEMMA_CASES = [
    ("default", ("--slack-instances", "5")),
    ("fast_r2_size3", ("--family", "fast", "--r", "2", "--size", "3", "--slack-instances", "0")),
    ("tfast_r4_size5", ("--family", "tfast", "--r", "4", "--size", "5", "--slack-instances", "0")),
    (
        "betweenness_r5_size6",
        ("--family", "betweenness", "--r", "5", "--size", "6", "--slack-instances", "0"),
    ),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", *argv, "--out", str(path))
    assert code == 0
    return str(path)


class TestGen:
    def test_writes_a_parseable_instance_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "fast", "--r", "2", "--n", "5", "--mode", "uniform"
        )
        assert code == 0
        inst = fileformat.parse(out)
        assert (inst.n, inst.kind) == (5, F2)

    def test_is_deterministic(self, capsys):
        argv = ("gen", "--family", "tfast", "--n", "6", "--edits", "2", "--seed", "9")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "b.rcsp", "--family", "betweenness", "--n", "5", "--seed", "3"
        )
        assert fileformat.load(path).n == 5


class TestSolve:
    def test_reports_opt_and_witness(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "f.rcsp",
            "--family", "fast", "--r", "2", "--n", "6", "--edits", "2", "--seed", "4",
        )
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        expected = oracle.min_inconsistencies(fileformat.load(path))
        lines = out.splitlines()
        assert lines[0] == f"opt={expected.opt}"
        assert lines[1] == "witness=" + " ".join(str(v) for v in expected.witness.order)

    def test_parse_failure_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.rcsp"
        bad.write_text("rcsp 1 fast 3 2\n0 1 1\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "content,error,line,byte",
        [
            (b"rcsp 1 fast 3 2\xff\n0 1 1\n0 2 2\n1 2 2\n", HeaderError, 1, "0xff"),
            (b"rcsp 1 fast 3 2\r\n0 1 1\r\n0 2 \xc3\xa9\n1 2 2\n", RecordSyntaxError, 3, "0xc3"),
        ],
        ids=["header", "record"],
    )
    def test_non_ascii_byte_exits_3_at_its_line(self, capsys, tmp_path, content, error, line, byte):
        bad = tmp_path / "bad.rcsp"
        bad.write_bytes(content)
        with pytest.raises(error) as raised:
            fileformat.load(str(bad))
        assert raised.value.line == line
        code, out, err = run(capsys, "solve", str(bad))
        assert (code, out, err) == (3, "", f"error: line {line}: non-ASCII byte {byte}\n")

    @pytest.mark.parametrize(
        "name,reason", [("absent.rcsp", "No such file or directory"), (".", "Is a directory")]
    )
    def test_unreadable_path_exits_3(self, capsys, tmp_path, name, reason):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "solve", path)
        assert (code, out) == (3, "")
        assert err == f"error: cannot read {path}: {reason}\n"

    def test_cap_refusal_exits_5(self, capsys, tmp_path):
        # one refusal per engine's default cap (enumeration at r >= 4, the
        # subset DP at r <= 3) and one by an explicit cap below the default
        cases = [
            ("betweenness", "4", "11", (), 10),
            ("fast", "2", "19", (), 18),
            ("fast", "3", "19", (), 18),
            ("fast", "2", "9", ("--oracle-cap", "8"), 8),
        ]
        for family, r, n, cap_argv, cap in cases:
            path = gen_file(
                capsys, tmp_path, f"{family}{r}_{n}.rcsp", "--family", family, "--r", r, "--n", n
            )
            code, out, err = run(capsys, "solve", path, *cap_argv)
            assert (code, out) == (5, ""), (family, r, n, cap_argv)
            assert err.startswith("error:") and f"exceeds the cap of {cap};" in err

    def test_subset_dp_solves_up_to_its_default_cap(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "f.rcsp",
            "--family", "fast", "--r", "3", "--n", "18", "--edits", "3", "--seed", "1",
        )
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        witness = Ranking(tuple(int(v) for v in lines["witness"].split()))
        inst = fileformat.load(path)
        assert int(lines["opt"]) == fault_count(OrderedInstance(inst, witness)) <= 3


class TestApprox:
    def test_reports_ranking_and_faults(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "f.rcsp",
            "--family", "fast", "--r", "3", "--n", "7", "--edits", "2", "--seed", "1",
        )
        code, out, _ = run(capsys, "approx", path, "--compare-opt")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert set(lines) == {"ranking", "faults", "opt", "ratio"}
        assert int(lines["faults"]) <= 5 * int(lines["opt"]) or lines["faults"] == "0"

    def test_non_fast_exits_4(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "b.rcsp", "--family", "betweenness", "--n", "5")
        code, _, err = run(capsys, "approx", path)
        assert code == 4
        assert "error:" in err


class TestKernelize:
    def drop_heavy_file(self, tmp_path):
        inst = consistent_instance(F2, 9).replace(
            {
                (0, 1): Constraint((0, 1), 0),
                (1, 2): Constraint((1, 2), 1),
                (1, 3): Constraint((1, 3), 1),
            }
        )
        path = tmp_path / "drops.rcsp"
        fileformat.dump(inst, str(path))
        return str(path)

    def test_fast_pipeline_writes_kernel_and_trace(self, capsys, tmp_path):
        path = self.drop_heavy_file(tmp_path)
        kernel_out = tmp_path / "kernel.rcsp"
        trace_out = tmp_path / "trace.txt"
        code, out, _ = run(
            capsys, "kernelize", path, "--k", "1",
            "--out", str(kernel_out), "--trace-out", str(trace_out),
        )
        assert code == 0
        assert "verdict=reduced" in out
        assert "kernel: n=4 k=1" in out
        assert "rule=" not in out  # trace went to the file
        assert fileformat.load(str(kernel_out)).n == 4
        trace = trace_out.read_text().splitlines()
        assert len(trace) == 5
        assert all(line.startswith("rule=drop-always-selected") for line in trace)

    def test_trace_prints_to_stdout_by_default(self, capsys, tmp_path):
        code, out, _ = run(capsys, "kernelize", self.drop_heavy_file(tmp_path), "--k", "1")
        assert code == 0
        assert out.count("rule=drop-always-selected") == 5

    def test_characterized_pipeline(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "t.rcsp",
            "--family", "tfast", "--n", "7", "--edits", "2", "--seed", "2",
        )
        code, out, _ = run(capsys, "kernelize", path, "--k", "1", "--provider", "exact")
        assert code == 0
        assert "verdict=" in out and "p0=" in out

    def test_default_exact_provider_runs_above_the_enumeration_cap(self, capsys, tmp_path):
        path = gen_file(
            capsys, tmp_path, "b.rcsp",
            "--family", "betweenness", "--n", "14", "--edits", "3", "--seed", "1",
        )
        code, out, err = run(capsys, "kernelize", path, "--k", "2")
        assert (code, err) == (0, "")
        assert "verdict=" in out and "kernel: n=" in out

    def test_missing_budget_is_a_usage_error(self, capsys, tmp_path):
        path = self.drop_heavy_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["kernelize", path])
        assert exc.value.code == 2

    def test_incdegree_is_no_provider(self, capsys, tmp_path):
        # Inc-Degree ranks FAST only, and FAST ignores --provider
        path = gen_file(capsys, tmp_path, "b.rcsp", "--family", "betweenness", "--n", "6")
        for argv in (
            ("kernelize", path, "--k", "1"),
            ("bench", "--family", "betweenness", "--n-list", "6", "--k-list", "1"),
        ):
            code, out, err = _outcome(capsys, (*argv, "--provider", "incdegree"))
            assert (code, out) == (2, "")
            assert "invalid choice: 'incdegree'" in err

    @pytest.mark.parametrize("name,gen_argv,kernel_argv", GOLDEN_KERNEL_CASES)
    def test_golden_kernel_outputs(self, capsys, tmp_path, name, gen_argv, kernel_argv):
        family, r, n, edits, seed = gen_argv
        path = gen_file(
            capsys, tmp_path, "in.rcsp",
            "--family", family, "--r", r, "--n", n, "--edits", edits, "--seed", seed,
        )
        kernel_out = tmp_path / "kernel.txt"
        trace_out = tmp_path / "trace.txt"
        code, out, err = run(
            capsys, "kernelize", path, *kernel_argv,
            "--out", str(kernel_out), "--trace-out", str(trace_out),
        )
        assert (code, err) == (0, "")
        golden = GOLDEN_KERNEL_DIR / name
        assert out == golden.with_suffix(".stdout.txt").read_text(encoding="ascii")
        assert kernel_out.read_bytes() == golden.with_suffix(".kernel.txt").read_bytes()
        assert trace_out.read_bytes() == golden.with_suffix(".trace.txt").read_bytes()


class TestVerifyLemmas:
    def test_default_battery_passes(self, capsys, tmp_path):
        csv_path = tmp_path / "slacks.csv"
        code, out, _ = run(
            capsys, "verify-lemmas", "--slack-instances", "10", "--csv", str(csv_path)
        )
        assert code == 0
        assert "verdict=OK" in out
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert set(rows[0]) == {
            "seed", "n", "r", "slack_gap", "slack_incdegree", "slack_flips", "slack_faults",
        }
        assert all(int(row["slack_gap"]) >= 0 for row in rows)

    def test_single_family_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--family", "fast", "--r", "3", "--size", "4",
            "--slack-instances", "0",
        )
        assert code == 0
        assert "fast" in out

    @pytest.mark.parametrize("name,argv", GOLDEN_LEMMA_CASES)
    def test_golden_outputs(self, capsys, name, argv):
        code, out, err = run(capsys, "verify-lemmas", *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN_LEMMA_DIR / f"{name}.stdout.txt").read_text(encoding="ascii")


class TestBench:
    def test_csv_grid(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--family", "fast", "--r", "2",
            "--n-list", "6", "7", "--k-list", "1", "--seeds", "2", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {row["verdict"] for row in rows} <= {"reduced", "trivial-yes", "trivial-no"}
        assert all(row["approx_ratio"] for row in rows if row["verdict"] != "trivial-yes")

    @pytest.mark.parametrize("cap_argv,filled", [((), True), (("--oracle-cap", "11"), False)])
    def test_ratio_column_follows_the_oracle_cap(self, capsys, cap_argv, filled):
        code, out, _ = run(
            capsys, "bench", "--family", "fast", "--r", "2",
            "--n-list", "12", "--k-list", "1", "--seeds", "2", "--mode", "uniform", *cap_argv,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert all(bool(row["approx_ratio"]) == filled for row in rows)

    def test_stdout_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "tfast", "--n-list", "5", "--k-list", "0",
            "--seeds", "1", "--provider", "exact",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("family,r,n,k,seed,mode,edits,p0,verdict")


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one in-process request, usage
    errors (argparse's SystemExit) included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_answers_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    """`main` builds its parser once per process.  Alternating
    subcommands, usage errors (exit 2) and cap refusals (exit 5) through
    it print what a parser built afresh for every request prints."""
    fast = gen_file(capsys, tmp_path, "f.rcsp", "--family", "fast", "--r", "2", "--n", "6", "--edits", "2")
    big = gen_file(capsys, tmp_path, "b.rcsp", "--family", "betweenness", "--r", "4", "--n", "11")
    requests = [
        ("solve", fast),
        ("kernelize", fast),
        ("approx", fast, "--compare-opt"),
        ("solve", big),
        ("gen", "--family", "tfast", "--n", "5", "--seed", "2"),
        ("solve", fast, "--oracle-cap", "4"),
        ("kernelize", fast, "--k", "1"),
        ("bench", "--family", "fast", "--r", "2", "--n-list", "5", "--k-list", "1", "--seeds", "1"),
        ("solve", "--family", "fast", fast),
        ("solve", fast),
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [_outcome(capsys, argv) for argv in requests]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in requests]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 5, 0, 5, 0, 0, 2, 0]
    assert cached[0] == cached[-1]


GEN_ARGV = ("gen", "--family", "fast", "--r", "2", "--n", "5", "--mode", "uniform")


def _run_from_elsewhere(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run `sys.executable *argv` in `cwd` with the package under test
    first on the child's path, so neither the caller's cwd nor another
    installed copy decides what runs."""
    package_parent = str(Path(denserank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_parent, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env
    )


def test_installed_script_smoke(tmp_path):
    """The `denserank` script declared in pyproject.toml runs `gen` end to end.

    Runs the three lines pip writes into a console-script launcher in a fresh
    interpreter outside the repository, so the check needs no install.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["denserank"]
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    result = _run_from_elsewhere(["-c", launcher, *GEN_ARGV], tmp_path)
    assert result.returncode == 0, result.stderr
    assert fileformat.parse(result.stdout).n == 5


def test_module_entry_smoke(tmp_path):
    """`python -m denserank` runs `gen` end to end."""
    result = _run_from_elsewhere(["-m", "denserank", *GEN_ARGV], tmp_path)
    assert result.returncode == 0, result.stderr
    assert fileformat.parse(result.stdout).n == 5


# one bad file per ParseError subclass: text, error, line
BAD_FILES = [
    ("rcsp 2 fast 3 2\n", HeaderError, 1),
    ("rcsp 1 linear 3 2\n", UnknownFamilyError, 1),
    ("rcsp 1 fast 3 2\n0 1\n", RecordSyntaxError, 2),
    ("rcsp 1 fast 3 2\n0 1 1\n0 1 0\n", DuplicateRecordError, 3),
    ("rcsp 1 fast 3 2\n0 1 2\n", SelectedValueError, 2),
    ("rcsp 1 fast 3 2\n0 1 1\n", RecordCountError, 3),
]


@pytest.mark.parametrize(
    "text,error,line", BAD_FILES, ids=[error.__name__ for _, error, _ in BAD_FILES]
)
def test_file_checks_hold_under_optimize(capsys, tmp_path, text, error, line):
    """`python -O` strips asserts; every instance-file check must still reject."""
    bad = tmp_path / "bad.rcsp"
    bad.write_text(text)
    with pytest.raises(error) as raised:
        fileformat.load(str(bad))
    assert raised.value.line == line
    plain = run(capsys, "solve", str(bad))
    assert plain[0] == 3 and plain[2].startswith(f"error: line {line}: ")
    result = _run_from_elsewhere(["-O", "-m", "denserank", "solve", str(bad)], tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == plain


# gen and kernelize each golden case in one process; argv[1] is the JSON case list
_GOLDEN_KERNEL_RUNS = """
import contextlib, json, sys
from denserank.cli import main
if not sys.flags.optimize:
    sys.exit("not running under -O")
for name, (family, r, n, edits, seed), kernel_argv in json.loads(sys.argv[1]):
    gen = ["gen", "--family", family, "--r", r, "--n", n, "--edits", edits, "--seed", seed]
    if main([*gen, "--out", name + ".rcsp"]) != 0:
        sys.exit(f"gen failed for {name}")
    kernelize = ["kernelize", name + ".rcsp", *kernel_argv]
    kernelize += ["--out", name + ".kernel.txt", "--trace-out", name + ".trace.txt"]
    with open(name + ".stdout.txt", "w") as out, contextlib.redirect_stdout(out):
        code = main(kernelize)
    if code != 0:
        sys.exit(f"kernelize exited {code} for {name}")
"""


def test_golden_kernel_outputs_hold_under_optimize(tmp_path):
    """`python -O` strips asserts; the checks that keep kernelization
    sound must not be among them, so every golden kernelize run gives
    the same stdout, kernel file and trace byte for byte."""
    cases = json.dumps(GOLDEN_KERNEL_CASES)
    result = _run_from_elsewhere(["-O", "-c", _GOLDEN_KERNEL_RUNS, cases], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    for name, _, _ in GOLDEN_KERNEL_CASES:
        for part in ("stdout", "kernel", "trace"):
            produced = (tmp_path / f"{name}.{part}.txt").read_bytes()
            assert produced == (GOLDEN_KERNEL_DIR / f"{name}.{part}.txt").read_bytes(), name


def test_package_holds_no_assert_statement():
    """`python -O` strips `assert`, so a check written as one would vanish
    there; every check in the package is an `if` that raises."""
    package = Path(denserank.__file__).parent
    sources = sorted(package.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(sources) >= 12 and found == []


def test_every_perfbench_trace_target_exists():
    """`perfbench --trace 1` wraps package functions by name, so a renamed
    one would show only there.  Loading the tracer after `denserank.cli`
    resolves every target without installing a wrapper."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []


@pytest.mark.skipif(
    shutil.which("denserank") is None,
    reason="no `denserank` launcher on PATH (run `pip install -e .`)",
)
def test_path_launcher_smoke():
    result = subprocess.run(["denserank", *GEN_ARGV], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert fileformat.parse(result.stdout).n == 5

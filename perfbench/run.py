"""Benchmark of the denserank CLI, one workload per run.

    python3 perfbench/run.py --workload kernelize-fast --seed 7 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 28

Set-up imports the package from `src/` of this checkout, generates the
workload's instances from the seed and writes them as rcsp files.  Then
one client sends requests in a closed loop for `--seconds` seconds: each
request is one in-process `denserank.cli.main([...])` call on one of
those files, with stdout captured.  After the loop every distinct output
is checked by `checks.py`.  `--trace 0` reports the end-to-end metrics,
times scaled to a reference host speed (see README.md); `--trace 1` runs
every request twice, untraced and traced in alternating order, and
reports the per-layer metrics from the traced calls.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Spans, samples and the environment
also go to `.perfbench/results/` in the checkout.  Without `src/denserank`
in the checkout the run exits with code 2 and prints nothing to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 3
TAIL_BEYOND = 10
# The host-speed probe: a fixed integer loop that calls no program code.
# Times are reported scaled to a host on which it takes PROBE_REFERENCE_S
# (its median on the 2-core machine the benchmark was sized on).
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.0025
SETUP_PROBES = 5  # after each set-up pass, so setup_s is scaled by its own probes

E2E_UNITS = {
    "requests_per_s": "1/s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


@dataclass(frozen=True)
class Request:
    index: int
    slot: workloads.Slot
    argv: tuple[str, ...]
    instance_path: Path
    kernel_path: Optional[Path]


def import_program():
    """Import denserank from this checkout's src/, never from elsewhere."""
    if not (SRC / "denserank" / "__init__.py").is_file():
        raise ProgramMissing(f"no denserank package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("denserank")
    importlib.import_module("denserank.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"denserank imported from {package.__file__}, not {SRC}")
    return package


def build_requests(workload: workloads.Workload, seed: int, work: Path) -> list[Request]:
    """Generate every pool instance, write it, and pair it with its argv."""
    from denserank.generate import GenerationMode, GeneratorSpec
    from denserank.model import Family, ProblemKind

    generate = sys.modules["denserank.generate"]
    fileformat = sys.modules["denserank.fileformat"]
    requests = []
    for index, (slot_index, copy, slot) in enumerate(workloads.pool(workload)):
        spec = GeneratorSpec(
            kind=ProblemKind(Family(slot.family), slot.r),
            n=slot.n,
            mode=GenerationMode(slot.mode),
            seed=workloads.generator_seed(workload.name, seed, slot_index, copy),
            edits=slot.edits,
        )
        path = work / f"{slot_index}-{copy}.rcsp"
        fileformat.dump(generate.generate(spec), str(path))
        argv = [workload.command, str(path)]
        kernel_path = None
        if workload.command == "kernelize":
            kernel_path = work / f"{slot_index}-{copy}.kernel.rcsp"
            argv += ["--k", str(slot.k), "--out", str(kernel_path)]
            if slot.provider:
                argv += ["--provider", slot.provider]
        requests.append(Request(index, slot, tuple(argv), path, kernel_path))
    return requests


def call_cli(argv) -> tuple[Optional[int], str, str]:
    """One request: cli.main in-process with stdout and stderr captured.
    Returns (exit code or None if it raised, stdout, stderr or traceback)."""
    main = sys.modules["denserank.cli"].main  # looked up per call: may be traced
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return None, out.getvalue(), traceback.format_exc(limit=4)
    return code, out.getvalue(), err.getvalue()


def take_kernel(request: Request) -> str:
    """The kernel file a request wrote, removed so the next request
    cannot be credited with it."""
    if request.kernel_path is None or not request.kernel_path.exists():
        return ""
    text = request.kernel_path.read_text(encoding="ascii")
    request.kernel_path.unlink()
    return text


def check_output(request: Request, code, stdout: str, stderr: str, kernel_text: str) -> list[str]:
    if code is None:
        return [f"raised: {stderr.strip().splitlines()[-1]}"]
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    slot = request.slot
    try:
        command = request.argv[0]
        if command == "kernelize":
            return checks.check_kernelize(slot.family, slot.n, slot.r, slot.k, stdout, kernel_text)
        inst = checks.read_rcsp(request.instance_path.read_text(encoding="ascii"))
        if command == "solve":
            return checks.check_solve(inst, slot.edits, stdout)
        return checks.check_approx(inst, stdout)
    except (checks.CheckFailed, KeyError, ValueError, IndexError) as exc:
        return [f"output unreadable: {exc!r}"]


def host_probe() -> float:
    """Seconds the fixed probe loop takes now: a reading of host speed."""
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t


def closed_loop(requests, seconds: float, tracer, limit: Optional[int]):
    """Send requests one after another until the time (or `limit`
    requests) is used up.  With a tracer, each request runs untraced and
    traced, alternating which goes first; without one, the host probe
    runs after each request.  Returns the untraced and the traced
    request times, the probe times, the loop's wall time without them,
    and a count of each distinct outcome."""
    untraced, traced, probes = [], [], []
    outcomes: dict[tuple, int] = {}
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        request = requests[i % len(requests)]
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for trace_on in modes:
            if trace_on:
                tracer.request = i
                tracer.install()
            t = time.perf_counter()
            try:
                result = call_cli(request.argv)
            finally:
                dt = time.perf_counter() - t
                if trace_on:
                    tracer.uninstall()
                    tracer.request = -1
            (traced if trace_on else untraced).append(dt)
            key = (request.index,) + result + (take_kernel(request),)
            outcomes[key] = outcomes.get(key, 0) + 1
        if tracer is None:
            probes.append(host_probe())
        i += 1
        if (i >= limit) if limit is not None else time.perf_counter() >= deadline:
            break
    return untraced, traced, probes, time.perf_counter() - start - sum(probes), outcomes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it, as (value, percentile).  Falls back to the maximum when there
    are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool, limit: Optional[int] = None) -> dict:
    workload = workloads.WORKLOADS[name]
    t = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t
    tracer = tracing.Tracer() if trace else None
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            if tracer:
                tracer.install()
            try:
                requests = build_requests(workload, seed, work)
            finally:
                if tracer:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - t)
            setup_probes += [host_probe() for _ in range(SETUP_PROBES)]
        untraced, traced, probes, wall, outcomes = closed_loop(requests, seconds, tracer, limit)
        attempted = failed = 0
        problems = []
        for (index, code, stdout, stderr, kernel_text), times in outcomes.items():
            attempted += times
            found = check_output(requests[index], code, stdout, stderr, kernel_text)
            if found:
                failed += times
                problems.append({"request": " ".join(requests[index].argv), "problems": found})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "failure_ratio": failed / attempted,
        "problems": problems,
        "setup_reps_s": setup_times,
        "import_s": import_s,
    }
    if trace:
        values, report["ratio_bases"] = tracing.layer_metrics(
            tracer.spans, len(traced), SETUP_REPS, sum(traced) / sum(untraced)
        )
        units = tracing.UNITS
        report["missing_trace_targets"] = tracer.missing
        report["spans"] = tracer.spans
        report["samples_s"] = {"untraced": untraced, "traced": traced}
    else:
        value, percentile = tail(untraced)
        wall_values = {
            "requests_per_s": len(untraced) / wall,
            "request_s.p50": statistics.median(untraced),
            "request_s.tail": value,
            "setup_s": import_s + statistics.median(setup_times),
        }
        speed = PROBE_REFERENCE_S / statistics.median(probes)
        setup_speed = PROBE_REFERENCE_S / statistics.median(setup_probes)
        values = {
            "requests_per_s": wall_values["requests_per_s"] / speed,
            "request_s.p50": wall_values["request_s.p50"] * speed,
            "request_s.tail": wall_values["request_s.tail"] * speed,
            "setup_s": wall_values["setup_s"] * setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        report["wall_values"] = wall_values
        report["host_speed"] = {"loop": speed, "setup": setup_speed}
        report["probe_s"] = {"loop": probes, "setup": setup_probes}
        report["tail_percentile"] = percentile
        report["samples_s"] = untraced
        report["loop_wall_s"] = wall
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "report": report,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> Optional[str]:
    """HEAD of the checkout from .git files; None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "denserank").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
        "workloads_sha256": workloads.definitions_sha256(),
    }


def print_report(name: str, result: dict, env: dict) -> None:
    report = result["report"]
    print(f"workload {name}: {result['attempted']} requests attempted, {result['failed']} failed")
    print(f"metric failure_ratio = {report['failure_ratio']} ratio "
          f"[{result['failed']} failed / {result['attempted']} attempted]")
    for entry in report["problems"]:
        print(f"check failed: {entry['request']}: {'; '.join(entry['problems'])}")
    if "tail_percentile" in report:
        samples = report["samples_s"]
        n = len(samples)
        beyond = sum(1 for x in samples if x > report["wall_values"]["request_s.tail"])
        notes = {
            "requests_per_s": f"{n} requests over {report['loop_wall_s']:.3f} s, 1 client, closed loop",
            "request_s.p50": f"median of {n} samples",
            "request_s.tail": f"p{report['tail_percentile']:.1f} of {n} samples, {beyond} beyond",
            "setup_s": f"import {report['import_s']:.4f} s + median of {SETUP_REPS} set-ups",
        }
        for key, wall_value in report["wall_values"].items():
            speed = report["host_speed"]["setup" if key == "setup_s" else "loop"]
            notes[key] += f"; {wall_value:.6g} as measured at host speed {speed:.4f}"
    else:
        bases = report["ratio_bases"]
        notes = {
            "kernel.search_hit_ratio": f"base {bases['kernel.search_calls_total']} search calls",
            "kernel.drop_hit_ratio": f"base {bases['kernel.drop_attempts_total']} drop attempts",
            "trace.overhead_ratio": f"{len(report['samples_s']['traced'])} request pairs",
        }
        if report["missing_trace_targets"]:
            print("missing trace targets: " + " ".join(report["missing_trace_targets"]))
    for key, metric in result["metrics"].items():
        note = f"  [{notes[key]}]" if key in notes else ""
        print(f"metric {key} = {metric['value']} {metric['unit']}{note}")
    print("environment " + json.dumps(env, sort_keys=True))


def write_results(name: str, seed: int, trace: bool, result: dict, env: dict) -> Path:
    out = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": name, "environment": env, **result}))
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a table."""
    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        summary[name] = json.loads(last)
    print()
    for name, result in summary.items():
        ratio = result["failed"] / result["attempted"]
        cells = [f"failure_ratio={ratio} ratio"] + [
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
        ]
        print(f"{name:24} " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    write_results(args.workload, args.seed, bool(args.trace), result, env)
    print_report(args.workload, result, env)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

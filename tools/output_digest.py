"""Digest of the output of every benchmark request, to show that a change
keeps the program's outputs byte-identical.

    python3 tools/output_digest.py --seed 1

Builds each workload's request pool with the benchmark's own functions
(`perfbench/run.py` and `perfbench/workloads.py`, imported, not changed):
the same instances, written the same way, and the same argv.  Every
request then runs once, in process, through `denserank.cli.main` from
this checkout's `src/`.  Each request adds its exit code, stdout, stderr
and the kernel file its `--out` wrote to the digest, with the pool
directory's path replaced by a fixed name, so the digests do not depend
on where the pool was written.  Prints one `<workload> <sha256>` line
per workload, then `all <sha256>` over those lines.  Run it on two
checkouts at the same seed and compare the output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def workload_digest(workload: workloads.Workload, seed: int, work: Path) -> str:
    """sha256 over the outputs of every request of one workload's pool,
    written to and run from the directory `work`."""
    digest = hashlib.sha256()
    for request in run.build_requests(workload, seed, work):
        code, stdout, stderr = run.call_cli(request.argv)
        for part in (str(code), stdout, stderr, run.take_kernel(request)):
            data = part.replace(str(work), "<pool>").encode()
            digest.update(b"%d:" % len(data) + data)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's run seed")
    args = parser.parse_args(argv)
    run.import_program()
    lines = []
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            lines.append(f"{name} {workload_digest(workload, args.seed, Path(work))}")
    lines.append(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

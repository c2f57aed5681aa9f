"""Benchmark of the pathgap CLI: timed workloads, oracle checks, layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid [--seed 0] [--seconds 35] [--trace 0]
    python3 perfbench/run.py --workload all

Each workload (see ``workloads.py``) is a list of real CLI invocations
passed to ``pathgap.cli.main`` in a child process, so parsing, solving,
bounds, serialisation and file output are all timed.  Every output point is
then checked against an independent mpmath oracle (``oracle.py``,
``checks.py``), outside the timed region.

With ``--trace 0`` the end-to-end metrics are reported:

* ``setup_s``: median over SETUP_RUNS fresh interpreters, spread over the
  run, of the time to import pathgap and run
  ``spectrum --k 1 --potential 0:5``;
* ``wall_s``: wall time of the whole command list in a warmed process,
  the mean over the run's passes;
* ``peak_rss_mb``: peak RSS of that process;
* ``gap_digits_min``: -log10 of ``gap_rel_err_max``, the largest relative
  gap error against the oracle over completed points not flagged
  ``precision_limited``, i.e. the correct digits of the least accurate gap
  the program vouches for.

The error itself is a rounding residue that varies several-fold between
seeds, while its digit count moves by about a tenth, so the digits are
the end-to-end figure.  ``gap_rel_err_max``, ``precision_limited_frac``
(flagged / completed gap points) and ``failed_frac`` (failed / attempted
points) are printed and written to the results file too; they are zero on
some workloads, so they are not end-to-end figures, and failures also
appear as ``failed`` in the JSON line.

With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of ``tracer.py`` are reported, with ``trace.overhead_s`` the
traced minus the untraced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A human-readable table and the
environment precede it, and the full record, environment included, goes to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 9
# A workload's run must end within 180 s; leave room for the oracle checks.
DEADLINE_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "gap_digits_min": "digits",
}
REPORTED = {"gap_rel_err_max": "1", "precision_limited_frac": "1", "failed_frac": "1"}
# A double carries about 16 significant digits; an exact gap reads as 17.
MAX_DIGITS = 17.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(src: Path, commands, seconds: int, trace: bool, workdir: str,
               deadline: float) -> dict:
    spec = {
        "src": str(src),
        "commands": [list(c.argv) for c in commands],
        "warmup": [list(c) for c in workloads.WARMUP],
        "seconds": seconds,
        "trace": trace,
        "setup_runs": 0 if trace else SETUP_RUNS,
    }
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(workdir, "worker.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"],
                cwd=workdir, stdout=log, stderr=log,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("workload did not finish before the deadline") from None
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: int, trace: bool, src: Path) -> dict:
    import checks  # imports mpmath; kept out of every timed region

    deadline = time.monotonic() + DEADLINE_S
    commands = workloads.build(name, seed)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        result = run_worker(src, commands, seconds, trace, workdir, deadline)
        passes = result["passes"]
        first = passes[0]
        checker = checks.Checker(workdir)
        outcome = checker.check(commands, first["codes"])
        if not trace:
            outcome.problems += checker.check_setup("setup.txt")
        if any(p["codes"] != first["codes"] or p["digest"] != first["digest"]
               for p in passes):
            outcome.problems.append("exit codes or output bytes differ between passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = result["layers"]
    else:
        values = {
            "setup_s": result["setup_s"],
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "gap_digits_min": min(MAX_DIGITS, -math.log10(outcome.gap_rel_err_max))
            if outcome.gap_rel_err_max > 0 else MAX_DIGITS,
        }
        metrics = {key: {"value": values[key], "unit": u} for key, u in END_TO_END.items()}
    reported = {
        "gap_rel_err_max": outcome.gap_rel_err_max,
        "precision_limited_frac": outcome.flagged / outcome.completed if outcome.completed else 0.0,
        "failed_frac": outcome.failed / outcome.attempted,
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "reported": {key: {"value": reported[key], "unit": u} for key, u in REPORTED.items()},
        "points": {"completed": outcome.completed, "flagged": outcome.flagged},
        "pass_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "problems": outcome.problems[:50],
        "spans": result.get("spans"),
    }


def environment(root: Path, seed: int) -> dict:
    import numpy

    numba = importlib.util.find_spec("numba")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "pathgap"),
        "seed": seed,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _print_table(results: list[dict]) -> None:
    print(f"{'workload':<12} {'metric':<40} {'value':>16}  unit")
    for res in results:
        for key, m in {**res["metrics"], **res["reported"]}.items():
            print(f"{res['workload']:<12} {key:<40} {m['value']:>16.6g}  {m['unit']}")
        print(f"{res['workload']:<12} {'points attempted / failed':<40} "
              f"{res['attempted']:>7} / {res['failed']:<6}  correct: {res['correct']}")
        for problem in res["problems"][:10]:
            print(f"{res['workload']:<12}   problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pathgap" / "cli.py").is_file():
        print("perfbench: no src/pathgap here; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = environment(root, args.seed)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), src))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for res in results:
        spans = res.pop("spans")
        label = f"{res['workload']}_seed{args.seed}_trace{args.trace}"
        with open(OUT / f"BENCH_{label}.json", "w") as fh:
            json.dump({"environment": env, **res}, fh, indent=2)
        if spans is not None:
            with open(OUT / f"SPANS_{label}.json", "w") as fh:
                json.dump(spans, fh)
    print("environment: " + json.dumps(env))
    _print_table(results)
    if len(results) == 1:
        res = results[0]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

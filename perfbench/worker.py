"""Child process that runs one workload's commands through ``pathgap.cli.main``.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``src`` (the directory ``pathgap`` is imported from),
``commands`` and ``warmup`` (argv lists), ``seconds``, ``trace`` and
``setup_runs``.  The worker runs in the directory its outputs go to.  It
runs the warm-up list untimed, then timed passes of the whole command list
for about ``seconds`` (at least two passes).
With ``trace`` set, passes alternate untraced and traced, ending on a
traced one.  Between passes it times ``setup_runs`` fresh interpreters
(``time_setup``).  Outputs are deleted before each pass and hashed after
it, so the parent can check that every pass wrote the same bytes; the last
pass's files are left in place.  RESULT_JSON receives each pass's wall
time, exit codes and digest, ``wall_s`` (see ``wall_time``), the median
set-up time, the peak RSS and, when traced, the per-layer metrics (medians
over traced passes) and the spans of the last traced pass.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

MAX_PASSES = 500
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pathgap.cli; "
    "sys.exit(pathgap.cli.main(['spectrum', '--k', '1', '--potential', '0:5', "
    "'--out', sys.argv[2]]))"
)


def run_commands(main, commands) -> list:
    """Exit code of each command; an exception is recorded by its text."""
    codes = []
    for argv in commands:
        try:
            codes.append(main(list(argv)))
        except SystemExit as err:  # argparse rejects its input this way
            codes.append(err.code if isinstance(err.code, int) else 2)
        except Exception as err:  # noqa: BLE001 - reported as a failed point
            traceback.print_exc()
            codes.append(f"{type(err).__name__}: {err}")
    return codes


def output_path(argv) -> str:
    return argv[argv.index("--out") + 1]


def digest_outputs(paths) -> tuple[str, int]:
    """sha256 over every output file (a missing one hashes as absent) and
    the total number of bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            digest.update(b"missing")
            continue
        total += len(data)
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest(), total


def remove_outputs(paths) -> None:
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def time_setup(src: str) -> float:
    """Seconds for a fresh interpreter to import pathgap and run
    ``spectrum --k 1 --potential 0:5`` through ``cli.main``; its output
    goes to setup.txt for the parent to check."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, src, "setup.txt"],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def wall_time(passes, traced: bool) -> float:
    """Wall time of the command list: the mean over passes, i.e. the whole
    timed window divided by its passes.  The host's speed swings by a
    quarter over seconds to minutes; a mean weighs slow and fast stretches
    by their length, where a median over short passes jumps between the
    two speeds from one run to the next."""
    return statistics.mean(p["wall_s"] for p in passes if p["traced"] == traced)


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import pathgap.cli

    commands = [tuple(c) for c in spec["commands"]]
    outputs = [output_path(c) for c in commands]
    trace = bool(spec["trace"])
    if trace:
        from tracer import Tracer, layer_metrics, median_metrics, unit

    run_commands(pathgap.cli.main, spec["warmup"])
    step = 2 if trace else 1
    passes = []
    layers = []
    setup_s = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        remove_outputs(outputs)
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer()
            with tracer.installed():
                codes = run_commands(tracer.main, commands)
        else:
            codes = run_commands(pathgap.cli.main, commands)
        wall = time.perf_counter() - t0
        digest, nbytes = digest_outputs(outputs)
        record = {"traced": traced, "wall_s": wall, "codes": codes, "digest": digest}
        if traced:
            layers.append(layer_metrics(tracer.spans, nbytes))
            spans = tracer.spans
        passes.append(record)
        # Set-up runs are spread over the run, so that their median, like
        # the pass times, is taken over the host's state across the run.
        due = spec["setup_runs"] * (time.perf_counter() - start) / spec["seconds"]
        while len(setup_s) < min(due, spec["setup_runs"]):
            setup_s.append(time_setup(spec["src"]))
        # Stop where the timed window ends nearest ``seconds``: before the
        # next pass (or traced pair) if that would overshoot by more than half.
        elapsed = time.perf_counter() - start
        if len(passes) % step == 0 and len(passes) >= 2:
            if elapsed + 0.5 * step * elapsed / len(passes) > spec["seconds"]:
                break
            if len(passes) >= MAX_PASSES:
                break
    while len(setup_s) < spec["setup_runs"]:
        setup_s.append(time_setup(spec["src"]))

    result = {
        "passes": passes,
        "wall_s": wall_time(passes, False),
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = wall_time(passes, True) - wall_time(passes, False)
        result["layers"] = {key: {"value": v, "unit": unit(key)} for key, v in metrics.items()}
        ids = {id(s): i for i, s in enumerate(spans)}
        result["spans"] = [
            {
                "name": s.name,
                "site": s.site,
                "parent": ids.get(id(s.parent)),
                "point": s.point,
                "start": s.start,
                "duration": s.duration,
                "self": s.self_time,
                "error": s.error,
            }
            for s in spans
        ]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

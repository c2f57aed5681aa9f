"""Checks of every output point against the oracles, and failure accounting.

A point is one k of a grid command, one alpha of an alpha-scan, one
``spectrum`` call or one ``fit``; all but fits are gap points, which the
accuracy and flag figures are taken over.  A point fails on an unexpected exit
code, a raised exception, unparseable or missing output, a value outside
the oracle check, or a bound that does not hold.  Every failure except a
numerical non-convergence (exit 3, which the CLI documents) also makes the
run incorrect: the program either rejected valid input or said something
false.  Points after a failed sweep's abort count as failed too.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle
from workloads import Command, parse_entries

# Each eigenvalue must lie within this many ulp of the operator's norm
# bound (4 + max strength) of the oracle.  Bisection resolves an eigenvalue
# to about one rounding of a Sturm count; the largest error seen over the
# three workloads and ten seeds was 0.84 ulp.
LAMBDA_ULPS = 16
# Unflagged gaps are at least 1e3 ulp of the norm bound, so an ulp or two
# of eigenvalue error is a relative gap error of a few 1e-3 at worst (the
# largest seen was 3.5e-5).
GAP_RTOL = 1e-2
# Fitted exponent against a fit of the oracle gaps at the same points.
EXPONENT_ATOL = 1e-4
NUMERICAL_FAILURE = 3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    completed: int = 0
    flagged: int = 0
    gap_rel_err_max: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems


class Checker:
    """Checks command outputs in ``workdir``; oracle values are memoised."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._levels: dict = {}

    def levels(self, k: int, entries):
        key = (k, entries)
        if key not in self._levels:
            self._levels[key] = oracle.levels(k, entries)
        return self._levels[key]

    def check(self, commands: list[Command], codes: list) -> Outcome:
        out = Outcome()
        failed_outputs: set[str] = set()
        for cmd, code in zip(commands, codes):
            out.attempted += cmd.points
            if not self._exit_ok(cmd, code):
                out.failed += cmd.points
                failed_outputs.add(cmd.out)
                consequential = cmd.kind == "fit" and cmd.source in failed_outputs
                if code != NUMERICAL_FAILURE and not consequential:
                    out.wrong += cmd.points
                    out.problems.append(f"{' '.join(cmd.argv)}: exit {code}")
                continue
            try:
                bad = self._check_output(cmd, out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
                out.failed += cmd.points
                out.wrong += cmd.points
                out.problems.append(f"{' '.join(cmd.argv)}: unreadable output ({err})")
                continue
            out.failed += bad
            out.wrong += bad
        return out

    def check_setup(self, name: str) -> list[str]:
        """Problems with the set-up run's output: ``spectrum --k 1
        --potential 0:5`` in the default ``key = value`` format."""
        try:
            fields = dict(line.split(" = ", 1) for line in self._read(name).splitlines())
            problem = self._check_point(
                1, ((0, 5.0),), float(fields["lambda0"]), float(fields["lambda1"]),
                float(fields["gap"]), _flag(fields["precision_limited"]), Outcome(),
            )
        except (OSError, ValueError, KeyError) as err:
            problem = f"unreadable output ({err})"
        return [] if problem is None else [f"set-up run: {problem}"]

    @staticmethod
    def _exit_ok(cmd: Command, code) -> bool:
        return code == 0 or (cmd.kind == "verify-bounds" and code == 1)

    def _read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name)) as fh:
            return fh.read()

    def _check_output(self, cmd: Command, out: Outcome) -> int:
        """Checks every point of one output file; returns the failed points."""
        if cmd.kind == "fit":
            return self._check_fit(cmd, out)
        entries = parse_entries(cmd.potential)
        text = self._read(cmd.out)
        if cmd.kind == "gap-scan":
            rows = _csv_rows(text)
            points = [
                (int(r["k"]), entries, float(r["lambda0"]), float(r["lambda1"]),
                 float(r["gap"]), _flag(r["precision_limited"]))
                for r in rows
            ]
        elif cmd.kind == "alpha-scan":
            rows = _csv_rows(text)
            if [float(r["alpha"]) for r in rows] != [float(a) for a in cmd.alphas]:
                raise ValueError("alpha column differs from the requested alphas")
            points = [
                (int(r["k"]), tuple((s, a * float(r["alpha"])) for s, a in entries),
                 None, None, float(r["gap"]), _flag(r["precision_limited"]))
                for r in rows
            ]
        elif cmd.kind == "spectrum":
            p = json.loads(text)
            points = [(int(p["k"]), entries, float(p["lambda0"]), float(p["lambda1"]),
                       float(p["gap"]), _flag(p["precision_limited"]))]
        else:
            report = json.loads(text)
            holds = [bool(p["all_hold"]) for p in report["points"]]
            if report["all_hold"] is not all(holds):
                raise ValueError("all_hold disagrees with the per-point flags")
            points = [
                (int(p["k"]), entries, float(p["lambda0"]), float(p["lambda1"]),
                 float(p["gap"]), False)
                for p in report["points"]
            ]
        expected = list(cmd.ks) * (len(cmd.alphas) if cmd.kind == "alpha-scan" else 1)
        if [p[0] for p in points] != expected:
            raise ValueError(f"k values {[p[0] for p in points]} != expected {expected}")
        bad = 0
        for i, (k, ents, lam0, lam1, gap, flagged) in enumerate(points):
            problem = self._check_point(k, ents, lam0, lam1, gap, flagged, out)
            if problem is None and cmd.kind == "verify-bounds" and not holds[i]:
                problem = "a bound check does not hold"
            if problem is not None:
                bad += 1
                out.problems.append(f"{' '.join(cmd.argv)}: k = {k}: {problem}")
        return bad

    def _check_point(self, k, entries, lam0, lam1, gap, flagged, out: Outcome):
        out.completed += 1
        want0, want1 = self.levels(k, entries)
        want_gap = want1 - want0
        norm = 4.0 + max((a for _, a in entries), default=0.0)
        tol = LAMBDA_ULPS * math.ulp(norm)
        rel = float(abs(gap - want_gap) / want_gap)
        if flagged:
            out.flagged += 1
        else:
            out.gap_rel_err_max = max(out.gap_rel_err_max, rel)
        for name, got, want in (("lambda0", lam0, want0), ("lambda1", lam1, want1)):
            if got is not None and not abs(got - want) <= tol:
                return f"{name} = {got!r}, oracle {float(want)!r}"
        if flagged and not abs(gap - want_gap) <= 2 * tol:
            return f"flagged gap = {gap!r}, oracle {float(want_gap)!r}"
        if not flagged and not rel <= GAP_RTOL:
            return f"gap = {gap!r}, oracle {float(want_gap)!r} (relative error {rel:.3g})"
        return None

    def _check_fit(self, cmd: Command, out: Outcome) -> int:
        fit = json.loads(self._read(cmd.out))
        rows = [r for r in _csv_rows(self._read(cmd.source)) if not _flag(r["precision_limited"])]
        entries = parse_entries(cmd.potential)
        ns = np.array([float(r["n"]) for r in rows])
        gaps = []
        for r in rows:
            want0, want1 = self.levels(int(r["k"]), entries)
            gaps.append(float(want1 - want0))
        exponent = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
        problem = None
        if int(fit["points_used"]) != len(rows):
            problem = f"points_used = {fit['points_used']}, unflagged rows {len(rows)}"
        elif not abs(float(fit["exponent"]) - exponent) <= EXPONENT_ATOL:
            problem = f"exponent = {fit['exponent']!r}, oracle fit {exponent!r}"
        if problem is None:
            return 0
        out.problems.append(f"{' '.join(cmd.argv)}: {problem}")
        return 1


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _flag(value) -> bool:
    if value in (True, "true"):
        return True
    if value in (False, "false"):
        return False
    raise ValueError(f"bad precision_limited value {value!r}")


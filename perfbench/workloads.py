"""The benchmark's workloads: lists of real ``pathgap`` CLI invocations.

Each workload is built from a seed.  Seed 0 gives the grids exactly as
listed below; any other seed jitters every grid end, every fixed k and every
ladder strength by up to JITTER (relative), so a claim can be rechecked on
inputs nobody tuned for.

* ``paper-grid``: the paper's reproduction run on the acceptance grid
  100:1600:geometric:16.  Mid-size n, where bisection in
  ``_kernels.bisect_bracket`` is about 95% of the wall time.
* ``small-k``: many small problems, where fixed per-point cost (argparse,
  assembly, bounds, JSON) is a real share, plus a strength ladder of one
  ``spectrum`` call per point so that one failure (exit 3) does not hide
  its neighbours.  At seed 0, 12 of the 48 ladder points exit 3.
* ``deep-origin``: n up to 51201, where the O(n) path costs seconds per
  point and the gap reaches the double-precision floor (the last point is
  flagged ``precision_limited``).  No bounds are evaluated.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

JITTER = 0.03
NAMES = ("paper-grid", "small-k", "deep-origin")

PAPER_GRID = (100, 1600, "geometric", 16)
BOUND_POTENTIALS = ("0:1", "0:8", "-2:5,3:7", "-1:2,0:3,1:2")
ALPHAS = (0.5, 1, 2, 4, 8, 16)
SMALL_GRID = (4, 40, "linear", 37)
# -2:5,3:7 needs k - 3 >= 1, so no small-k grid may start below 4.
SMALL_K_MIN = 4
LADDER_KS = (5, 20, 80)
LADDER_EXPONENTS = range(-3, 13)
DEEP_GRID = (3200, 25600, "geometric", 4)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output file must hold.

    ``kind`` names the output format; ``potential`` is the spec string and
    ``ks`` the k values expected in the output, in order.  ``alphas`` are
    the strength factors of an alpha-scan.  ``source`` is the gap-scan CSV
    a ``fit`` reads, and ``potential`` that scan's.
    """

    argv: tuple[str, ...]
    kind: str
    out: str
    potential: str = "none"
    ks: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    source: str | None = None

    @property
    def points(self) -> int:
        if self.kind == "fit":
            return 1
        return len(self.alphas) if self.kind == "alpha-scan" else len(self.ks)


def parse_entries(spec: str) -> tuple[tuple[int, float], ...]:
    """``site:strength,...`` -> sorted ((site, strength), ...); ``none`` -> ()."""
    if spec == "none":
        return ()
    pairs = (token.split(":") for token in spec.split(","))
    return tuple(sorted((int(s), float(a)) for s, a in pairs))


def grid_values(lo: int, hi: int, kind: str, count: int) -> tuple[int, ...]:
    """The k values a ``min:max:kind:count`` grid stands for."""
    if kind == "geometric":
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return tuple(sorted({round(lo * ratio**i) for i in range(count)}))
    return tuple(sorted({round(v) for v in np.linspace(lo, hi, count)}))


class _Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed) if seed else None

    def factor(self) -> float:
        if self._rng is None:
            return 1.0
        return 1.0 + self._rng.uniform(-JITTER, JITTER)

    def k(self, k: int, floor: int = 1) -> int:
        return max(floor, round(k * self.factor()))

    def grid(self, grid, floor: int = 1) -> tuple[int, int, str, int]:
        lo, hi, kind, count = grid
        lo = self.k(lo, floor)
        return lo, max(lo + 1, self.k(hi, floor)), kind, count


def _grid_spec(grid) -> str:
    return ":".join(str(v) for v in grid)


def _gap_scan(potential: str, grid, out: str) -> Command:
    argv = ("gap-scan", f"--potential={potential}", "--k-grid", _grid_spec(grid),
            "--no-timestamp", "--out", out)
    return Command(argv, "gap-scan", out, potential, grid_values(*grid))


def _fit(scan: Command, out: str) -> Command:
    return Command(("fit", scan.out, "--no-timestamp", "--out", out), "fit", out,
                   scan.potential, source=scan.out)


def _verify_bounds(potential: str, grid, out: str) -> Command:
    argv = ("verify-bounds", f"--potential={potential}", "--k-grid",
            _grid_spec(grid), "--no-timestamp", "--out", out)
    return Command(argv, "verify-bounds", out, potential, grid_values(*grid))


def build(name: str, seed: int) -> list[Command]:
    """The command list of workload ``name`` for ``seed``."""
    jit = _Jitter(seed)
    if name == "paper-grid":
        grid = jit.grid(PAPER_GRID)
        k = jit.k(800)
        free, origin = _gap_scan("none", grid, "free.csv"), _gap_scan("0:1", grid, "origin.csv")
        cmds = [free, origin, _fit(free, "fit-free.json"), _fit(origin, "fit-origin.json")]
        cmds += [_verify_bounds(p, grid, f"bounds-{i}.json")
                 for i, p in enumerate(BOUND_POTENTIALS)]
        argv = ("alpha-scan", "--potential=0:1", "--k", str(k), "--alphas",
                ",".join(format(a, "g") for a in ALPHAS), "--no-timestamp",
                "--out", "alpha.csv")
        cmds.append(Command(argv, "alpha-scan", "alpha.csv", "0:1", (k,), ALPHAS))
        return cmds
    if name == "small-k":
        grid = jit.grid(SMALL_GRID, SMALL_K_MIN)
        cmds = [_verify_bounds(p, grid, f"bounds-{i}.json")
                for i, p in enumerate(BOUND_POTENTIALS)]
        for k0 in LADDER_KS:
            k = jit.k(k0)
            for e in LADDER_EXPONENTS:
                potential = f"0:{format(10.0**e * jit.factor(), '.6g')}"
                out = f"ladder-{k0}-{e}.json"
                argv = ("spectrum", "--k", str(k), f"--potential={potential}",
                        "--format", "json", "--out", out)
                cmds.append(Command(argv, "spectrum", out, potential, (k,)))
        return cmds
    if name == "deep-origin":
        scan = _gap_scan("0:1", jit.grid(DEEP_GRID), "deep.csv")
        return [scan, _fit(scan, "fit-deep.json")]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# A short list through every command, run untimed before the first pass.
WARMUP = [
    ("spectrum", "--k", "3", "--potential=0:5", "--format", "json", "--out", "warm-1.json"),
    ("gap-scan", "--potential=0:1", "--k-grid", "4:8:linear:5", "--no-timestamp",
     "--out", "warm.csv"),
    ("fit", "warm.csv", "--no-timestamp", "--out", "warm-2.json"),
    ("verify-bounds", "--potential=-1:2,0:3,1:2", "--k-grid", "4:6:linear:3",
     "--no-timestamp", "--out", "warm-3.json"),
    ("alpha-scan", "--potential=0:1", "--k", "6", "--alphas", "1,2", "--no-timestamp",
     "--out", "warm.txt"),
]

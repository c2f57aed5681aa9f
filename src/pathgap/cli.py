"""Command-line front end.

Commands::

    spectrum       two lowest eigenvalues, gap, and ground-state summary
    gap-scan       gap sweep over a k grid, CSV (or JSON)
    alpha-scan     gap at fixed k for a list of strength scale factors
    verify-bounds  evaluate every analytic bound over a grid, JSON report
    fit            power-law fit of a gap-scan CSV, JSON

Exit codes: 0 success / all applicable checks hold, 1 a bound check failed,
2 input or parse error, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .bounds import evaluate_bounds
from .eigensolver import ConvergenceError, PositivityError, spectrum_low
from .operators import Potential, assemble_hamiltonian, build_path, build_potential
from .scaling import (
    GapSeries,
    fit_power_law,
    gap_series,
    geometric_grid,
    linear_grid,
    series_from_csv,
    series_to_csv,
)

__all__ = ["RunConfig", "parse_potential_spec", "parse_k_grid", "run", "main"]


@dataclass
class RunConfig:
    command: str
    potential_spec: str = "none"
    k: int | None = None
    k_grid: list[int] | None = None
    alphas: list[float] | None = None
    epsilon: float = 1.0
    k_min: int = 10
    out: str | None = None
    fmt: str = "csv"
    timestamp: bool = True
    rel_tol: float = 1e-14
    band_k_min: int = 100
    input_path: str | None = None


def parse_potential_spec(s: str) -> Potential:
    """Parse ``site:strength[,site:strength]*``; ``none`` is the empty
    baseline.  Parse errors name the offending token (1-based);
    ``build_potential`` then validates the pairs, naming token i as pair i."""
    compact = "".join(s.split())
    if compact.lower() == "none":
        return build_potential([], empty_baseline=True)
    if not compact:
        raise ValueError("empty potential spec (use 'none' for the free baseline)")
    pairs: list[tuple[int, float]] = []
    for i, token in enumerate(compact.split(","), start=1):
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"malformed token {i} ({token!r}): expected site:strength")
        try:
            site = int(parts[0])
        except ValueError:
            raise ValueError(f"bad site at token {i} ({parts[0]!r})") from None
        try:
            strength = float(parts[1])
        except ValueError:
            raise ValueError(f"bad strength at token {i} ({parts[1]!r})") from None
        pairs.append((site, strength))
    return build_potential(pairs)


def parse_k_grid(s: str) -> list[int]:
    """Parse ``min:max:geometric|linear:count``."""
    parts = s.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad k-grid {s!r}: expected min:max:geometric|linear:count"
        )
    try:
        lo, hi, count = int(parts[0]), int(parts[1]), int(parts[3])
    except ValueError:
        raise ValueError(f"bad k-grid {s!r}: min, max, count must be integers") from None
    kind = parts[2]
    if kind == "geometric":
        return geometric_grid(lo, hi, count)
    if kind == "linear":
        return linear_grid(lo, hi, count)
    raise ValueError(f"bad k-grid kind {kind!r}: use geometric or linear")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_json(value, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats (non-finite
    values become null)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 2)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(value)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise ValueError("spectrum requires --k")
    potential = parse_potential_spec(cfg.potential_spec)
    op = assemble_hamiltonian(build_path(cfg.k), potential)
    res = spectrum_low(op, rel_tol=cfg.rel_tol)
    phi = res.ground_state
    n = op.n
    payload = {
        "k": cfg.k,
        "n": n,
        "potential": potential.spec_string(),
        "lambda0": res.lambda0,
        "lambda1": res.lambda1,
        "gap": res.gap,
        "gap_n2": n**2 * res.gap,
        "gap_n3": n**3 * res.gap,
        "precision_limited": res.precision_limited,
        "ground_state_min": float(np.min(phi)),
        "ground_state_max": float(np.max(phi)),
        "ground_state_at_origin": float(phi[cfg.k]),
    }
    if cfg.fmt == "json":
        _emit(to_json(payload) + "\n", cfg.out)
    else:
        lines = [f"{key} = {_json_scalar(val)}" for key, val in payload.items()]
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_gap_scan(cfg: RunConfig) -> int:
    if cfg.k_grid is None:
        raise ValueError("gap-scan requires --k-grid")
    potential = parse_potential_spec(cfg.potential_spec)
    series = gap_series(potential, cfg.k_grid)
    if cfg.fmt == "json":
        payload = {
            "potential": potential.spec_string(),
            "points": [
                {
                    "k": pt.k,
                    "n": pt.n,
                    "lambda0": pt.lambda0,
                    "lambda1": pt.lambda1,
                    "gap": pt.gap,
                    "precision_limited": pt.precision_limited,
                }
                for pt in series.points
            ],
        }
        if cfg.timestamp:
            payload = {"generated": _now(), **payload}
        _emit(to_json(payload) + "\n", cfg.out)
    else:
        _emit(series_to_csv(series, _now() if cfg.timestamp else None), cfg.out)
    return 0


def _cmd_alpha_scan(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise ValueError("alpha-scan requires --k")
    if not cfg.alphas:
        raise ValueError("alpha-scan requires --alphas")
    base = parse_potential_spec(cfg.potential_spec)
    if base.is_empty:
        raise ValueError("alpha-scan needs a non-empty base potential to scale")
    n = 2 * cfg.k + 1
    rows = []
    for a in cfg.alphas:
        op = assemble_hamiltonian(build_path(cfg.k), base.scaled(a))
        res = spectrum_low(op, rel_tol=cfg.rel_tol)
        rows.append((a, res.gap, a * n**3 * res.gap, res.precision_limited))
    lines = []
    if cfg.timestamp:
        lines.append(f"# generated {_now()}")
    lines.append("alpha,k,n,gap,alpha_n3_gap,precision_limited")
    for a, gap, scaled, flag in rows:
        lines.append(
            ",".join(
                [
                    format(a, ".17g"),
                    str(cfg.k),
                    str(n),
                    format(gap, ".17g"),
                    format(scaled, ".17g"),
                    "true" if flag else "false",
                ]
            )
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_verify_bounds(cfg: RunConfig) -> int:
    grid = cfg.k_grid if cfg.k_grid is not None else ([cfg.k] if cfg.k else None)
    if not grid:
        raise ValueError("verify-bounds requires --k-grid or --k")
    if not (math.isfinite(cfg.epsilon) and cfg.epsilon > 0):
        raise ValueError(f"--epsilon must be finite and positive, got {cfg.epsilon}")
    potential = parse_potential_spec(cfg.potential_spec)
    if potential.is_empty:
        raise ValueError("verify-bounds needs a non-empty potential")
    reports = []
    for k in grid:
        op = assemble_hamiltonian(build_path(k), potential)
        res = spectrum_low(op, rel_tol=cfg.rel_tol)
        reports.append(evaluate_bounds(k, potential, res, cfg.epsilon, cfg.k_min))
    all_hold = all(rep.all_hold for rep in reports)
    payload = {
        "potential": potential.spec_string(),
        "epsilon": cfg.epsilon,
        "k_min": cfg.k_min,
        "all_hold": all_hold,
        "points": [rep.to_dict() for rep in reports],
    }
    if cfg.timestamp:
        payload = {"generated": _now(), **payload}
    _emit(to_json(payload) + "\n", cfg.out)
    return 0 if all_hold else 1


def _cmd_fit(cfg: RunConfig) -> int:
    if not cfg.input_path:
        raise ValueError("fit requires a gap-scan CSV path")
    if cfg.input_path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(cfg.input_path) as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read {cfg.input_path}: {err}") from None
    series: GapSeries = series_from_csv(text)
    fit = fit_power_law(series, band_k_min=cfg.band_k_min)
    payload = fit.to_dict()
    payload["points_used"] = len(series.points) - fit.points_excluded
    if cfg.timestamp:
        payload = {"generated": _now(), **payload}
    _emit(to_json(payload) + "\n", cfg.out)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "gap-scan": _cmd_gap_scan,
    "alpha-scan": _cmd_alpha_scan,
    "verify-bounds": _cmd_verify_bounds,
    "fit": _cmd_fit,
}


def run(config: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit code."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", default="none", metavar="SPEC",
                   help="site:strength[,site:strength]* or 'none'; use "
                        "--potential=SPEC when SPEC starts with a negative site")
    p.add_argument("--k", type=int, default=None, help="half-width of the path")
    p.add_argument("--k-grid", default=None, metavar="MIN:MAX:KIND:COUNT",
                   help="k sweep, KIND is geometric or linear")
    p.add_argument("--alphas", default=None, metavar="A,B,C",
                   help="comma-separated strength scale factors")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="trial-state floor parameter, finite and > 0 (default 1)")
    p.add_argument("--k-min", type=int, default=10,
                   help="threshold for asymptotic-only checks (default 10)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default stdout)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                   help="omit the timestamp line/field for reproducible bytes")
    p.add_argument("--tol", dest="rel_tol", type=float, default=1e-14, metavar="REL",
                   help="relative bisection tolerance (default 1e-14)")
    p.add_argument("--band-k-min", type=int, default=100,
                   help="smallest k entering band statistics (default 100)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgap",
        description="Spectral gaps of discrete Schrodinger operators on path graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "two lowest eigenvalues and gap at one (k, potential)"),
        ("gap-scan", "gap sweep over a k grid"),
        ("alpha-scan", "gap at fixed k across strength scale factors"),
        ("verify-bounds", "evaluate all analytic bounds over a grid"),
        ("fit", "power-law fit of a gap-scan CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "fit":
            p.add_argument("input", metavar="CSV", help="gap-scan CSV path or -")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            potential_spec=args.potential,
            k=args.k,
            k_grid=parse_k_grid(args.k_grid) if args.k_grid else None,
            alphas=[float(a) for a in args.alphas.split(",")] if args.alphas else None,
            epsilon=args.epsilon,
            k_min=args.k_min,
            out=args.out,
            fmt=args.fmt,
            timestamp=args.timestamp,
            rel_tol=args.rel_tol,
            band_k_min=args.band_k_min,
            input_path=getattr(args, "input", None),
        )
        return run(cfg)
    except (ConvergenceError, PositivityError) as err:
        print(f"pathgap: numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"pathgap: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands::

    spectrum       two lowest eigenvalues, gap, and ground-state summary, as
                   ``key = value`` lines (``--format text``, the default) or JSON
    gap-scan       gap sweep over a k grid, CSV
    alpha-scan     gap at fixed k for a list of strength scale factors, CSV
    verify-bounds  evaluate every analytic bound over a grid, JSON report
    fit            power-law fit of a gap-scan CSV, JSON

Each command takes only the options its handler reads (``_COMMANDS``), plus
``--out`` and ``--no-timestamp``; any other option, or an abbreviated one,
exits 2.  The solver and the bound and fit settings are not options:
gap-scan and alpha-scan take each level by secant steps inside brackets
certified by a Sturm count that costs O(support)
(``eigensolver.eigenvalues_low``), at any k; spectrum and verify-bounds
bisect both levels on the O(n) Sturm count to the relative width
``eigensolver.REL_TOL`` inside those brackets, which decide the count at
almost every midpoint, and take the free path's closed forms.  The trial
state uses ``bounds.EPSILON`` and band statistics start at
``scaling.BAND_K_MIN``.

Exit codes: 0 success / all applicable checks hold, 1 a bound check failed,
2 input or parse error (an unreadable input, an unwritable ``--out`` or a
path too long for memory too), 3 numerical failure: no ground state that
both the glued closed form's error bound and one inverse-iteration solve
vouch for, as on mirror-symmetric double barriers such as
``-1:1e8,1:1e8`` or a strong single site off the origin such as
``3:1e15`` at k = 20 (spectrum and verify-bounds only).
"""
from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .bounds import EPSILON, evaluate_bounds
from .eigensolver import ConvergenceError, eigenvalues_low, spectrum_low
from .operators import Potential, assemble_hamiltonian, build_potential
from .scaling import (
    GapSeries,
    fit_power_law,
    gap_series,
    geometric_grid,
    linear_grid,
    series_from_csv,
    series_to_csv,
)

__all__ = ["parse_potential_spec", "parse_k_grid", "main"]


def parse_potential_spec(s: str) -> Potential:
    """Parse ``site:strength[,site:strength]*``; ``none`` is the empty
    baseline.  Parse errors name the offending token (1-based);
    ``build_potential`` then validates the pairs, naming token i as pair i."""
    compact = "".join(s.split())
    if compact.lower() == "none":
        return build_potential([])
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
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write {out}: {err}") from None


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    """JSON report to ``--out``, led by a "generated" field unless
    ``--no-timestamp``."""
    if args.timestamp:
        payload = {"generated": _now(), **payload}
    _emit(to_json(payload) + "\n", args.out)


def _spectrum_low(op):
    """``spectrum_low(op)``, with a MemoryError that names k."""
    try:
        return spectrum_low(op)
    except MemoryError:
        raise MemoryError(f"out of memory at k = {op.k}") from None


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.k is None:
        raise ValueError("spectrum requires --k")
    potential = parse_potential_spec(args.potential)
    op = assemble_hamiltonian(args.k, potential)
    res = _spectrum_low(op)
    phi = res.ground_state
    n = op.n
    payload = {
        "k": args.k,
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
        "ground_state_at_origin": float(phi[args.k]),
    }
    if args.fmt == "json":
        _emit(to_json(payload) + "\n", args.out)
    else:
        lines = [f"{key} = {_json_scalar(val)}" for key, val in payload.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gap_scan(args: argparse.Namespace) -> int:
    if args.k_grid is None:
        raise ValueError("gap-scan requires --k-grid")
    k_values = parse_k_grid(args.k_grid)
    potential = parse_potential_spec(args.potential)
    series = gap_series(potential, k_values)
    _emit(series_to_csv(series, _now() if args.timestamp else None), args.out)
    return 0


def _cmd_alpha_scan(args: argparse.Namespace) -> int:
    if args.k is None:
        raise ValueError("alpha-scan requires --k")
    if not args.alphas:
        raise ValueError("alpha-scan requires --alphas")
    alphas = []
    for i, token in enumerate(args.alphas.split(","), start=1):
        try:
            alphas.append(float(token))
        except ValueError:
            raise ValueError(f"bad alpha at token {i} ({token!r})") from None
    base = parse_potential_spec(args.potential)
    if base.is_empty:
        raise ValueError("alpha-scan needs a non-empty base potential to scale")
    n = 2 * args.k + 1
    lines = []
    if args.timestamp:
        lines.append(f"# generated {_now()}")
    lines.append("alpha,k,n,gap,alpha_n3_gap,precision_limited")
    for a in alphas:
        op = assemble_hamiltonian(args.k, base.scaled(a))
        res = eigenvalues_low(op)
        row = (a, args.k, n, res.gap, a * n**3 * res.gap, res.precision_limited)
        lines.append(",".join(_json_scalar(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    if args.k_grid is None:
        raise ValueError("verify-bounds requires --k-grid")
    grid = parse_k_grid(args.k_grid)
    potential = parse_potential_spec(args.potential)
    if potential.is_empty:
        raise ValueError("verify-bounds needs a non-empty potential")
    points = []
    for k in grid:
        op = assemble_hamiltonian(k, potential)
        points.append(evaluate_bounds(op, _spectrum_low(op)).to_dict())
    all_hold = all(point["all_hold"] for point in points)
    payload = {
        "potential": potential.spec_string(),
        "epsilon": EPSILON,
        "all_hold": all_hold,
        "points": points,
    }
    _emit_json(payload, args)
    return 0 if all_hold else 1


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read {args.input}: {err}") from None
    series: GapSeries = series_from_csv(text)
    fit = fit_power_law(series)
    payload = fit.to_dict()
    payload["points_used"] = len(series.points) - fit.points_excluded
    _emit_json(payload, args)
    return 0


_OPTIONS = {
    "input": dict(metavar="CSV", help="gap-scan CSV path or -"),
    "--potential": dict(
        default="none", metavar="SPEC",
        help="site:strength[,site:strength]* or 'none'; use --potential=SPEC "
             "when SPEC starts with a negative site"),
    "--k": dict(type=int, default=None, help="half-width of the path"),
    "--k-grid": dict(default=None, metavar="MIN:MAX:KIND:COUNT",
                     help="k sweep, KIND is geometric or linear"),
    "--alphas": dict(default=None, metavar="A,B,C",
                     help="comma-separated strength scale factors"),
    "--format": dict(dest="fmt", choices=("text", "json"), default="text"),
}

_COMMANDS = (
    ("spectrum", _cmd_spectrum, "two lowest eigenvalues and gap at one (k, potential)",
     ("--potential", "--k", "--format")),
    ("gap-scan", _cmd_gap_scan, "gap sweep over a k grid",
     ("--potential", "--k-grid")),
    ("alpha-scan", _cmd_alpha_scan, "gap at fixed k across strength scale factors",
     ("--potential", "--k", "--alphas")),
    ("verify-bounds", _cmd_verify_bounds, "evaluate all analytic bounds over a grid",
     ("--potential", "--k-grid")),
    ("fit", _cmd_fit, "power-law fit of a gap-scan CSV", ("input",)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgap",
        description="Spectral gaps of discrete Schrodinger operators on path graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _COMMANDS:
        # no abbreviations: one would let gap-scan take --k as --k-grid
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default stdout)")
        p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                       help="omit the timestamp line/field for reproducible bytes")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as err:
        print(f"pathgap: numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as err:
        print(f"pathgap: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

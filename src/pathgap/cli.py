"""Command-line front end, and the one module that turns results into
bytes and back.

Commands::

    spectrum       two lowest eigenvalues, gap, and ground-state summary, as
                   ``key = value`` lines (``--format text``, the default) or JSON
    gap-scan       gap sweep over a k grid, CSV
    alpha-scan     gap at fixed k for a list of strength scale factors, CSV
    verify-bounds  evaluate every analytic bound over a grid, JSON report
    fit            power-law fit of a gap-scan CSV, JSON

Each command takes only the options its handler reads (``_COMMANDS``), plus
``--out`` and ``--no-timestamp``; the parser exits 2 on any other option, an
abbreviated one, or a missing ``--k``, ``--k-grid`` or ``--alphas``.  The
solver and the bound and fit settings are not options: every command takes
each level by secant steps inside brackets certified by a Sturm count that
costs O(support) (``eigensolver.eigenvalues_low``), at any k, and spectrum
and verify-bounds add the ground state, a length-n array
(``eigensolver.spectrum_low``).  The trial state uses ``bounds.EPSILON``
and band statistics start at ``scaling.BAND_K_MIN``.

Every format is here: the spec syntax and its inverse ``spec_string``,
the report fields, and the gap-scan CSV and its reader.  Both CSVs take
one field rule (``_scalar``: 17 significant digits, ``nan`` and ``inf``
as such), which JSON shares with null for None and non-finite floats.

Exit codes: 0 success / all applicable checks hold, 1 a bound check failed,
2 input or parse error (an unreadable input, an unwritable ``--out``, a k
that ``check_half_width`` rejects or a path too long for memory too), 3
numerical failure: no ground state that both the glued closed form's error
bound and one inverse-iteration solve vouch for, as on mirror-symmetric
double barriers such as ``-1:1e8,1:1e8`` at k = 20 (spectrum and
verify-bounds only).
"""
from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

from .bounds import EPSILON, BoundsReport, evaluate_bounds
from .eigensolver import ConvergenceError, SpectralResult, eigenvalues_low, spectrum_low
from .operators import Potential, assemble_hamiltonian, build_potential, check_half_width
from .scaling import ScalingFit, fit_power_law, gap_series, geometric_grid, linear_grid

__all__ = ["CSV_HEADER", "parse_potential_spec", "spec_string", "parse_k_grid", "to_json",
           "series_to_csv", "series_from_csv", "report_fields", "fit_fields", "main"]

CSV_HEADER = "k,n,alpha_sum,lambda0,lambda1,gap,gap_n2,gap_n3,precision_limited"


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


def spec_string(potential: Potential) -> str:
    """Inverse of ``parse_potential_spec``, ``none`` for the empty baseline.

    Each strength is written with ``:g`` when that reads back as the same
    float, and with ``repr`` otherwise.
    """
    if potential.is_empty:
        return "none"
    return ",".join(f"{s}:{a:g}" if float(f"{a:g}") == a else f"{s}:{a!r}"
                    for s, a in potential.entries)


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


def _scalar(value) -> str:
    """A CSV field: true/false, an int, or a float that ``float`` reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_scalar(value) -> str:
    """``_scalar``, with null for None and non-finite floats; strings quoted."""
    if value is None:
        return "null"
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return _scalar(value)


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


def _timestamp(args: argparse.Namespace) -> str | None:
    """The UTC time of the run, or None under ``--no-timestamp``."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ") if args.timestamp else None


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
    timestamp = _timestamp(args)
    if timestamp is not None:
        payload = {"generated": timestamp, **payload}
    _emit(to_json(payload) + "\n", args.out)


def _csv(header: str, rows, timestamp: str | None) -> str:
    """A ``# generated`` line unless ``timestamp`` is None, the header and
    the rows."""
    lines = [] if timestamp is None else [f"# generated {timestamp}"]
    lines.append(header)
    lines.extend(",".join(map(_scalar, row)) for row in rows)
    return "\n".join(lines) + "\n"


def series_to_csv(points: tuple[SpectralResult, ...], alpha_sum: float,
                  timestamp: str | None = None) -> str:
    """The gap-scan CSV of a sweep (``gap_series``), one row per point;
    ``alpha_sum`` is the total strength of its potential."""
    rows = ((pt.k, pt.n, alpha_sum, pt.lambda0, pt.lambda1, pt.gap, pt.n**2 * pt.gap,
             pt.n**3 * pt.gap, pt.precision_limited) for pt in points)
    return _csv(CSV_HEADER, rows, timestamp)


def series_from_csv(text: str) -> tuple[SpectralResult, ...]:
    """The points of a gap-scan CSV (the inverse of ``series_to_csv``; the
    alpha_sum column is parsed, not kept).

    Raises ValueError naming the row when a row has the wrong field count,
    a field that does not parse, a k that ``check_half_width`` rejects or
    that is not above the previous row's, an n other than 2k+1, a gap more
    than an ulp of lambda1 from lambda1 - lambda0, a precision_limited
    other than true/false, or a gap_n2 / gap_n3 other than n**2 * gap /
    n**3 * gap.
    """
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(
            f"unrecognized gap-scan CSV (expected header {CSV_HEADER!r})"
        )
    points: list[SpectralResult] = []
    for row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 9:
            raise ValueError(f"malformed CSV row: {row!r}")
        try:
            k, n = check_half_width(int(fields[0])), int(fields[1])
            float(fields[2])  # alpha_sum: parsed, not kept
            lam0, lam1, gap, gap_n2, gap_n3 = (float(f) for f in fields[3:8])
        except ValueError as err:
            raise ValueError(f"CSV row {row!r}: {err}") from None
        flag = fields[8]
        if points and k <= points[-1].k:
            raise ValueError(
                f"CSV row {row!r}: k = {k} does not exceed the previous row's "
                f"k = {points[-1].k}"
            )
        if n != 2 * k + 1:
            raise ValueError(f"CSV row {row!r}: n = {n} is not 2k+1 for k = {k}")
        # gap-scan writes the gap and lambda1 = lambda0 + gap, each rounded
        # once, with 17 significant digits
        if not abs(gap - (lam1 - lam0)) <= math.ulp(lam1):
            raise ValueError(
                f"CSV row {row!r}: gap = {gap!r} is not lambda1 - lambda0 = "
                f"{lam1 - lam0!r} to an ulp of lambda1"
            )
        if flag not in ("true", "false"):
            raise ValueError(
                f"CSV row {row!r}: precision_limited must be true or false, got {flag!r}"
            )
        for name, scaled, p in (("gap_n2", gap_n2, 2), ("gap_n3", gap_n3, 3)):
            if scaled != n**p * gap:
                raise ValueError(
                    f"CSV row {row!r}: {name} = {scaled!r} is not n**{p} * gap = "
                    f"{n**p * gap!r}"
                )
        points.append(SpectralResult(k=k, lambda0=lam0, gap=gap, precision_limited=flag == "true"))
    return tuple(points)


def report_fields(rep: BoundsReport) -> dict:
    """The fields of one ``verify-bounds`` point; a single site at the
    origin adds the ground state there."""
    res = rep.result
    d = {
        "k": rep.k,
        "n": res.n,
        "lambda0": res.lambda0,
        "lambda1": res.lambda1,
        "gap": res.gap,
        "precision_limited": res.precision_limited,
        "side_energy_left": rep.side_energies[0],
        "side_energy_right": rep.side_energies[1],
        "side_correction_left": rep.side_corrections[0],
        "side_correction_right": rep.side_corrections[1],
        "mixing_weight": rep.mixing,
        "all_hold": rep.all_hold,
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds,
             **({} if c.applicable else {"skipped_reason": c.skipped_reason})}
            for c in rep.checks
        ],
    }
    if rep.potential.sites == (0,):
        d["ground_at_origin"] = float(res.ground_state[rep.k])
    return d


def fit_fields(fit: ScalingFit, points: tuple[SpectralResult, ...]) -> dict:
    """The fields of a ``fit`` report of ``fit_power_law(points)``."""
    return {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
        "band_min": fit.band_min,
        "band_max": fit.band_max,
        "band_ratio": fit.band_ratio,
        "band_power": fit.band_power,
        "points_excluded": fit.points_excluded,
        "points_used": len(points) - fit.points_excluded,
    }


def _spectrum_low(op):
    """``spectrum_low(op)``, with a MemoryError that names k, also where n
    doubles are past the largest array numpy allocates."""
    if op.n > sys.maxsize // 8:
        raise MemoryError(f"out of memory at k = {op.k}")
    try:
        return spectrum_low(op)
    except MemoryError:
        raise MemoryError(f"out of memory at k = {op.k}") from None


def _cmd_spectrum(args: argparse.Namespace) -> int:
    potential = parse_potential_spec(args.potential)
    op = assemble_hamiltonian(args.k, potential)
    res = _spectrum_low(op)
    phi = res.ground_state
    n = op.n
    payload = {
        "k": args.k,
        "n": n,
        "potential": spec_string(potential),
        "lambda0": res.lambda0,
        "lambda1": res.lambda1,
        "gap": res.gap,
        "gap_n2": n**2 * res.gap,
        "gap_n3": n**3 * res.gap,
        "precision_limited": res.precision_limited,
        "ground_state_min": float(phi.min()),
        "ground_state_max": float(phi.max()),
        "ground_state_at_origin": float(phi[args.k]),
    }
    if args.fmt == "json":
        _emit(to_json(payload) + "\n", args.out)
    else:
        lines = [f"{key} = {_json_scalar(val)}" for key, val in payload.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gap_scan(args: argparse.Namespace) -> int:
    k_values = parse_k_grid(args.k_grid)
    potential = parse_potential_spec(args.potential)
    points = gap_series(potential, k_values)
    _emit(series_to_csv(points, potential.strength_sum, _timestamp(args)), args.out)
    return 0


def _cmd_alpha_scan(args: argparse.Namespace) -> int:
    alphas = []
    for i, token in enumerate(args.alphas.split(","), start=1):
        try:
            alphas.append(float(token))
        except ValueError:
            raise ValueError(f"bad alpha at token {i} ({token!r})") from None
    base = parse_potential_spec(args.potential)
    rows = []
    for a in alphas:
        res = eigenvalues_low(assemble_hamiltonian(args.k, base.scaled(a)))
        rows.append((a, res.k, res.n, res.gap, a * (res.n**3 * res.gap),
                     res.precision_limited))
    _emit(_csv("alpha,k,n,gap,alpha_n3_gap,precision_limited", rows, _timestamp(args)),
          args.out)
    return 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    grid = parse_k_grid(args.k_grid)
    potential = parse_potential_spec(args.potential)
    if potential.is_empty:
        raise ValueError("verify-bounds needs a non-empty potential")
    points = []
    for k in grid:
        op = assemble_hamiltonian(k, potential)
        points.append(report_fields(evaluate_bounds(op, _spectrum_low(op))))
    all_hold = all(point["all_hold"] for point in points)
    payload = {
        "potential": spec_string(potential),
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
    points = series_from_csv(text)
    _emit_json(fit_fields(fit_power_law(points), points), args)
    return 0


_OPTIONS = {
    "input": dict(metavar="CSV", help="gap-scan CSV path or -"),
    "--potential": dict(
        default="none", metavar="SPEC",
        help="site:strength[,site:strength]* or 'none'; use --potential=SPEC "
             "when SPEC starts with a negative site"),
    "--k": dict(type=int, required=True, help="half-width of the path"),
    "--k-grid": dict(required=True, metavar="MIN:MAX:KIND:COUNT",
                     help="k sweep, KIND is geometric or linear"),
    "--alphas": dict(required=True, metavar="A,B,C",
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


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; a process may call it any number of times."""
    args = _PARSER.parse_args(argv)
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

"""Compactly supported potentials and the tridiagonal Hamiltonians on a path.

The configuration space is the path on the integer sites -k..k (an odd
number n = 2k+1 of sites), so an operator is fully described by
``(k, potential)``.  It is the unweighted path Laplacian plus a diagonal
potential supported on finitely many sites, which is symmetric tridiagonal:
diagonal = vertex degree (1 at the two ends, 2 inside) + potential strength,
off-diagonal = -1 on every edge.

Sites are the public coordinate system; the one array, ``diag``, is indexed
by site + k, and the eigensolver forms any product H v from it.  All types
are immutable and every operation is a pure function.  ``cli`` reads and
writes the spec syntax of a potential.  numpy is imported only by ``diag``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Potential",
    "TridiagonalOperator",
    "build_potential",
    "check_half_width",
    "assemble_hamiltonian",
]


@dataclass(frozen=True)
class Potential:
    """Finite map site -> strength with all strengths finite and > 0.

    The empty potential, ``build_potential([])``, is the free Laplacian
    baseline; bound evaluations reject it.
    """

    entries: tuple[tuple[int, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def site_min(self) -> int:
        """Leftmost supported site (r_min)."""
        self._require_nonempty()
        return self.entries[0][0]

    @property
    def site_max(self) -> int:
        """Rightmost supported site (r_max)."""
        self._require_nonempty()
        return self.entries[-1][0]

    @cached_property
    def support_strengths(self) -> tuple[float, ...]:
        """The strength at each site r_min..r_max, 0.0 in the gaps, built on
        first access."""
        rmin = self.site_min
        strengths = [0.0] * (self.site_max - rmin + 1)
        for site, strength in self.entries:
            strengths[site - rmin] = strength
        return tuple(strengths)

    @property
    def strength_sum(self) -> float:
        """Total strength over the support (0 for the empty baseline)."""
        return float(sum(a for _, a in self.entries))

    @property
    def strength_max(self) -> float:
        return max((a for _, a in self.entries), default=0.0)

    def scaled(self, factor: float) -> "Potential":
        """Strengths times ``factor``, checked by ``build_potential``; errors name the factor."""
        if self.is_empty:
            raise ValueError("cannot scale the empty baseline potential")
        try:
            return build_potential([(s, a * factor) for s, a in self.entries])
        except ValueError as err:
            raise ValueError(f"factor {factor!r}: {err}") from None

    def _require_nonempty(self) -> None:
        if self.is_empty:
            raise ValueError("the empty baseline has no support; need a non-empty potential")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix: Laplacian of a path plus the potential.

    An operator is ``(k, potential)``; equality and hash are by them.  The
    coupling is -1 on every edge, so the only array is ``diag`` (length
    n = 2k+1), read-only and built on first access: a solver that does not
    read it reaches any k.
    """

    k: int
    potential: Potential

    @property
    def n(self) -> int:
        return 2 * self.k + 1

    @property
    def norm_bound(self) -> float:
        """Gershgorin-style bound: every eigenvalue lies in [0, 4 + max strength]."""
        return 4.0 + self.potential.strength_max

    @cached_property
    def diag(self) -> np.ndarray:
        """Vertex degree (1 at the two ends, 2 inside) plus strength."""
        import numpy as np
        diag = np.full(self.n, 2.0)
        diag[0] = diag[-1] = 1.0
        for site, strength in self.potential.entries:
            diag[site + self.k] += strength
        diag.flags.writeable = False
        return diag


def build_potential(
    pairs: list[tuple[int, float]] | tuple[tuple[int, float], ...],
) -> Potential:
    """Potential from (site, strength) pairs.

    The one validator of potentials: sites must be pairwise distinct
    integers and strengths finite and strictly positive; errors name the
    offending pair by its 1-based position.  An empty list is the free
    Laplacian baseline.
    """
    pairs = list(pairs)
    seen: set[int] = set()
    for i, (site, strength) in enumerate(pairs, start=1):
        if int(site) != site:
            raise ValueError(f"pair {i}: site {site!r} is not an integer")
        if site in seen:
            raise ValueError(f"pair {i}: duplicate site {site}")
        seen.add(int(site))
        if not math.isfinite(strength):
            raise ValueError(f"pair {i}: non-finite strength {strength} at site {site}")
        if strength <= 0:
            raise ValueError(
                f"pair {i}: non-positive strength {strength} at site {site}"
            )
    entries = tuple(sorted((int(s), float(a)) for s, a in pairs))
    return Potential(entries)


def check_half_width(k: int) -> int:
    """``k`` as an int, if it is a positive integer and the cube of the path
    length n = 2k+1 is a finite double (k up to about 2.8e102), so that the
    scaled gaps n^2 gap and n^3 gap are doubles; ValueError otherwise."""
    if int(k) != k or k < 1:
        raise ValueError(f"half-width k must be a positive integer, got {k}")
    k = int(k)
    try:
        float((2 * k + 1) ** 3)
    except OverflowError:
        raise ValueError(
            f"half-width k = {k} is too large: (2k+1)^3 overflows a double"
        ) from None
    return k


def assemble_hamiltonian(k: int, potential: Potential) -> TridiagonalOperator:
    """Tridiagonal operator on the path -k..k: diag(v) = degree(v) +
    strength(v) (built on first access), coupling -1 on every edge.

    The one check of the support: rejects a half-width k that
    ``check_half_width`` rejects, and a non-empty potential whose support
    does not leave a non-empty sub-path on each side, k + site_min >= 1 and
    k - site_max >= 1 (which also keeps every site on the path; the bound
    evaluations need both sub-paths).
    """
    k = check_half_width(k)
    if not potential.is_empty:
        rmin, rmax = potential.site_min, potential.site_max
        if k + rmin < 1 or k - rmax < 1:
            raise ValueError(
                f"potential support {rmin}..{rmax} leaves an empty side sub-path "
                f"of the path -{k}..{k} (need k + site_min >= 1 and k - site_max >= 1)"
            )
    return TridiagonalOperator(k=k, potential=potential)

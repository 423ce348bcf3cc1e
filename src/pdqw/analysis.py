"""Position-space observables: variance, similarity, power-law fits, crossings.

Everything here is pure array math over `Distribution` objects; no walk
machinery is imported, so these functions double as independent checks on
the simulator output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, DomainError

# Distributions are accepted as normalized when their mass is this close to 1.
NORMALIZATION_TOL = 1e-9


@dataclass
class Distribution:
    """Probabilities over a contiguous run of lattice sites.

    offset is the site index of probabilities[0]; the support may include
    exact zeros (parity holes, light-cone padding).
    """

    offset: int
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.ndim != 1 or self.probabilities.size == 0:
            raise DomainError("probabilities must be a non-empty 1-d array")
        if np.any(self.probabilities < 0):
            raise DomainError("probabilities must be non-negative")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.probabilities.size)

    def total(self) -> float:
        return float(self.probabilities.sum())


def _require_normalized(dist: Distribution) -> None:
    total = dist.total()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise DomainError(f"distribution mass {total!r} is not 1 within {NORMALIZATION_TOL}")


def variance(dist: Distribution) -> float:
    """Second central moment of the site index.

    Requires a normalized distribution; raw counts must be normalized by the
    caller first.
    """
    _require_normalized(dist)
    sites = dist.sites.astype(float)
    m1 = sites @ dist.probabilities
    m2 = (sites * sites) @ dist.probabilities
    return float(m2 - m1 * m1)


def _aligned(g: Distribution, h: Distribution) -> tuple[np.ndarray, np.ndarray]:
    lo = min(g.offset, h.offset)
    hi = max(g.offset + g.probabilities.size, h.offset + h.probabilities.size)
    a = np.zeros(hi - lo)
    b = np.zeros(hi - lo)
    a[g.offset - lo : g.offset - lo + g.probabilities.size] = g.probabilities
    b[h.offset - lo : h.offset - lo + h.probabilities.size] = h.probabilities
    return a, b


def similarity(g: Distribution, h: Distribution) -> float:
    """Overlap of two distributions, aligned by absolute site index.

    Defined as (sum_i sqrt(g_i h_i))^2 / (sum_i g_i * sum_j h_j). The ratio
    self-normalizes, so unnormalized non-negative inputs (raw counts) are
    fine; it is symmetric, lies in [0, 1], and equals 1 exactly when the two
    normalized distributions coincide.
    """
    tg, th = g.total(), h.total()
    if tg <= 0 or th <= 0:
        raise DomainError("similarity requires inputs with positive total mass")
    a, b = _aligned(g, h)
    # normalize each side before multiplying: the raw product tg * th can
    # underflow to zero for tiny masses and turn the ratio into 0/0
    val = np.sqrt((a / tg) * (b / th)).sum() ** 2
    # Cauchy-Schwarz bounds the exact value by 1; clip float residue only.
    return float(min(max(val, 0.0), 1.0))


def crw_reference(steps: int) -> Distribution:
    """Binomial end-point distribution of an unbiased classical random walk.

    Sites of parity opposite to `steps` carry exact zeros. The variance is
    exactly `steps`.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    probs = np.zeros(2 * steps + 1)
    denom = 2**steps
    for right in range(steps + 1):
        site = 2 * right - steps
        probs[site + steps] = math.comb(steps, right) / denom
    return Distribution(offset=-steps, probabilities=probs)


@dataclass
class PowerLawFit:
    """Unweighted least-squares fit of variance ~ prefactor * n**beta."""

    beta: float
    beta_stderr: float
    prefactor: float
    fit_range: tuple[int, int]


# Exponent search bracket and grid for fit_beta.
_BETA_BRACKET = (-2.0, 6.0)
_BETA_GRID_POINTS = 321


def _profile_sse(logn: np.ndarray, y: np.ndarray, beta: float):
    # For fixed beta the optimal prefactor is a linear LSQ in closed form.
    basis = np.exp(beta * logn)
    c = float(basis @ y) / float(basis @ basis)
    resid = y - c * basis
    return float(resid @ resid), c


def _profile_slope(logn: np.ndarray, y: np.ndarray, beta: float) -> float:
    """b'.r with b = n**beta, b' = b ln n and r the residual of the best
    prefactor: the derivative of the profiled SSE times -1/(2c), so
    positive where the SSE falls and negative where it rises."""
    basis = np.exp(beta * logn)
    c = float(basis @ y) / float(basis @ basis)
    return float((basis * logn) @ (y - c * basis))


def fit_beta(variances, fit_range: tuple[int, int] | None = None) -> PowerLawFit:
    """Fit a growth exponent to per-step variances.

    Minimizes sum_n (Var(n) - c * n**beta)^2 over the fit window with equal
    weight on every step, i.e. the fit is performed on the variances
    themselves, not on their logarithms. The two conventions disagree on
    short transients: early steps carry small absolute residuals, so this
    fit is dominated by the later, larger variances.

    For fixed beta the best c is linear least squares, so beta minimizes the
    profiled SSE (variable projection: Golub & Pereyra, SIAM J. Numer. Anal.
    10, 413 (1973)). A grid over the bracket finds its minimum, and beta is
    the root of the SSE's derivative next to it, bisected down to adjacent
    floats. The derivative's sign stays stable where the flat SSE's values
    do not, so a one-ulp change in a variance moves beta by round-off only.
    A minimum on the bracket's edge gives that edge.

    Parameters
    ----------
    variances : sequence of float
        variances[j] is the value after step j+1.
    fit_range : (lo, hi), inclusive step numbers
        Defaults to (1, len(variances)). Needs at least two points.
    """
    var = np.asarray(variances, dtype=float)
    if fit_range is None:
        fit_range = (1, var.size)
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if lo < 1 or hi > var.size or hi - lo + 1 < 2:
        raise DomainError(f"fit range {fit_range} needs >= 2 points inside steps 1..{var.size}")
    y = var[lo - 1 : hi]
    if np.any(y <= 0):
        raise DomainError("variances in the fit range must be positive")
    n = np.arange(lo, hi + 1, dtype=float)
    logn = np.log(n)

    grid = np.linspace(_BETA_BRACKET[0], _BETA_BRACKET[1], _BETA_GRID_POINTS)
    k = int(np.argmin([_profile_sse(logn, y, b)[0] for b in grid]))
    beta = float(grid[k])
    h = _profile_slope(logn, y, beta)
    # The sign change sits on the side of the grid minimum that the SSE
    # falls towards; bisect it while a float lies between its ends.
    side = k + 1 if h > 0 else k - 1
    if h != 0 and 0 <= side < grid.size:
        a, b = sorted((beta, float(grid[side])))
        while a < (mid := (a + b) / 2.0) < b:
            if _profile_slope(logn, y, mid) > 0:
                a = mid
            else:
                b = mid
        beta = a
    sse, c = _profile_sse(logn, y, beta)

    # Standard error from the Gauss-Newton covariance at the optimum.
    dof = n.size - 2
    if dof > 0:
        basis = np.exp(beta * logn)
        jac = np.column_stack([basis, c * basis * logn])
        jtj = jac.T @ jac
        try:
            cov = np.linalg.inv(jtj) * (sse / dof)
            stderr = math.sqrt(max(float(cov[1, 1]), 0.0))
        except np.linalg.LinAlgError:
            stderr = float("nan")
    else:
        stderr = 0.0
    return PowerLawFit(
        beta=float(beta),
        beta_stderr=stderr,
        prefactor=float(c),
        fit_range=(lo, hi),
    )


@dataclass
class CrossingPoint:
    step: int
    p_star: float


def crossing_point(p_grid, s_ordered, s_disordered, step: int) -> CrossingPoint:
    """Locate the unique p where the two similarity curves cross.

    The difference s_ordered - s_disordered must change sign exactly once on
    the grid; the crossing is then linearly interpolated. A run of exact
    zeros counts as one crossing, at its first point, if it touches an end of
    the grid or if the difference has opposite signs on its two sides; a
    tangency (the same sign on both sides) is no crossing. Zero, or more
    than one, crossing raises AmbiguityError (the caller should refine the
    grid or average more maps); so do curves equal on the whole grid.
    """
    p = np.asarray(p_grid, dtype=float)
    d = np.asarray(s_ordered, dtype=float) - np.asarray(s_disordered, dtype=float)
    if p.size != d.size or p.size < 2:
        raise DomainError("curves and grid must share a length >= 2")

    sign = np.sign(d)  # NaN where d is: nonzero, but no sign change
    nonzero = np.flatnonzero(sign).tolist()
    crossings: list[float] = []
    if nonzero and nonzero[0] > 0:
        crossings.append(float(p[0]))
    for a, b in zip(nonzero, nonzero[1:]):
        if sign[a] * sign[b] < 0.0:
            if b == a + 1:
                frac = d[a] / (d[a] - d[b])
                crossings.append(float(p[a] + (p[b] - p[a]) * frac))
            else:
                crossings.append(float(p[a + 1]))
    if nonzero and nonzero[-1] < d.size - 1:
        crossings.append(float(p[nonzero[-1] + 1]))

    if len(crossings) != 1:
        raise AmbiguityError(
            f"expected exactly one crossing for step {step}, found {len(crossings)} "
            f"at {crossings!r} on grid [{float(p[0])!r}..{float(p[-1])!r}] ({p.size} points)"
        )
    return CrossingPoint(step=step, p_star=crossings[0])

"""Two-photon statistics on top of the single-particle mode unitary.

Probabilities are stored in the unordered-pair convention: a matrix entry
gives the probability of the unordered outcome {mode k, mode l} and is
mirrored across the diagonal, so the upper triangle including the diagonal
sums to 1. Partial distinguishability is a classical mixture: a fraction
eta of pairs interferes, the rest behaves as independent photons.

The single-unitary functions take a dense mode unitary; the disorder
ensemble reads only the two input columns of it, and evolves just those
through the shared walk driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Distribution
from .disorder import DisorderSpec, phase_factors, sample_block
from .ensemble import CHUNK_SIZE, mean_and_std
from .errors import DomainError
from .walk_core import _check_coin, _walk, mode_index, single_particle_unitary

UNITARY_TOL = 1e-10
PAIR_NORMALIZATION_TOL = 1e-9
PAIR_CONVENTION = "unordered-pairs, diagonal counted once"


@dataclass
class PairInput:
    """Two photons entering lattice modes (site, coin) with overlap eta.

    eta=1 is fully indistinguishable, eta=0 fully distinguishable.
    """

    mode_a: tuple[int, int]
    mode_b: tuple[int, int]
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {self.eta!r}")


@dataclass
class CoincidenceMatrix:
    """Symmetric site-pair probabilities, unordered convention.

    probabilities[i, j] is the probability of finding the pair at sites
    (offset + i, offset + j); the diagonal is counted once, so the upper
    triangle sums to 1.
    """

    offset: int
    probabilities: np.ndarray
    convention: str = PAIR_CONVENTION

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        m = self.probabilities
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("coincidence matrix must be square")
        if not np.array_equal(m, m.T):
            raise DomainError("coincidence matrix must be exactly symmetric")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.probabilities.shape[0])

    def triangle_total(self) -> float:
        m = self.probabilities
        return float((m.sum() + np.trace(m)) / 2.0)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError("mode unitary must be square")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > UNITARY_TOL:
        raise DomainError(f"matrix is not unitary within {UNITARY_TOL}")
    return u


def two_photon_mode_distribution(u: np.ndarray, pair: PairInput) -> np.ndarray:
    """Unordered mode-pair probabilities for a photon pair sent through u.

    For distinct input modes the interfering part is
    |u_ka u_lb + u_la u_kb|^2 off the diagonal and 2|u_ka u_kb|^2 on it; the
    distinguishable part is the symmetrized product of single-photon
    probabilities. Coincident input modes (a == b) get the bunched-input
    normalization (diagonal |u_ka|^4).
    """
    u = _check_unitary(u)
    n_max = (u.shape[0] // 2 - 1) // 2
    ia, ib = mode_index(*pair.mode_a, n_max), mode_index(*pair.mode_b, n_max)
    ca, cb = u[:, ia], u[:, ib]
    diag = np.diag_indices(u.shape[0])

    amp = np.outer(ca, cb) + np.outer(cb, ca)
    interfering = np.abs(amp) ** 2
    interfering[diag] *= 0.5
    if ia == ib:
        interfering *= 0.5

    pa = np.abs(ca) ** 2
    pb = np.abs(cb) ** 2
    product = np.outer(pa, pb) + np.outer(pb, pa)
    product[diag] *= 0.5

    return pair.eta * interfering + (1.0 - pair.eta) * product


def _ordered_density(unordered: np.ndarray) -> np.ndarray:
    """Convert unordered-pair probabilities to an ordered joint density
    (off-diagonal halved) so plain reductions apply."""
    ordered = unordered / 2.0
    d = np.diag_indices(unordered.shape[0])
    ordered[d] = unordered[d]
    return ordered


def site_coincidences(mode_matrix: np.ndarray) -> CoincidenceMatrix:
    """Trace out the coin: aggregate mode pairs onto site pairs."""
    mode_matrix = np.asarray(mode_matrix, dtype=float)
    dim = mode_matrix.shape[0]
    if mode_matrix.shape != (dim, dim) or dim % 2 != 0 or (dim // 2) % 2 == 0:
        raise DomainError("mode matrix must be square over 2*(2*n_max+1) modes")
    n_sites = dim // 2
    n_max = (n_sites - 1) // 2
    ordered = _ordered_density(mode_matrix)
    by_site = ordered.reshape(n_sites, 2, n_sites, 2).sum(axis=(1, 3))
    unordered = by_site + by_site.T
    d = np.diag_indices(n_sites)
    unordered[d] = by_site[d]
    return CoincidenceMatrix(offset=-n_max, probabilities=unordered)


def _require_pair_normalized(mass) -> None:
    """Raise unless every pair mass (one triangle total, or one per map) is 1
    within PAIR_NORMALIZATION_TOL."""
    mass = np.asarray(mass, dtype=float)
    worst = float(mass.flat[np.abs(mass - 1.0).argmax()])
    if abs(worst - 1.0) > PAIR_NORMALIZATION_TOL:
        raise DomainError(
            f"coincidence matrix mass {worst!r} is not 1 within {PAIR_NORMALIZATION_TOL}"
        )


def variance2(cm: CoincidenceMatrix) -> float:
    """Variance of the pair centroid (i+j)/2 over the coincidence matrix."""
    _require_pair_normalized(cm.triangle_total())
    ordered = _ordered_density(cm.probabilities)
    sites = cm.sites.astype(float)
    centroid = (sites[:, None] + sites[None, :]) / 2.0
    m1 = float((centroid * ordered).sum())
    m2 = float((centroid * centroid * ordered).sum())
    return m2 - m1 * m1


def pair_marginal(cm: CoincidenceMatrix) -> Distribution:
    """Distribution of one detector's site, with pair multiplicity handled:
    off-diagonal outcomes contribute half their mass to each member site."""
    _require_pair_normalized(cm.triangle_total())
    ordered = _ordered_density(cm.probabilities)
    return Distribution(offset=cm.offset, probabilities=ordered.sum(axis=1))


@dataclass
class PairEnsemble:
    """Disorder-averaged pair statistics, step by step."""

    p: float
    steps: int
    n_maps: int
    eta: float
    master_seed: int
    mean_matrices: list[CoincidenceMatrix]
    mean_variance2: np.ndarray
    std_variance2: np.ndarray


def run_pair_ensemble(spec: DisorderSpec, coin, n_maps: int, eta: float,
                      pair_modes=((0, 0), (0, 1))) -> PairEnsemble:
    """Send the photon pair through n_maps disorder realizations.

    Both photons traverse the same phase map. Returns the ensemble-mean
    site-coincidence matrix after each step and the mean/std of the pair
    centroid variance across maps (mean_and_std: n-1 normalization, exactly 0
    where all maps agree).

    Only the two input columns A, B of each map's mode unitary are evolved,
    blocks of maps at a time, on the periodic lattice of
    single_particle_unitary(spec.steps, ...). With per-site sums
    pA = sum_c |A_sc|^2, pB likewise and G = sum_c A_sc conj(B_sc), the
    ordered site-pair density is 1/2 (pA x pB + pB x pA) + eta Re(G x G*),
    which is pA x pA when both photons enter the same mode.
    """
    if n_maps < 1:
        raise DomainError("n_maps must be >= 1")
    pair = PairInput(pair_modes[0], pair_modes[1], eta=eta)
    coin = _check_coin(coin)
    steps = spec.steps
    n_sites = 2 * steps + 1
    ia = mode_index(*pair.mode_a, steps)
    ib = mode_index(*pair.mode_b, steps)
    same_input = ia == ib
    sites = np.arange(-steps, steps + 1, dtype=float)
    centroid = ((sites[:, None] + sites[None, :]) / 2.0).ravel()
    centroid_sq = centroid * centroid
    table = phase_factors(spec.alphabet)

    density_sums = np.zeros((steps, n_sites, n_sites))
    var2 = np.empty((n_maps, steps))
    for start in range(0, n_maps, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, n_maps)
        block = stop - start
        codes = sample_block(spec, start, stop)[:, None]
        # psi[c][map, j, site]: coin-c amplitudes of input column j (0: A, 1: B).
        psi = np.zeros((2, block, 2, n_sites), dtype=complex)
        psi[ia % 2, :, 0, ia // 2] = 1.0
        psi[ib % 2, :, 1, ib // 2] = 1.0
        for n, (psi0, psi1) in enumerate(_walk(*psi, coin, codes, table), start=1):
            weights = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
            pa, pb = weights[:, 0], weights[:, 1]
            g = psi0[:, 0] * psi0[:, 1].conj() + psi1[:, 0] * psi1[:, 1].conj()
            drift = max(
                np.abs(pa.sum(axis=1) - 1.0).max(),
                np.abs(pb.sum(axis=1) - 1.0).max(),
                np.abs(g.sum(axis=1) - (1.0 if same_input else 0.0)).max(),
            )
            if drift > UNITARY_TOL:
                raise DomainError(f"evolved input columns are not orthonormal within {UNITARY_TOL}")

            if same_input:
                density = pa[:, :, None] * pa[:, None, :]
            else:
                density = 0.5 * (pa[:, :, None] * pb[:, None, :] + pb[:, :, None] * pa[:, None, :])
                density += pair.eta * (
                    g.real[:, :, None] * g.real[:, None, :] + g.imag[:, :, None] * g.imag[:, None, :]
                )
            flat = density.reshape(block, -1)
            _require_pair_normalized(flat.sum(axis=1))
            m1 = (flat * centroid).sum(axis=1)
            var2[start:stop, n - 1] = (flat * centroid_sq).sum(axis=1) - m1 * m1
            density_sums[n - 1] += density.sum(axis=0)

    mean_matrices = []
    for s in density_sums:
        unordered = 2.0 * s
        np.fill_diagonal(unordered, np.diagonal(s))
        mean_matrices.append(CoincidenceMatrix(offset=-steps, probabilities=unordered / n_maps))
    mean_var2, std_var2 = mean_and_std(var2)
    return PairEnsemble(
        p=spec.p,
        steps=steps,
        n_maps=n_maps,
        eta=eta,
        master_seed=spec.master_seed,
        mean_matrices=mean_matrices,
        mean_variance2=mean_var2,
        std_variance2=std_var2,
    )


@dataclass
class HomScan:
    """Normalized two-detector coincidence versus arrival-time delay."""

    delays: np.ndarray
    coherence_time: float
    visibility: float
    etas: np.ndarray
    coincidences: np.ndarray


def _distinct_mode_mass(mode_matrix: np.ndarray) -> float:
    m = np.asarray(mode_matrix)
    return float((m.sum() - np.trace(m)) / 2.0)


def hom_scan(delays, coherence_time: float, visibility: float, coin) -> HomScan:
    """Interference dip of a photon pair on a single splitter stage.

    The overlap follows a Gaussian, eta(tau) = V * exp(-(tau/tau_c)^2); the
    coincidence is the probability that the photons exit in different modes,
    normalized so the far-delay (distinguishable) baseline equals 1. At zero
    delay with a balanced splitter the value is exactly 1 - V.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise DomainError("delays must be non-empty")
    if coherence_time <= 0:
        raise DomainError("coherence_time must be positive")
    if not 0.0 <= visibility <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {visibility!r}")

    u = single_particle_unitary(1, coin, None, 1)
    baseline = _distinct_mode_mass(
        two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), eta=0.0))
    )
    etas = np.empty(delays.size)
    coincidences = np.empty(delays.size)
    for i, tau in enumerate(delays):
        etas[i] = visibility * float(np.exp(-((tau / coherence_time) ** 2)))
        raw = _distinct_mode_mass(
            two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), eta=etas[i]))
        )
        coincidences[i] = raw / baseline
    return HomScan(
        delays=delays,
        coherence_time=coherence_time,
        visibility=visibility,
        etas=etas,
        coincidences=coincidences,
    )

"""Two-photon statistics: the disorder ensemble of pair coincidences and the
Hong-Ou-Mandel delay scan.

Probabilities are stored in the unordered-pair convention: a matrix entry
gives the probability of the unordered outcome {site i, site j} and is
mirrored across the diagonal, so the upper triangle including the diagonal
sums to 1. Partial distinguishability is a classical mixture: a fraction
eta of pairs interferes, the rest behaves as independent photons.

In the disorder ensemble photon A enters coin 0 and photon B coin 1 of the
origin. Only the amplitudes of these two input modes are evolved, on the
origin's light cone, by the scan loop that run_ensembles uses
(ensemble._scan), with amplitude arrays shaped (window sites, input column,
map). Each map's pair-centroid variance comes from one-body sums of the two
columns, added left to right over the window's sites; the site-pair
density is built only for the mean matrices and the pair-mass check. The
delay scan is one splitter stage, whose coincidence follows from the
coin's 2x2 permanent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .ensemble import _scan, check_scan
from .errors import DomainError
from .walk_core import _empty_aligned, _site_sums, _walk_operands

UNITARY_TOL = 1e-10
PAIR_NORMALIZATION_TOL = 1e-9
PAIR_CONVENTION = "unordered-pairs, diagonal counted once"


def _require_pair_normalized(mass) -> None:
    """Raise unless every pair mass (one per map) is 1 within
    PAIR_NORMALIZATION_TOL; a NaN mass, which argmax picks first, raises."""
    mass = np.asarray(mass, dtype=float)
    worst = float(mass.flat[np.abs(mass - 1.0).argmax()])
    if not abs(worst - 1.0) <= PAIR_NORMALIZATION_TOL:
        raise DomainError(
            f"coincidence matrix mass {worst!r} is not 1 within {PAIR_NORMALIZATION_TOL}"
        )


@dataclass
class PairEnsemble:
    """Disorder-averaged pair statistics, step by step.

    window_sites[n] holds the sites of the origin's light cone after step
    n + 1, every second site from -(n + 1) to n + 1, and window_matrices[n]
    the unordered mean matrix on their pairs; every other site pair has
    probability 0, so only these are kept.

    max_norm_drift is the largest deviation of the evolved input columns
    from orthonormality (|pA| - 1, |pB| - 1, and their overlap) over every
    map and step: the walk is unitary, so it measures round-off.
    """

    p: float
    steps: int
    n_maps: int
    eta: float
    master_seed: int
    window_sites: list[np.ndarray]
    window_matrices: list[np.ndarray]
    mean_variance2: np.ndarray
    std_variance2: np.ndarray
    max_norm_drift: float


def run_pair_ensembles(specs, coin, n_maps: int, eta: float) -> list[PairEnsemble]:
    """run_pair_ensemble for every spec, in order; the specs may differ only
    in p.

    Photon A enters coin 0 and photon B coin 1 of the origin. Only their
    walks A and B are evolved, on the light cone of the origin, by the scan
    loop of run_ensembles (ensemble._scan): several whole p per walk, or
    chunks of one p. With per-site sums pA = sum_c |A_sc|^2,
    pB likewise and G = sum_c A_sc conj(B_sc), the ordered site-pair
    density is 1/2 (pA x pB + pB x pA) + eta Re(G x G*). It is built on the
    window's site pairs only, and every other pair has probability 0; it
    feeds the mean matrices, which add each p's maps in index order
    whatever the batch split, and the per-map pair-mass check. The sums of
    a step are one (specs, window sites, window sites) array, and each
    PairEnsemble keeps its p's views of them.

    The centroid variance of a map comes from one-body sums over the
    window's coordinates x: with the variances sA^2, sB^2 of pA and pB and
    S = sum_x x G_x, it is (sA^2 + sB^2)/4 + eta (Re S)^2/2 + eta (Im S)^2/2,
    since sum_x G_x = 0 for orthogonal inputs.
    """
    specs = check_scan(specs, n_maps)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta!r}")
    steps = specs[0].steps
    # Per step: the window's sites, as coordinates with one row per site
    # (and by input column, with their squares).
    window_sites = [np.arange(-n, n + 1, 2) for n in range(1, steps + 1)]
    sites = [x.astype(float)[:, None] for x in window_sites]
    by_column = [(x[:, None], (x * x)[:, None]) for x in sites]

    def stepper(rows, dtype):
        # Scratch for the largest walk, taken per step as C-contiguous
        # prefixes, so each operation rounds as on a new array: G, its second
        # term and G by map; the site densities by map; the density's terms,
        # one more in the complex walk for Im G x Im G.
        real = dtype.kind == "f"  # nothing to conjugate, and Im G is 0
        cells = (steps + 1) * rows
        g_terms = _empty_aligned((3, cells), dtype)
        one_body = _empty_aligned(2 * cells)
        two_body = _empty_aligned((1 if real else 2, (steps + 1) * cells))

        def step(n, psi0, psi1, w, t, total, by_map, block, var2, overlap):
            maps, k, m = block.shape[:3]
            g, term, g_by_map = g_terms[:, : m * maps * k].reshape(3, m, maps * k)
            np.multiply(psi0[:, 0], psi0[:, 1] if real else np.conjugate(psi0[:, 1], term), g)
            np.multiply(psi1[:, 0], psi1[:, 1] if real else np.conjugate(psi1[:, 1], term), term)
            np.add(g, term, g)
            np.absolute(_site_sums(g), overlap)
            drift = np.maximum(np.maximum.reduce(np.abs(total - 1.0), 0), overlap[0])
            if not np.maximum.reduce(drift) <= UNITARY_TOL:  # NaN drift raises too
                raise DomainError(f"evolved input columns are not orthonormal within {UNITARY_TOL}")

            x = sites[n]
            x1, x2 = by_column[n]
            m1 = np.add.reduce(np.multiply(w, x1, t), 0)
            sigma_sq = np.add.reduce(np.multiply(w, x2, t), 0) - m1 * m1  # (input column, rows)
            # Separate float sums of Re G x and Im G x, so the float walk,
            # which has no Im G, gives the complex walk's bits.
            scratch = t.reshape(-1, maps * k)[:m]
            s_re = _site_sums(np.multiply(g.real, x, scratch))
            s_im = _site_sums(np.multiply(g.imag, x, scratch))
            var2[:] = ((sigma_sq[0] + sigma_sq[1]) / 4.0
                       + eta * s_re * s_re / 2.0 + eta * s_im * s_im / 2.0)
            # The maps' site densities and G as contiguous rows (maps, k,
            # sites), combined into the density in block.
            site_densities = one_body[: by_map.size].reshape(by_map.shape)
            np.copyto(site_densities, by_map)
            pa, pb = site_densities[:, :, 0], site_densities[:, :, 1]
            g_by_map = g_by_map.reshape(maps, k, m)
            np.copyto(g_by_map, g.reshape(m, k, maps).T)
            terms = two_body[:, : block.size].reshape(-1, *block.shape)
            np.multiply(pa[..., :, None], pb[..., None, :], block)
            np.add(block, np.multiply(pb[..., :, None], pa[..., None, :], terms[0]), block)
            np.multiply(block, 0.5, block)
            interfering = np.multiply(g_by_map.real[..., :, None], g_by_map.real[..., None, :], terms[0])
            if not real:  # the complex walk's Im G x Im G is +-0.0 where the float walk has none
                im = g_by_map.imag
                np.add(interfering, np.multiply(im[..., :, None], im[..., None, :], terms[1]), interfering)
            np.multiply(interfering, eta, interfering)
            np.add(block, interfering, block)
            _require_pair_normalized(np.add.reduce(block.reshape(-1, m * m), 1))

        return step

    sums, drifts, moments = _scan(specs, coin, n_maps, 2, True, stepper)
    # The sums become the unordered mean matrices in place.
    for total in sums:
        diagonal = np.arange(total.shape[-1])
        on_diagonal = total[:, diagonal, diagonal]
        total *= 2.0
        total[:, diagonal, diagonal] = on_diagonal
        total /= n_maps
        if not np.array_equal(total, total.transpose(0, 2, 1)):
            raise DomainError("coincidence matrix must be exactly symmetric")
    return [
        PairEnsemble(p=s.p, steps=steps, n_maps=n_maps, eta=eta, master_seed=s.master_seed,
                     window_sites=window_sites, window_matrices=[total[j] for total in sums],
                     mean_variance2=mean, std_variance2=std, max_norm_drift=float(drift))
        for j, (s, (mean, std), drift) in enumerate(zip(specs, moments, drifts))
    ]


def run_pair_ensemble(spec: DisorderSpec, coin, n_maps: int, eta: float) -> PairEnsemble:
    """Send the photon pair through n_maps disorder realizations.

    Both photons traverse the same phase map. Returns the ensemble-mean
    site-coincidence matrix after each step and the mean/std of the pair
    centroid variance across maps (mean_and_std: n-1 normalization, exactly 0
    where all maps agree). See run_pair_ensembles.
    """
    return run_pair_ensembles([spec], coin, n_maps, eta)[0]


@dataclass
class HomScan:
    """Normalized two-detector coincidence versus arrival-time delay."""

    delays: np.ndarray
    coherence_time: float
    visibility: float
    etas: np.ndarray
    coincidences: np.ndarray


def hom_scan(delays, coherence_time: float, visibility: float, coin) -> HomScan:
    """Interference dip of a photon pair on a single splitter stage.

    The overlap follows a Gaussian, eta(tau) = V * exp(-(tau/tau_c)^2); the
    coincidence is the probability that the photons exit in different modes,
    normalized so the far-delay (distinguishable) baseline equals 1. Photons
    entering coin 0 and coin 1 of one site leave in different modes with
    probability P = |c00 c11 + c01 c10|^2 (the coin's permanent squared)
    when they interfere and D = |c00 c11|^2 + |c01 c10|^2 when they do not,
    so the coincidence is 1 - eta (1 - P/D); D >= 1/2 for a unitary coin.
    At zero delay with a balanced splitter P = 0 and the value is exactly
    1 - V.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size == 0:
        raise DomainError("delays must be a non-empty 1-D sequence")
    if not np.isfinite(delays).all():
        raise DomainError("delays must be finite")
    if not (np.isfinite(coherence_time) and coherence_time > 0):
        raise DomainError(f"coherence_time must be positive and finite, got {coherence_time!r}")
    if not 0.0 <= visibility <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {visibility!r}")

    c, _ = _walk_operands(coin, ())
    interfering = abs(c[0, 0] * c[1, 1] + c[0, 1] * c[1, 0]) ** 2
    distinguishable = abs(c[0, 0] * c[1, 1]) ** 2 + abs(c[0, 1] * c[1, 0]) ** 2
    # exp(-(tau / tau_c)^2) is exactly 0.0 in float64 once |tau / tau_c|
    # exceeds 28, so clipping |tau| at 1e3 tau_c changes no eta, and the
    # ratio and its square cannot overflow (as they would past about
    # 1.3e154). The bound is a Python float: past tau_c = 1.8e305 it is inf,
    # without a warning, and clips nothing.
    bound = 1e3 * float(coherence_time)
    etas = visibility * np.exp(-((np.minimum(np.abs(delays), bound) / coherence_time) ** 2))
    return HomScan(
        delays=delays,
        coherence_time=coherence_time,
        visibility=visibility,
        etas=etas,
        coincidences=1.0 - etas * (1.0 - interfering / distinguishable),
    )

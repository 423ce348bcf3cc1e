"""Two-photon statistics: the disorder ensemble of pair coincidences and the
Hong-Ou-Mandel delay scan.

Probabilities are stored in the unordered-pair convention: a matrix entry
gives the probability of the unordered outcome {site i, site j} and is
mirrored across the diagonal, so the upper triangle including the diagonal
sums to 1. Partial distinguishability is a classical mixture: a fraction
eta of pairs interferes, the rest behaves as independent photons.

The disorder ensemble evolves only the amplitudes of the two input modes
through the shared walk driver, in the batches that run_ensembles walks,
with amplitude arrays shaped (window sites, input column, map). Each map's
pair-centroid variance comes from one-body sums of the two columns, added
left to right over the window's sites; the site-pair density is built only
for the mean matrices and the pair-mass check. The delay scan is one
splitter stage, whose coincidence follows from the coin's 2x2 permanent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .ensemble import _batches, check_scan
from .errors import DomainError
from .walk_core import _abs2, _site_sums, _walk, _walk_operands, light_cone, mode_index

UNITARY_TOL = 1e-10
PAIR_NORMALIZATION_TOL = 1e-9
PAIR_CONVENTION = "unordered-pairs, diagonal counted once"


def _require_pair_normalized(mass) -> None:
    """Raise unless every pair mass (one per map) is 1 within
    PAIR_NORMALIZATION_TOL."""
    mass = np.asarray(mass, dtype=float)
    worst = float(mass.flat[np.abs(mass - 1.0).argmax()])
    if abs(worst - 1.0) > PAIR_NORMALIZATION_TOL:
        raise DomainError(
            f"coincidence matrix mass {worst!r} is not 1 within {PAIR_NORMALIZATION_TOL}"
        )


@dataclass
class PairEnsemble:
    """Disorder-averaged pair statistics, step by step.

    window_sites[n] holds the sites of the inputs' light cone after step
    n + 1 and window_matrices[n] the unordered mean matrix on their pairs;
    every other site pair has probability 0, so only these are kept.

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


def run_pair_ensembles(specs, coin, n_maps: int, eta: float,
                       pair_modes=((0, 0), (0, 1))) -> list[PairEnsemble]:
    """run_pair_ensemble for every spec, in order; the specs may differ only
    in p.

    Only the walks A, B from the two input modes are evolved, on the light
    cone of the two input sites in the periodic ring of sites
    -steps..steps, in the batches that run_ensembles
    walks (ensemble._batches): several whole p per walk, or chunks of one p.
    With per-site sums pA = sum_c |A_sc|^2, pB likewise and
    G = sum_c A_sc conj(B_sc), the ordered site-pair density is
    1/2 (pA x pB + pB x pA) + eta Re(G x G*), which is pA x pA when both
    photons enter the same mode. It is built on the window's site pairs
    only, and every other pair has probability 0; it feeds the mean
    matrices, which add each p's maps in index order whatever the batch
    split, and the per-map pair-mass check. The sums of a step are one
    (specs, window sites, window sites) array, and each PairEnsemble keeps
    its p's views of them.

    The centroid variance of a map comes from one-body sums over the
    window's coordinates x: with the variances sA^2, sB^2 of pA and pB and
    S = sum_x x G_x, it is (sA^2 + sB^2)/4 + eta (Re S)^2/2 + eta (Im S)^2/2,
    since sum_x G_x = 0 for orthogonal inputs; for a single input mode it
    is sA^2/2.
    """
    specs = check_scan(specs, n_maps)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta!r}")
    coin, table = _walk_operands(coin, specs[0].alphabet)
    real = coin.dtype.kind == "f"  # nothing to conjugate, and Im G is 0
    steps = specs[0].steps
    n_sites = 2 * steps + 1
    ia = mode_index(*pair_modes[0], steps)
    ib = mode_index(*pair_modes[1], steps)
    same_input = ia == ib
    cone = light_cone([ia // 2, ib // 2], n_sites, steps)
    start_a, start_b = np.searchsorted(cone[0].sites, [ia // 2, ib // 2])
    # Per step: the window's sites, as coordinates with one row per site,
    # and the sums over the window's site pairs.
    window_sites = [w.sites - steps for w in cone[1:]]
    sites = [x.astype(float)[:, None] for x in window_sites]
    sums = [np.zeros((len(specs), len(w.sites), len(w.sites))) for w in cone[1:]]
    drifts = np.zeros(len(specs))
    moments = []
    for i, start, k, codes, var2 in _batches(specs, n_maps, moments, cone):
        rows = codes.shape[1]
        # psi[c][site, j, row]: coin-c amplitudes of input column j (0: A,
        # 1: B) on the start window, one column per map.
        psi = np.zeros((2, len(cone[0].sites), 2, rows), dtype=coin.dtype)
        psi[ia % 2, start_a, 0] = 1.0
        psi[ib % 2, start_b, 1] = 1.0
        for n, (psi0, psi1) in enumerate(_walk(*psi, coin, codes[:, None], table, cone)):
            weights = _abs2(psi0) + _abs2(psi1)
            b0, b1 = (psi0[:, 1], psi1[:, 1]) if real else (psi0[:, 1].conj(), psi1[:, 1].conj())
            g = psi0[:, 0] * b0 + psi1[:, 0] * b1
            drift = np.maximum(np.abs(_site_sums(weights) - 1.0).max(axis=0),
                               np.abs(_site_sums(g) - (1.0 if same_input else 0.0)))
            if drift.max() > UNITARY_TOL:
                raise DomainError(f"evolved input columns are not orthonormal within {UNITARY_TOL}")
            np.maximum(drifts[i : i + k], drift.reshape(k, -1).max(axis=1), out=drifts[i : i + k])

            x = sites[n]
            m1 = _site_sums(weights * x[:, None])
            sigma_sq = _site_sums(weights * (x * x)[:, None]) - m1 * m1  # (input column, rows)
            # The maps' site densities as contiguous rows (rows, sites).
            pa, pb = np.ascontiguousarray(weights.transpose(1, 2, 0))
            if same_input:
                var2[:, n] = sigma_sq[0] / 2.0
                density = pa[:, :, None] * pa[:, None, :]
            else:
                # Separate float sums of Re G x and Im G x, so the float walk,
                # which has no Im G, gives the complex walk's bits.
                s_re, s_im = _site_sums(g.real * x), _site_sums(g.imag * x)
                var2[:, n] = ((sigma_sq[0] + sigma_sq[1]) / 4.0
                              + eta * s_re * s_re / 2.0 + eta * s_im * s_im / 2.0)
                # In place, so fewer (rows, sites, sites) temporaries are alive.
                density = pa[:, :, None] * pb[:, None, :]
                density += pb[:, :, None] * pa[:, None, :]
                density *= 0.5
                g = np.ascontiguousarray(g.T)
                interfering = g.real[:, :, None] * g.real[:, None, :]
                if not real:  # the complex walk's Im G x Im G is +-0.0 where the float walk has none
                    interfering += g.imag[:, :, None] * g.imag[:, None, :]
                interfering *= eta
                density += interfering
            _require_pair_normalized(density.reshape(rows, -1).sum(axis=1))
            density = density.reshape(k, -1, *density.shape[1:])
            acc = sums[n][i : i + k]
            if start > 0:
                # Carry the earlier chunks' sum into the first map, as
                # run_ensembles does, so the maps add in index order.
                density[:, 0] += acc
            acc[...] = density.sum(axis=1)

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


def run_pair_ensemble(spec: DisorderSpec, coin, n_maps: int, eta: float,
                      pair_modes=((0, 0), (0, 1))) -> PairEnsemble:
    """Send the photon pair through n_maps disorder realizations.

    Both photons traverse the same phase map. Returns the ensemble-mean
    site-coincidence matrix after each step and the mean/std of the pair
    centroid variance across maps (mean_and_std: n-1 normalization, exactly 0
    where all maps agree). See run_pair_ensembles.
    """
    return run_pair_ensembles([spec], coin, n_maps, eta, pair_modes)[0]


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
    etas = visibility * np.exp(-((delays / coherence_time) ** 2))
    return HomScan(
        delays=delays,
        coherence_time=coherence_time,
        visibility=visibility,
        etas=etas,
        coincidences=1.0 - etas * (1.0 - interfering / distinguishable),
    )

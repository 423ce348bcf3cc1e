"""Ensemble averaging over disorder realizations.

The runner samples and evolves whole blocks of maps at once (amplitude
arrays shaped (maps, sites)), which is what makes thousand-map scans over a
dense p grid cheap. Chunk boundaries are constant, per-map results are
concatenated in map-index order, and the mean/std pass runs over the
assembled arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Distribution, similarity
from .disorder import DisorderSpec, phase_factors, sample_block
from .errors import DomainError
from .walk_core import _step_kernel, evolve, position_distribution

# Maps sampled and evolved together.
CHUNK_SIZE = 128


@dataclass
class EnsembleResult:
    """Per-step statistics over n_maps disorder realizations."""

    p: float
    steps: int
    n_maps: int
    master_seed: int
    mean_variance: np.ndarray
    std_variance: np.ndarray
    mean_distributions: list[Distribution]


def _simulate_chunk(spec: DisorderSpec, coin: np.ndarray, start: int, stop: int):
    """Evolve maps start..stop-1 together; returns per-map variances and
    per-map per-step distributions."""
    steps = spec.steps
    n_sites = 2 * steps + 1
    block = stop - start
    codes = sample_block(spec, start, stop)
    table = phase_factors(spec.alphabet)

    psi0 = np.zeros((block, n_sites), dtype=complex)
    psi1 = np.zeros((block, n_sites), dtype=complex)
    psi0[:, steps] = 1.0
    sites = np.arange(-steps, steps + 1, dtype=float)
    sites_sq = sites * sites

    variances = np.empty((block, steps))
    dists = np.empty((block, steps, n_sites))
    for n in range(1, steps + 1):
        psi0, psi1 = _step_kernel(psi0, psi1, coin, table[codes[:, n - 1]])
        weights = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
        totals = weights.sum(axis=1, keepdims=True)
        prob = weights / totals
        dists[:, n - 1, :] = prob
        m1 = prob @ sites
        m2 = prob @ sites_sq
        variances[:, n - 1] = m2 - m1 * m1
    return variances, dists


def run_ensemble(spec: DisorderSpec, coin, n_maps: int) -> EnsembleResult:
    """Mean and standard deviation of the variance, step by step, plus the
    ensemble-mean distribution after each step.

    The standard deviation uses the n-1 normalization; for n_maps == 1 it is
    reported as 0. Output is a pure function of (spec, coin, n_maps).
    """
    if n_maps < 1:
        raise DomainError("n_maps must be >= 1")
    coin = np.asarray(coin, dtype=complex)
    parts = [
        _simulate_chunk(spec, coin, a, min(a + CHUNK_SIZE, n_maps))
        for a in range(0, n_maps, CHUNK_SIZE)
    ]
    variances = np.concatenate([p[0] for p in parts], axis=0)
    dists = np.concatenate([p[1] for p in parts], axis=0)

    mean_var = variances.mean(axis=0)
    if n_maps > 1:
        std_var = variances.std(axis=0, ddof=1)
    else:
        std_var = np.zeros(spec.steps)
    mean_dists = [
        Distribution(offset=-spec.steps, probabilities=dists[:, n, :].mean(axis=0))
        for n in range(spec.steps)
    ]
    return EnsembleResult(
        p=spec.p,
        steps=spec.steps,
        n_maps=n_maps,
        master_seed=spec.master_seed,
        mean_variance=mean_var,
        std_variance=std_var,
        mean_distributions=mean_dists,
    )


@dataclass
class SimilarityScan:
    """Similarity of ensemble means against the two limiting walks.

    s_ordered[n-1, j] compares the mean distribution at step n, dilution
    p_grid[j], against the zero-phase walk; s_disordered compares against
    the p=1 ensemble mean at the same n_maps and master seed.
    """

    p_grid: np.ndarray
    steps: int
    n_maps: int
    master_seed: int
    s_ordered: np.ndarray
    s_disordered: np.ndarray


def similarity_scan(p_grid, steps: int, n_maps: int, coin, master_seed: int,
                    sampling_mode: str = "bernoulli", alphabet=None) -> SimilarityScan:
    """Scan the dilution axis and score each ensemble mean against both
    reference walks, for every step count up to `steps`."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.size < 2:
        raise DomainError("p_grid needs at least 2 points")
    kwargs = {"steps": steps, "sampling_mode": sampling_mode, "master_seed": master_seed}
    if alphabet is not None:
        kwargs["alphabet"] = tuple(alphabet)

    ordered = [position_distribution(s) for s in evolve(steps, coin, None, steps)]
    disordered = run_ensemble(DisorderSpec(p=1.0, **kwargs), coin, n_maps)

    s_ordered = np.empty((steps, p_grid.size))
    s_disordered = np.empty((steps, p_grid.size))
    for j, p in enumerate(p_grid):
        res = run_ensemble(DisorderSpec(p=float(p), **kwargs), coin, n_maps)
        for n in range(steps):
            s_ordered[n, j] = similarity(res.mean_distributions[n], ordered[n])
            s_disordered[n, j] = similarity(
                res.mean_distributions[n], disordered.mean_distributions[n]
            )
    return SimilarityScan(
        p_grid=p_grid,
        steps=steps,
        n_maps=n_maps,
        master_seed=master_seed,
        s_ordered=s_ordered,
        s_disordered=s_disordered,
    )

"""Ensemble averaging over disorder realizations.

The runner samples and evolves whole blocks of maps at once (amplitude
arrays shaped (window sites, rows), the maps on the contiguous axis), which
is what makes thousand-map scans over a dense p grid cheap. Every walk
starts at the origin, so after step n it holds only the n + 1 sites of its
light cone, and only the cells it reads are sampled. The maps of one p are
split into chunks of at most chunk_maps(steps) = BATCH_CELLS // (steps + 1)
maps; chunks of several p are stacked into one batch and walked together.
After each step every map's moments are sums over the window, added left to
right in site order (walk_core._site_sums), and each p's mean distribution
is a running sum over its maps in index order, so no result depends on
where chunks or batches split. The pair scan of pdqw.two_photon walks the
same batches (_batches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Distribution
from .disorder import DEFAULT_ALPHABET, DisorderSpec, ScanSampler
from .errors import DomainError
from .walk_core import (_abs2, _site_sums, _walk, _walk_operands, evolve, light_cone,
                        position_distribution, walked_cells)

# Cells (rows x window sites) stepped together: it bounds the amplitude
# arrays of a batch and sets the maps per chunk. Larger batches save
# per-call overhead but raise peak memory.
BATCH_CELLS = 8192


@dataclass
class EnsembleResult:
    """Per-step statistics over n_maps disorder realizations.

    mean_probabilities[n-1] is the ensemble-mean distribution after step n
    on sites -steps..steps. max_norm_drift is the largest |weight - 1| of a
    map's walk before its distribution is normalized: the walk is unitary,
    so it measures round-off.
    """

    p: float
    steps: int
    n_maps: int
    master_seed: int
    mean_variance: np.ndarray
    std_variance: np.ndarray
    mean_probabilities: np.ndarray
    max_norm_drift: float

    @property
    def mean_distributions(self) -> list[Distribution]:
        """mean_probabilities as Distribution objects, built on each read."""
        return [Distribution(offset=-self.steps, probabilities=m) for m in self.mean_probabilities]


def mean_and_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over maps (axis -2, so values may stack several p ahead of it)
    and the n-1 standard deviation, which is exactly 0 wherever every map
    holds the same value (one map included)."""
    std = values.std(axis=-2, ddof=1) if values.shape[-2] > 1 else np.zeros_like(values[..., 0, :])
    std[(values == values[..., :1, :]).all(axis=-2)] = 0.0
    return values.mean(axis=-2), std


def chunk_maps(steps: int) -> int:
    """Maps per chunk at `steps` steps: as many rows as BATCH_CELLS holds,
    counting in a row the steps + 1 sites that a walk from the origin holds
    after its last step."""
    return max(1, BATCH_CELLS // (steps + 1))


def check_scan(specs, n_maps: int) -> list[DisorderSpec]:
    """The specs of one scan as a list, checked: at least one, n_maps >= 1, differing only in p."""
    specs = list(specs)
    if not specs:
        raise DomainError("specs must not be empty")
    if n_maps < 1:
        raise DomainError("n_maps must be >= 1")
    first = specs[0]
    shared = ("steps", "alphabet", "sampling_mode", "master_seed")
    if any(getattr(s, f) != getattr(first, f) for s in specs for f in shared):
        raise DomainError(f"specs of one scan may differ only in p, not in {shared}")
    return specs


def _batches(specs, n_maps: int, moments: list | None, cone):
    """The batch plan of one scan, shared by run_ensembles and
    run_pair_ensembles, whose walks step over `cone`.

    Yields (i, start, k, codes, var), one tuple per walk. The walk holds maps
    start.. of specs i .. i + k - 1, stacked in spec order: either k whole p
    (start 0), or, past chunk_maps(steps) maps, one chunk of one p, the chunks
    in map order. codes (cells, rows) holds each row's codes at
    walked_cells(cone), read from the scan's ScanSampler, and the caller
    fills var (rows, steps) with each row's variance. Once a p's last chunk
    has been walked, the mean_and_std of its variances is appended to
    `moments` (one call over all k p of a walk), so after the loop
    moments[i] belongs to specs[i]. With moments None no variance is read:
    var is None and no mean_and_std is taken.
    """
    sampler = ScanSampler(specs, *walked_cells(cone))
    steps = specs[0].steps
    size = chunk_maps(steps)
    chunks = [(i, a, min(a + size, n_maps)) for i in range(len(specs)) for a in range(0, n_maps, size)]
    # Several whole p per batch, or one chunk; either way equal-sized chunks.
    per_batch = max(1, size // n_maps)
    variances = []  # per-map variances of the chunks of the current p so far
    for b in range(0, len(chunks), per_batch):
        batch = chunks[b : b + per_batch]
        codes = np.concatenate([sampler.sample(j, a, z) for j, a, z in batch], axis=1)
        var = None if moments is None else np.empty((codes.shape[1], steps))
        yield batch[0][0], batch[0][1], len(batch), codes, var
        if var is None:
            continue
        variances.append(var)
        if batch[-1][2] == n_maps:
            mean, std = mean_and_std(np.concatenate(variances).reshape(len(batch), n_maps, steps))
            moments.extend(zip(mean, std))
            variances = []


def _scan_means(specs, coin, n_maps: int, moments: list | None) -> tuple[list[np.ndarray], np.ndarray]:
    """Each spec's mean distributions (steps, sites) and max_norm_drift, in
    spec order, walked as run_ensembles walks them; `moments` is passed to
    _batches, so None skips the per-map variances."""
    specs = check_scan(specs, n_maps)
    coin, table = _walk_operands(coin, specs[0].alphabet)
    steps = specs[0].steps
    n_sites = 2 * steps + 1
    cone = light_cone([steps], n_sites, steps)
    # The window of step n as site coordinates and their squares, one row
    # per site.
    sites = [(w.sites - steps).astype(float)[:, None] for w in cone[1:]]
    sites_sq = [x * x for x in sites]

    sums = np.zeros((len(specs), steps, n_sites))
    drifts = np.zeros(len(specs))
    for i, start, k, codes, var in _batches(specs, n_maps, moments, cone):
        rows = codes.shape[1]
        # psi[c]: coin-c amplitudes on the origin, one column per map.
        psi = np.zeros((2, 1, rows), dtype=coin.dtype)
        psi[0] = 1.0
        totals = np.empty((steps, rows))
        acc = sums[i : i + k]
        for n, (psi0, psi1) in enumerate(_walk(*psi, coin, codes, table, cone)):
            w = _abs2(psi0) + _abs2(psi1)
            totals[n] = _site_sums(w)
            w /= totals[n]
            if var is not None:
                m1 = _site_sums(w * sites[n])
                var[:, n] = _site_sums(w * sites_sq[n]) - m1 * m1
            # Each map's distributions as one contiguous (k, sites) block:
            # summed over maps, they add in index order, as one mean would.
            w = np.ascontiguousarray(w.reshape(len(w), k, -1).transpose(2, 1, 0))
            at = cone[n + 1].at
            if start > 0:
                # Carry the earlier chunks' sum into the first map.
                w[0] += acc[:, n, at]
            acc[:, n, at] = w.sum(axis=0)
        drift = np.abs(totals - 1.0).reshape(steps, k, -1).max(axis=(0, 2))
        np.maximum(drifts[i : i + k], drift, out=drifts[i : i + k])
    return [total / n_maps for total in sums], drifts


def run_ensembles(specs, coin, n_maps: int) -> list[EnsembleResult]:
    """run_ensemble for every spec, in order; the specs may differ only in p.

    One coin check, one phase table and one ScanSampler serve the whole
    scan. Whole p (or, past chunk_maps(steps) maps, single chunks of one p)
    are stacked along the batch axis of one walk (see _batches), and each
    result equals the one-spec call bit for bit.
    """
    specs = list(specs)
    moments = []
    means, drifts = _scan_means(specs, coin, n_maps, moments)
    return [
        EnsembleResult(p=s.p, steps=s.steps, n_maps=n_maps, master_seed=s.master_seed,
                       mean_variance=mean, std_variance=std, mean_probabilities=m,
                       max_norm_drift=float(drift))
        for s, (mean, std), m, drift in zip(specs, moments, means, drifts)
    ]


def run_ensemble(spec: DisorderSpec, coin, n_maps: int) -> EnsembleResult:
    """Mean and standard deviation of the variance, step by step, plus the
    ensemble-mean distribution after each step.

    The standard deviation uses the n-1 normalization and is exactly 0 where
    all maps agree (see mean_and_std). Output is a pure function of
    (spec, coin, n_maps).
    """
    return run_ensembles([spec], coin, n_maps)[0]


@dataclass
class SimilarityScan:
    """Similarity of ensemble means against the two limiting walks.

    s_ordered[n-1, j] compares the mean distribution at step n, dilution
    p_grid[j], against the zero-phase walk; s_disordered compares against
    the p=1 ensemble mean at the same n_maps and master seed.
    max_norm_drift is the largest of the scanned ensembles' (see
    EnsembleResult).
    """

    p_grid: np.ndarray
    steps: int
    n_maps: int
    master_seed: int
    s_ordered: np.ndarray
    s_disordered: np.ndarray
    max_norm_drift: float


def _similarities(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """analysis.similarity of the rows of g against those of h (both on one
    lattice, broadcast over the leading axes), value for value: sums over
    C-contiguous rows round as the 1-D sums do, and each square is taken on
    a Python float, whose pow rounds differently from numpy's x*x."""
    root = np.sqrt((g / g.sum(axis=-1, keepdims=True)) * (h / h.sum(axis=-1, keepdims=True))).sum(axis=-1)
    # Cauchy-Schwarz bounds the exact value by 1; clip float residue only.
    return np.array([min(max(r**2, 0.0), 1.0) for r in root.ravel().tolist()]).reshape(root.shape)


def similarity_scan(p_grid, steps: int, n_maps: int, coin, master_seed: int,
                    sampling_mode: str = "bernoulli", alphabet=DEFAULT_ALPHABET) -> SimilarityScan:
    """Scan the dilution axis and score each ensemble mean against both
    reference walks, for every step count up to `steps`.

    Only the mean distributions and the norm drift are computed: the walks
    are run_ensembles' walks, bit for bit, without the per-map variances."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.size < 2:
        raise DomainError("p_grid needs at least 2 points")

    ordered = np.stack([position_distribution(s).probabilities for s in evolve(steps, coin, None, steps)])
    # Each distinct p, the p=1 reference included, is walked once.
    distinct = list(dict.fromkeys([1.0, *p_grid.tolist()]))
    specs = [DisorderSpec(p, steps, alphabet, sampling_mode, master_seed) for p in distinct]
    walked, drifts = _scan_means(specs, coin, n_maps, None)
    means = dict(zip(distinct, walked))
    scan = np.stack([means[p] for p in p_grid.tolist()], axis=1)  # (step, p, site)
    s_ordered = _similarities(scan, ordered[:, None])
    s_disordered = _similarities(scan, means[1.0][:, None])
    return SimilarityScan(
        p_grid=p_grid,
        steps=steps,
        n_maps=n_maps,
        master_seed=master_seed,
        s_ordered=s_ordered,
        s_disordered=s_disordered,
        max_norm_drift=float(drifts.max()),
    )

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
from .walk_core import (_site_sums, _walk, _walk_operands, _WalkBuffers, evolve,
                        position_distribution, walked_cells, window)

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
    holds the same value (one map included).

    The mean is taken once and the deviations from it with the ufuncs that
    values.mean and values.std(ddof=1) apply (sum, divide by n, subtract,
    square, sum, divide by n - 1, root), in their order, so both are
    theirs bit for bit."""
    n = values.shape[-2]
    mean = np.true_divide(np.add.reduce(values, -2), n)
    if n > 1:
        deviations = np.subtract(values, mean[..., None, :])
        std = np.true_divide(np.add.reduce(np.square(deviations, deviations), -2), n - 1)
        np.sqrt(std, std)
    else:
        std = np.zeros_like(mean)
    std[np.logical_and.reduce(values == values[..., :1, :], -2)] = 0.0
    return mean, std


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


def _batches(specs, n_maps: int, moments: list | None):
    """The batch plan of one scan, shared by run_ensembles and
    run_pair_ensembles, whose walks start at the origin.

    Yields (i, start, k, codes, var), one tuple per walk. The walk holds maps
    start.. of specs i .. i + k - 1, stacked in spec order: either k whole p
    (start 0), or, past chunk_maps(steps) maps, one chunk of one p, the chunks
    in map order. No walk has more rows than the first, so a caller can size
    its scratch from it. codes (cells, rows) holds each row's codes at the
    cells the walk reads (walked_cells), read from the scan's ScanSampler, and
    the caller fills var (rows, steps) with each row's variance. Once a p's
    last chunk has been walked, the mean_and_std of its variances is
    appended to `moments` (one call over all k p of a walk), so after the
    loop moments[i] belongs to specs[i]. With moments None no variance is
    read: var is None and no mean_and_std is taken.
    """
    steps = specs[0].steps
    sampler = ScanSampler(specs, *walked_cells(steps, steps))
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


def _scan_views(scratch: np.ndarray, steps: int, rows: int, k: int) -> tuple:
    """_scan_means' views of its flat `scratch` for a batch of `rows` maps
    of k p: the weights' totals (steps, rows), the moments m1 and m2
    (rows,), and per step (w, t, total, by_site, by_map, first): the
    weights and a scratch (window sites, rows), the step's totals, w as
    the maps' map-major distributions, those as one contiguous (k, sites)
    block per map (in t's cells, free by then), and the first map's block.
    Each is a C-contiguous run of cells, so each operation rounds as on a
    new array."""
    cells = (steps + 1) * rows
    w_buf, t_buf, rest = scratch[:cells], scratch[cells : 2 * cells], scratch[2 * cells :]
    totals = rest[: steps * rows].reshape(steps, rows)
    m1, m2 = rest[steps * rows : (steps + 2) * rows].reshape(2, rows)
    per_step = []
    for n in range(steps):
        size = (n + 2) * rows
        w, t = w_buf[:size].reshape(n + 2, rows), t_buf[:size].reshape(n + 2, rows)
        by_map = t_buf[:size].reshape(rows // k, k, n + 2)
        per_step.append((w, t, totals[n], w.reshape(n + 2, k, -1).transpose(2, 1, 0), by_map, by_map[0]))
    return totals, m1, m2, per_step


def _scan_means(specs, coin, n_maps: int, moments: list | None) -> tuple[list[np.ndarray], np.ndarray]:
    """Each spec's mean distributions (steps, sites) and max_norm_drift, in
    spec order, walked as run_ensembles walks them; `moments` is passed to
    _batches, so None skips the per-map variances.

    Every view a step takes of the walk's and the scan's scratch is built
    once per batch shape, and every ufunc is called directly."""
    specs = check_scan(specs, n_maps)
    coin, table = _walk_operands(coin, specs[0].alphabet)
    real = coin.dtype.kind == "f"
    steps = specs[0].steps
    n_sites = 2 * steps + 1
    # The window of step n as site coordinates and their squares, one row
    # per site, and as lattice positions.
    sites = [np.arange(-n, n + 1, 2, dtype=float)[:, None] for n in range(1, steps + 1)]
    sites_sq = [x * x for x in sites]
    windows = [window(steps, n) for n in range(1, steps + 1)]
    # psi[c]: coin-c amplitudes on the origin, broadcast over the maps.
    psi = np.zeros((2, 1, 1), dtype=coin.dtype)
    psi[0] = 1.0

    sums = np.zeros((len(specs), steps, n_sites))
    drifts = np.zeros(len(specs))
    walk_buffers, views = None, {}
    for i, start, k, codes, var in _batches(specs, n_maps, moments):
        rows = codes.shape[1]
        if walk_buffers is None:
            # _batches' first batch is its largest: one set of scratch for
            # every batch, and each batch shape's views of it built once.
            walk_buffers = _WalkBuffers(steps, coin.dtype, rows)
            scratch = np.empty((3 * steps + 4) * rows)
        if (rows, k) not in views:
            views[rows, k] = _scan_views(scratch, steps, rows, k)
        totals, m1, m2, step_views = views[rows, k]
        sum_sites = np.add.reduce if rows > 1 else _site_sums
        acc = sums[i : i + k]
        walk = _walk(*psi, coin, codes, table, steps, walk_buffers)
        for n, ((psi0, psi1), (w, t, total, by_site, by_map, first)) in enumerate(zip(walk, step_views)):
            if real:
                np.multiply(psi0, psi0, w)
                np.multiply(psi1, psi1, t)
            else:  # |x|^2 as np.abs(x) ** 2 rounds
                np.square(np.absolute(psi0, w), w)
                np.square(np.absolute(psi1, t), t)
            np.add(w, t, w)
            sum_sites(w, 0, None, total)
            np.true_divide(w, total, w)
            if var is not None:
                sum_sites(np.multiply(w, sites[n], t), 0, None, m1)
                sum_sites(np.multiply(w, sites_sq[n], t), 0, None, m2)
                np.subtract(m2, np.multiply(m1, m1, m1), var[:, n])
            # Each map's distributions as one contiguous (k, sites) block:
            # summed over maps, they add in index order, as one mean would.
            np.copyto(by_map, by_site)
            at = acc[:, n, windows[n]]
            if start > 0:
                # Carry the earlier chunks' sum into the first map.
                np.add(first, at, first)
            np.add.reduce(by_map, 0, None, at)
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

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
where chunks or batches split. That batch loop (_scan) is shared with the
pair scan of pdqw.two_photon, which hands it its own per-step statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Distribution
from .disorder import DEFAULT_ALPHABET, DisorderSpec, ScanSampler
from .errors import DomainError
from .walk_core import (_empty_aligned, _site_sums, _walk, _walk_operands, _WalkBuffers, evolve,
                        position_distribution, walked_cells, window)

# Cells (rows x window sites) stepped together: it bounds the amplitude
# arrays of a batch and sets the maps per chunk. Larger batches save
# per-call overhead but raise peak memory.
BATCH_CELLS = 8192


@dataclass(eq=False)
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
    deviations = np.subtract(values, mean[..., None, :])
    std = np.true_divide(np.add.reduce(np.square(deviations, deviations), -2), max(n - 1, 1))
    np.sqrt(std, std)
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


def _scan(specs, coin, n_maps: int, columns: int, variances: bool,
          stepper) -> tuple[list[np.ndarray], np.ndarray, list]:
    """The one scan loop, shared by run_ensembles, similarity_scan and
    two_photon.run_pair_ensembles: walk `columns` input columns from the
    origin (column j enters coin j) through maps 0..n_maps-1 of each of the
    checked specs, and add each step's per-map values over each p's maps.

    A walk holds either several whole p (start 0) or, past chunk_maps(steps)
    maps, one chunk of one p, the chunks in map order and the p in spec
    order. The first walk is the largest, so all scratch is sized from it:
    stepper(rows, dtype), called once with its maps and the walks' dtype,
    sizes the caller's and returns step(n, psi0, psi1, w, t, total, by_map,
    block, var, overlap), called after each step n of a walk of k p, when w
    (window sites, *column, rows) holds the weights |psi0|^2 + |psi1|^2 and
    total (*column, rows) their sums over the window's sites, added left to
    right (one input column has no column axis). t, shaped like w, is free
    scratch until step writes block, which shares its cells; by_map is w
    viewed as (maps, k, *column, window sites). step writes each map's values
    into block (maps, k, *cell), one site axis per input column; each input
    pair's overlap modulus (0 if orthonormal) into overlap (pairs, rows); and,
    if `variances`, each map's variance into var (else None), the step's
    column of rows start..start+rows-1 of one (maps, steps) buffer. The scan
    adds block over its maps into the step's sums, carrying the earlier
    chunks' sums into the first map, so each p's maps add in index order
    wherever chunks or walks split; after a p's last chunk, mean_and_std of
    the buffer's first k * n_maps rows gives the walk's p their moments.

    Returns each step's sums (specs, *cell), each spec's max_norm_drift (the
    largest |total - 1| and overlap over its maps and steps) and moments.
    """
    coin, table = _walk_operands(coin, specs[0].alphabet)
    real = coin.dtype.kind == "f"
    steps = specs[0].steps
    sampler = ScanSampler(specs, *walked_cells(steps, steps))
    size = chunk_maps(steps)
    chunks = [(i, a, min(a + size, n_maps)) for i in range(len(specs)) for a in range(0, n_maps, size)]
    # Several whole p per walk, or one chunk; either way equal-sized chunks.
    per_batch = max(1, size // n_maps)
    # psi[c]: the coin-c amplitudes of the input columns on the origin,
    # broadcast over the maps, as the codes are over the columns.
    column = (columns,) if columns > 1 else ()
    pairs = columns * (columns - 1) // 2
    psi = np.eye(2, columns, dtype=coin.dtype).reshape(2, 1, *column, 1)
    sums = [np.zeros((len(specs),) + (n + 2,) * columns) for n in range(steps)]
    drifts = np.zeros(len(specs))
    moments = []
    step, views = None, {}
    for b in range(0, len(chunks), per_batch):
        batch = chunks[b : b + per_batch]
        (i, start, _), k = batch[0], len(batch)
        codes = np.concatenate([sampler.sample(j, a, z) for j, a, z in batch], axis=1)
        rows = codes.shape[1]
        if step is None:
            # After the first draw, its temporaries freed: traced peak 1.20, not 1.47 MiB at 101 p x 64 maps.
            step = stepper(rows, coin.dtype)
            walk_buffers = _WalkBuffers(steps, coin.dtype, columns * rows)
            w_buf = _empty_aligned((steps + 1) * columns * rows)
            t_buf = _empty_aligned(rows * (steps + 1) ** columns)
            norms_buf = _empty_aligned(steps * (columns + pairs) * rows)
            var_buf = _empty_aligned((max(rows, n_maps), steps)) if variances else None
        if (rows, k) not in views:
            # Each batch shape's views of the scratch, built once. Each is
            # a C-contiguous run of cells, so each operation rounds as on a
            # new array.
            norms = norms_buf[: steps * (columns + pairs) * rows].reshape(steps, columns + pairs, rows)
            per_step = []
            for n in range(steps):
                m = n + 2
                w = w_buf[: m * columns * rows].reshape(m, *column, rows)
                t = t_buf[: m * columns * rows].reshape(m, *column, rows)
                block = t_buf[: rows * m**columns].reshape(rows // k, k, *(m,) * columns)
                by_map = w.reshape(m, *column, k, -1).T
                total = norms[n, :columns].reshape(*column, rows)
                per_step.append((w, t, total, by_map, block, norms[n, columns:]))
            views[rows, k] = norms, per_step
        norms, per_step = views[rows, k]
        var = var_buf[start : start + rows] if variances else None
        walk = _walk(*psi, coin, codes.reshape(-1, *(1,) * len(column), rows), table, steps, walk_buffers)
        for n, ((psi0, psi1), (w, t, total, by_map, block, overlap)) in enumerate(zip(walk, per_step)):
            if real:
                np.multiply(psi0, psi0, w)
                np.multiply(psi1, psi1, t)
            else:  # |x|^2 as np.abs(x) ** 2 rounds
                np.square(np.absolute(psi0, w), w)
                np.square(np.absolute(psi1, t), t)
            np.add(w, t, w)
            _site_sums(w, total)
            step(n, psi0, psi1, w, t, total, by_map, block, None if var is None else var[:, n], overlap)
            at = sums[n][i : i + k]
            if start > 0:
                # Carry the earlier chunks' sum into the first map.
                np.add(block[0], at, block[0])
            np.add.reduce(block, 0, None, at)
        # Each map's drift: |total - 1| per column and each overlap.
        np.subtract(norms[:, :columns], 1.0, norms[:, :columns])
        np.absolute(norms, norms)
        drift = norms.reshape(steps, -1, k, rows // k).max(axis=(0, 1, 3))
        np.maximum(drifts[i : i + k], drift, out=drifts[i : i + k])
        if variances and batch[-1][2] == n_maps:
            mean, std = mean_and_std(var_buf[: k * n_maps].reshape(k, n_maps, steps))
            moments.extend(zip(mean, std))
    return sums, drifts, moments


def _scan_means(specs, coin, n_maps: int, variances: bool) -> tuple[list[np.ndarray], np.ndarray, list]:
    """_scan's returns with each spec's mean distributions (steps, sites) in
    place of the sums, walked as run_ensembles walks them."""
    specs = check_scan(specs, n_maps)
    steps = specs[0].steps
    # Each step's window as site coordinates (one row per site) and squares.
    sites = [np.arange(-n, n + 1, 2, dtype=float)[:, None] for n in range(1, steps + 1)]
    sites_sq = [x * x for x in sites]

    def stepper(rows, dtype):
        moment_buf = _empty_aligned((2, rows))  # the moments m1 and m2 of each map

        def step(n, psi0, psi1, w, t, total, by_map, block, var, overlap):
            np.true_divide(w, total, w)
            if var is not None:
                m1, m2 = moment_buf[:, : w.shape[1]]
                _site_sums(np.multiply(w, sites[n], t), m1)
                _site_sums(np.multiply(w, sites_sq[n], t), m2)
                np.subtract(m2, np.multiply(m1, m1, m1), var)
            # Each map's distributions as one contiguous (k, sites) block.
            np.copyto(block, by_map)

        return step

    sums, drifts, moments = _scan(specs, coin, n_maps, 1, variances, stepper)
    means = np.zeros((len(specs), steps, 2 * steps + 1))
    for n, total in enumerate(sums, start=1):
        means[:, n - 1, window(steps, n)] = total / n_maps
    return list(means), drifts, moments


def run_ensembles(specs, coin, n_maps: int) -> list[EnsembleResult]:
    """run_ensemble for every spec, in order; the specs may differ only in p.

    One coin check, one phase table and one ScanSampler serve the whole
    scan. Whole p (or, past chunk_maps(steps) maps, single chunks of one p)
    are stacked along the batch axis of one walk (see _scan), and each
    result equals the one-spec call bit for bit.
    """
    specs = list(specs)
    means, drifts, moments = _scan_means(specs, coin, n_maps, True)
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


@dataclass(eq=False)
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
    walked, drifts, _ = _scan_means(specs, coin, n_maps, False)
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

"""Single-walker dynamics of the phase-disordered discrete-time walk.

State model: a walker on sites -n_max..+n_max with a two-level coin. One
step applies, in order, the per-site phase stage (coin-1 amplitudes pick up
exp(i*phi)), the coin mix, and the coin-conditioned shift (coin 0 moves one
site left, coin 1 one site right). The shift is periodic, so every step is
exactly unitary on the finite lattice. Every walk steps only its light cone:
the ring sites its start state can have reached, which for a walk from the
origin are the n + 1 sites of parity n after n steps. Amplitude arrays are
site-major, shaped (window sites, *batch), so per-site work is a handful of
row operations over contiguous batches, and a walk reads its cell codes
already gathered at the cells it walks (walked_cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Distribution
from .disorder import phase_factors
from .errors import CapacityError, DomainError


def hadamard_coin() -> np.ndarray:
    """Balanced coin: equal split with a sign flip on the reflected 1-arm."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def coin_from_reflectivity(reflectivity: float) -> np.ndarray:
    """Real beam-splitter coin [[sqrt(R), sqrt(1-R)], [sqrt(1-R), -sqrt(R)]].

    reflectivity 0.5 reproduces the balanced coin; 0.45 models the hardware
    splitters.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise DomainError(f"reflectivity must lie in [0, 1], got {reflectivity!r}")
    r = np.sqrt(reflectivity)
    t = np.sqrt(1.0 - reflectivity)
    return np.array([[r, t], [t, -r]], dtype=complex)


def _walk_operands(coin, alphabet) -> tuple[np.ndarray, np.ndarray]:
    """The coin, checked to be a 2x2 unitary within 1e-12, and the
    phase-factor table of `alphabet` (indexed by cell code, see
    phase_factors), in the dtype every walk runs in.

    This is the one place that dtype is chosen: float64 when neither the
    coin nor the table has an imaginary part, as for any
    coin_from_reflectivity coin over the default {0, pi} alphabet, and
    complex128 otherwise. With zero imaginary parts complex products and
    sums give the real parts that float64 gives, and |x| = hypot(x, 0), so
    both dtypes walk to the same probabilities bit for bit.
    """
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise DomainError(f"coin must be 2x2, got shape {coin.shape}")
    if not np.allclose(coin.conj().T @ coin, np.eye(2), rtol=0.0, atol=1e-12):
        raise DomainError("coin must be unitary within 1e-12")
    table = phase_factors(alphabet)
    if coin.imag.any() or table.imag.any():
        return coin, table
    return coin.real.copy(), table.real.copy()


@dataclass
class WalkState:
    """Walker amplitudes on the lattice.

    amplitudes[i, c] is the amplitude at site (i - n_max) with coin c.
    `step` counts applied steps.
    """

    n_max: int
    amplitudes: np.ndarray
    step: int = 0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if self.amplitudes.shape != (2 * self.n_max + 1, 2):
            raise DomainError(
                f"amplitudes must have shape {(2 * self.n_max + 1, 2)}, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.amplitudes) ** 2).sum()))


@dataclass(frozen=True)
class Window:
    """The ring sites a walk can occupy after some step, and how the shift
    reaches them from the step before.

    `sites` are the sorted ring indices; `at` indexes them on a full lattice
    axis (a slice where they are evenly spaced). `shift[c]` moves the coin-c
    amplitudes one site (left for coin 0, right for coin 1) from the
    previous window into this one: (dst, src) slice pairs to copy, and the
    positions that receive nothing and hold 0.
    """

    sites: np.ndarray
    at: slice | np.ndarray
    shift: tuple = ()


def _index(ix: list[int]) -> slice | np.ndarray:
    """Sorted distinct indices as a slice where they are evenly spaced."""
    if len(ix) < 2:
        return slice(ix[0], ix[0] + 1) if ix else slice(0, 0)
    d = ix[1] - ix[0]
    evenly = all(b - a == d for a, b in zip(ix, ix[1:]))
    return slice(ix[0], ix[-1] + 1, d) if evenly else np.array(ix, dtype=np.intp)


def _moves(dst: list[int], width: int) -> tuple[list, slice | np.ndarray]:
    """Copy runs sending position j of a window to dst[j] of one `width`
    wide, and the positions of it left empty."""
    cuts = [0, *(j for j in range(1, len(dst)) if dst[j] - dst[j - 1] != 1), len(dst)]
    runs = [(slice(dst[a], dst[b - 1] + 1), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    filled = set(dst)
    return runs, _index([j for j in range(width) if j not in filled])


def light_cone(start, n_sites: int, steps: int) -> list[Window]:
    """Windows of a walk on a ring of n_sites whose start state is nonzero
    only at ring indices `start`: cone[0] holds the start sites and cone[n]
    those after step n, each the previous one moved one site left and one
    site right, modulo the ring. Once a window covers the ring it stays so.
    Windows hold few sites, so they are built with Python ints and sets."""
    prev = sorted({int(s) % n_sites for s in start})
    cone = [Window(np.array(prev, dtype=np.intp), _index(prev))]
    for _ in range(steps):
        sites = sorted({(s + d) % n_sites for s in prev for d in (-1, 1)})
        pos = {s: j for j, s in enumerate(sites)}  # the window position of each site
        shift = tuple(_moves([pos[(s + d) % n_sites] for s in prev], len(sites)) for d in (-1, 1))
        cone.append(Window(np.array(sites, dtype=np.intp), _index(sites), shift))
        prev = sites
    return cone


def walked_cells(cone) -> tuple[np.ndarray, np.ndarray]:
    """The code-plane cells a walk over `cone` reads, in reading order:
    step n reads row n-1 at the sites of cone[n-1]. Returns their (row,
    column) indices, so plane[walked_cells(cone)] gathers them; a plane's
    columns are the ring indices."""
    rows = np.repeat(np.arange(len(cone) - 1), [len(w.sites) for w in cone[:-1]])
    return rows, np.concatenate([w.sites for w in cone])[: len(rows)]


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2: x * x in float64, which is the bits np.abs(x) ** 2 gives there."""
    return x * x if x.dtype.kind == "f" else np.abs(x) ** 2


def _site_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a site-major array, added left to right in site
    order whatever the batch. numpy reduces the outer axis of a C-contiguous
    array one site at a time, elementwise over the batch, but drops a batch
    of one element and then sums pairwise, which rounds differently once 8
    sites or more are added; a lone column is therefore accumulated."""
    if a[0].size == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return a.sum(axis=0)


def _walk(psi0, psi1, coin, codes, table, cone):
    """Step coin-component arrays shaped (sites of cone[0], *batch); yield
    (psi0, psi1) on the sites of cone[n] after each step n.

    The one walk driver: the single walker, the batched ensemble and the
    two-photon input columns all step through it, so all perform identical
    elementwise float operations, in the dtype of the
    operands that _walk_operands gives them. `codes` holds the cell codes
    of walked_cells(cone) along axis 0, with trailing axes that broadcast
    against the batch. Step n takes the phase factors of its cells (the
    sites of the previous window) with table.take (the values fancy
    indexing gives, gathered faster), multiplies the coin-1 amplitudes by
    them, mixes with the coin and shifts coin 0 one site left, coin 1 one
    site right, periodically. Sites outside the window hold exact zeros on
    the full lattice, so on the window every amplitude is the one the full
    lattice walk gives, up to the sign of a zero.
    """
    read = 0
    for prev, window in zip(cone, cone[1:]):
        b1 = table.take(codes[read : read + len(prev.sites)]) * psi1
        read += len(prev.sites)
        a0 = coin[0, 0] * psi0 + coin[0, 1] * b1
        a1 = coin[1, 0] * psi0 + coin[1, 1] * b1
        shifted = []
        for a, (runs, empty) in zip((a0, a1), window.shift):
            psi = np.empty((len(window.sites),) + a.shape[1:], dtype=a.dtype)
            for dst, src in runs:
                psi[dst] = a[src]
            psi[empty] = 0.0
            shifted.append(psi)
        psi0, psi1 = shifted
        yield psi0, psi1


def _map_on_lattice(phase_map, n_max: int, steps: int) -> np.ndarray:
    """The first `steps` rows of the map's code plane on sites -n_max..n_max
    (cropped, or padded with unmarked cells). None stands for the map with
    no phases."""
    if phase_map is None:
        return np.zeros((steps, 2 * n_max + 1), dtype=np.int8)
    if phase_map.steps < steps:
        raise DomainError(f"phase map has {phase_map.steps} rows but {steps} steps were requested")
    padded = np.pad(phase_map.codes[:steps], ((0, 0), (n_max, n_max)))
    first = phase_map.steps  # the padded column of site -n_max
    return padded[:, first : first + 2 * n_max + 1]


def evolve(n_max: int, coin, phase_map, steps: int) -> list[WalkState]:
    """Run `steps` steps from the origin with coin state (1, 0) and return
    every state.

    phase_map may be None to skip the phase stage entirely; otherwise its
    rows 1..steps feed the per-step phase stage. steps beyond n_max raise
    CapacityError before any work is done.
    """
    coin, table = _walk_operands(coin, () if phase_map is None else phase_map.alphabet)
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if steps > n_max:
        raise CapacityError(f"steps={steps} exceeds lattice half-width n_max={n_max}")
    cone = light_cone([n_max], 2 * n_max + 1, steps)
    codes = _map_on_lattice(phase_map, n_max, steps)[walked_cells(cone)]
    walk = _walk(np.ones(1, dtype=coin.dtype), np.zeros(1, dtype=coin.dtype), coin, codes, table, cone)
    states = []
    for n, (window, psi) in enumerate(zip(cone[1:], walk), start=1):
        amplitudes = np.zeros((2 * n_max + 1, 2), dtype=complex)
        amplitudes[window.at] = np.stack(psi, axis=1)
        states.append(WalkState(n_max=n_max, amplitudes=amplitudes, step=n))
    return states


def position_distribution(state: WalkState) -> Distribution:
    """Measurement statistics of the site register.

    The coin is traced out and the result normalized by the total weight.
    """
    weights = (np.abs(state.amplitudes) ** 2).sum(axis=1)
    total = weights.sum()
    if total <= 0.0:
        raise DomainError("state carries no probability mass")
    return Distribution(offset=-state.n_max, probabilities=weights / total)


def mode_index(site: int, coin: int, n_max: int) -> int:
    """Flat index 2 * (site + n_max) + coin of lattice mode (site, coin)."""
    if coin not in (0, 1):
        raise DomainError("coin must be 0 or 1")
    if abs(site) > n_max:
        raise DomainError(f"site {site} outside lattice of half-width {n_max}")
    return 2 * (site + n_max) + coin

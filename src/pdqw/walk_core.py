"""Single-walker dynamics of the phase-disordered discrete-time walk.

State model: a walker on sites -n_max..+n_max with a two-level coin. One
step applies, in order, the per-site phase stage (coin-1 amplitudes pick up
exp(i*phi)), the coin mix, and the coin-conditioned shift (coin 0 moves one
site left, coin 1 one site right). Every walk starts on one site, the
origin, and steps only its light cone: after n steps the n + 1 sites of
parity n from -n to n (window), which never reach the lattice edge while
steps <= n_max. Amplitude arrays are site-major, shaped (window sites,
*batch), so per-site work is a handful of row operations over contiguous
batches, and a walk reads its cell codes already gathered at the cells it
walks (walked_cells). A walk steps in state buffers allocated once, for
the walk or for a whole scan (_WalkBuffers), and takes each step's views
of them from a list built once per batch shape, so a step is a few ufunc
calls with positional outputs; each step it yields is overwritten two
steps later (see _walk).
"""

from __future__ import annotations

import math
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


@dataclass(eq=False)
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


def window(n_max: int, n: int) -> slice:
    """The lattice positions (site + n_max) a walk from the origin holds
    after step n: every second one from site -n to site n."""
    return slice(n_max - n, n_max + n + 1, 2)


def walked_cells(centre: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The code-plane cells a walk of `steps` steps from column `centre`
    reads, in reading order: step n reads row n-1 at the n columns of its
    window after n-1 steps. Returns their (row, column) indices, so
    plane[walked_cells(centre, steps)] gathers them."""
    rows = np.repeat(np.arange(steps), np.arange(1, steps + 1))
    j = np.arange(rows.size) - rows * (rows + 1) // 2  # the cell's place in its row
    return rows, centre - rows + 2 * j


def _site_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over axis 0 of a site-major array, into `out` if given, added
    left to right in site order whatever the batch. numpy reduces the outer
    axis of a C-contiguous array one site at a time, elementwise over the
    batch, but drops a batch of one element and then sums pairwise, which
    rounds differently once 8 sites or more are added; a lone column is
    therefore accumulated."""
    if a.size > len(a):
        return np.add.reduce(a, 0, None, out)
    sums = np.add.accumulate(a, 0)[-1]
    if out is None:
        return sums
    out[...] = sums
    return out


def _step(psi0, b1, c00, c01, c10, c11, a0, a1) -> None:
    """The coin mix and the window-growing shift of one step, on site-major
    arrays with any trailing axes.

    psi0 and b1 hold the coin-0 amplitudes and the coin-1 amplitudes after
    the phase stage on the m sites of a window; c00, c01, c10 and c11 are
    the coin's entries. The next window has m + 1 sites, out0 and out1 per
    coin: a0 = out0[:m] receives coin 0 shifted one site left and
    a1 = out1[1:] coin 1 shifted one site right. The sites the shift leaves
    empty, out0[m] and out1[0], are not written and must hold zeros. Each
    amplitude is c_c0 * psi0 + c_c1 * b1 for coin c, multiplied and added
    in that order, so it rounds as that expression does. b1 is overwritten.
    """
    np.multiply(c01, b1, a1)
    np.multiply(c00, psi0, a0)
    np.add(a0, a1, a0)
    np.multiply(c11, b1, b1)
    np.multiply(c10, psi0, a1)
    np.add(a1, b1, a1)


def _empty_aligned(shape, dtype=float) -> np.ndarray:
    """np.empty(shape, dtype) starting on a cache line (64 bytes). The heap
    may start an array 16 or 32 bytes past one, and scan buffers placed so
    made a whole scan up to 10 % slower, so scans allocate this way."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class _WalkBuffers:
    """The state buffers of walks of `steps` steps over batches of up to
    `size` elements, allocated once, and the views that every step of a
    batch shape takes of them, built once per shape (see _walk).

    Two state buffers, each (coin, site, *batch) with steps + 1 sites, hold
    the steps in turn: step n writes the first n + 2 sites of buffer n % 2.
    A scan passes one _WalkBuffers, sized for its largest batch, to each of
    its walks, so they all step in the same memory.
    """

    def __init__(self, steps: int, dtype, size: int):
        self.steps = steps
        self._states = _empty_aligned(4 * (steps + 1) * size, dtype)
        self._b1 = _empty_aligned(steps * size, dtype)
        self._views = {}

    def views(self, batch: tuple) -> tuple:
        """(start0, start1, empty, per_step) for walks over `batch`, views of
        C-contiguous prefixes of the buffers. start0 and start1 take a
        walk's coin-0 and coin-1 amplitudes on its start site; empty lists
        the cells that a step's shift leaves empty, which must hold zeros
        when the step is taken; per_step holds each step's (cells, b1,
        psi0, psi1, a0, a1, out0, out1): the slice of its cell codes, the
        phased coin-1 amplitudes, the window it reads, the windows _step
        writes and the window it yields."""
        views = self._views.get(batch)
        if views is not None:
            return views
        steps, size = self.steps, math.prod(batch)
        states = self._states[: 4 * (steps + 1) * size].reshape(2, 2, steps + 1, *batch)
        b1 = self._b1[: steps * size].reshape(steps, *batch)
        # Step n reads the sites step n - 1 wrote; step 0 reads the start
        # site, coin 0 in buffer 1 (step 1 overwrites it) and coin 1 in b1,
        # which the phase stage multiplies in place.
        psi0, psi1 = states[1, 0, :1], b1[:1]
        per_step = []
        for n in range(steps):
            out0, out1 = states[n % 2, :, : n + 2]
            per_step.append((slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2), b1[: n + 1],
                             psi0, psi1, out0[: n + 1], out1[1:], out0, out1))
            psi0, psi1 = out0, out1
        # Step n leaves site n + 1 of coin 0 in buffer n % 2 and site 0 of
        # coin 1 empty; later steps, of this walk or an earlier one, write
        # the former.
        empty = (states[0, 0, 1::2], states[1, 0, 2::2], states[:, 1, 0])
        views = self._views[batch] = (states[1, 0, :1], b1[:1], empty, per_step)
        return views


def _walk(psi0, psi1, coin, codes, table, steps: int, buffers: _WalkBuffers | None = None):
    """Step coin-component arrays shaped (1, *batch), the amplitudes on one
    start site, `steps` times; yield (psi0, psi1) on the n + 1 sites of the
    window after each step n, every second site from start - n to start + n.

    The one walk driver: the single walker, the batched ensemble and the
    two-photon input columns all step through it, so all perform identical
    elementwise float operations, in the dtype of the
    operands that _walk_operands gives them. `codes` holds the cell codes
    of walked_cells along axis 0, with trailing axes that broadcast against
    the batch. Step n takes the phase factors of its n cells (the sites of
    the previous window) with table.take (the values fancy indexing gives,
    gathered faster) and multiplies the coin-1 amplitudes by them; _step
    mixes with the coin and shifts coin 0 one site left, coin 1 one site
    right: the window grows by one site, which coin 1 alone reaches on the
    right and coin 0 alone on the left. Every site off the window holds an
    exact zero on the lattice, so on the window every amplitude is the one
    the full lattice walk gives, up to the sign of a zero.

    The walk steps in `buffers` (by default new ones for this walk alone),
    whose views of each step it builds once per batch shape, not per step;
    per walk it only zeroes the cells the shift leaves empty. It writes
    step n into state buffer n % 2, so each yielded pair is a view that
    the walk overwrites two steps later, and the next walk in the same
    buffers overwrites all of them. A caller uses (or copies) a step's
    arrays before it advances the walk twice, and never writes into them.
    """
    batch = np.broadcast_shapes(psi0.shape[1:], psi1.shape[1:], codes.shape[1:])
    if buffers is None:
        buffers = _WalkBuffers(steps, np.result_type(psi0, psi1, coin, table), math.prod(batch))
    start0, start1, empty, per_step = buffers.views(batch)
    for zeros in empty:
        zeros.fill(0)
    start0[...] = psi0
    start1[...] = psi1
    c00, c01, c10, c11 = coin.ravel()
    take = table.take
    for cells, b1, psi0, psi1, a0, a1, out0, out1 in per_step:
        np.multiply(take(codes[cells]), psi1, b1)
        _step(psi0, b1, c00, c01, c10, c11, a0, a1)
        yield out0, out1


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
    if phase_map is None:
        codes = np.zeros(steps * (steps + 1) // 2, dtype=np.int8)
    elif phase_map.steps < steps:
        raise DomainError(f"phase map has {phase_map.steps} rows but {steps} steps were requested")
    else:
        codes = phase_map.codes[walked_cells(phase_map.steps, steps)]
    walk = _walk(np.ones(1, dtype=coin.dtype), np.zeros(1, dtype=coin.dtype), coin, codes, table, steps)
    states = []
    for n, psi in enumerate(walk, start=1):
        amplitudes = np.zeros((2 * n_max + 1, 2), dtype=complex)
        amplitudes[window(n_max, n)] = np.stack(psi, axis=1)
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

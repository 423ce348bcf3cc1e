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
walks (walked_cells). A walk steps in state buffers that it allocates once,
so each step it yields is overwritten two steps later (see _walk).
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


def _abs2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|x|^2, into `out` if given: x * x in float64, which is the bits
    np.abs(x) ** 2 gives there."""
    if x.dtype.kind == "f":
        return np.multiply(x, x, out=out)
    return np.square(np.abs(x, out=out), out=out)


def _site_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over axis 0 of a site-major array, into `out` if given, added
    left to right in site order whatever the batch. numpy reduces the outer
    axis of a C-contiguous array one site at a time, elementwise over the
    batch, but drops a batch of one element and then sums pairwise, which
    rounds differently once 8 sites or more are added; a lone column is
    therefore accumulated."""
    if a[0].size > 1:
        return a.sum(axis=0, out=out)
    sums = np.add.accumulate(a, axis=0)[-1]
    if out is None:
        return sums
    out[...] = sums
    return out


def _step(psi0, b1, coin, out0, out1) -> None:
    """The coin mix and the window-growing shift of one step, on site-major
    arrays with any trailing axes.

    psi0 and b1 hold the coin-0 amplitudes and the coin-1 amplitudes after
    the phase stage on the m sites of a window. out0 and out1, of m + 1
    sites each, receive the next window: coin 0 shifted one site left
    (out0[:m]) and coin 1 one site right (out1[1:]). The sites the shift
    leaves empty, out0[m] and out1[0], are not written and must hold zeros.
    Each amplitude is coin[c, 0] * psi0 + coin[c, 1] * b1, multiplied and
    added in that order, so it rounds as that expression does. b1 is
    overwritten.
    """
    m = len(psi0)
    a0, a1 = out0[:m], out1[1:]
    np.multiply(coin[0, 1], b1, out=a1)
    np.multiply(coin[0, 0], psi0, out=a0)
    a0 += a1
    np.multiply(coin[1, 1], b1, out=b1)
    np.multiply(coin[1, 0], psi0, out=a1)
    a1 += b1


def _walk(psi0, psi1, coin, codes, table, steps: int):
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

    The walk allocates its buffers once, not per step. It writes step n
    into the first n + 2 sites of state buffer n % 2 of two zero-initialised
    ones, so each yielded pair is a view that the walk overwrites two steps
    later. A caller uses (or copies) a step's arrays before it advances the
    walk twice, and never writes into them.
    """
    dtype = np.result_type(psi0, psi1, coin, table)
    batch = np.broadcast_shapes(psi0.shape[1:], psi1.shape[1:], codes.shape[1:])
    states = np.zeros((2, 2, steps + 1, *batch), dtype=dtype)
    b1 = np.empty((steps, *batch), dtype=dtype)
    for n in range(steps):
        phased = b1[: n + 1]
        np.multiply(table.take(codes[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]), psi1, out=phased)
        out0, out1 = states[n % 2, :, : n + 2]
        _step(psi0, phased, coin, out0, out1)
        psi0, psi1 = out0, out1
        yield psi0, psi1


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

"""Single-walker dynamics of the phase-disordered discrete-time walk.

State model: a walker on sites -n_max..+n_max with a two-level coin. One
step applies, in order, the per-site phase stage (coin-1 amplitudes pick up
exp(i*phi)), the coin mix, and the coin-conditioned shift (coin 0 moves one
site left, coin 1 one site right). The shift is periodic, so every step is
exactly unitary on the finite lattice; a walk from the origin with
steps <= n_max never reaches the edge, so the wrap moves only zeros.
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


def _walk(psi0, psi1, coin, codes, table):
    """Step coin-component arrays whose last axis is the site axis; yield
    (psi0, psi1) after each step.

    The one walk driver: the single walker, the batched ensemble, the
    two-photon input columns and the mode unitary all step through it, so
    all perform identical elementwise float operations, in the dtype of the
    operands that _walk_operands gives them. Step n gathers the
    phase factors of row n-1 with table.take(codes[..., n-1, :]) (the values
    fancy indexing gives, gathered faster), multiplies the coin-1 amplitudes
    by them, mixes with the coin and shifts coin 0 one site left, coin 1
    one site right. The shift is periodic; a walk from the origin that
    stays within its lattice has zero amplitude at the edges, so the wrap
    moves nothing.
    """
    for n in range(codes.shape[-2]):
        b1 = table.take(codes[..., n, :]) * psi1
        a0 = coin[0, 0] * psi0 + coin[0, 1] * b1
        a1 = coin[1, 0] * psi0 + coin[1, 1] * b1
        psi0 = np.empty_like(a0)
        psi1 = np.empty_like(a1)
        psi0[..., :-1] = a0[..., 1:]
        psi1[..., 1:] = a1[..., :-1]
        psi0[..., -1] = a0[..., 0]
        psi1[..., 0] = a1[..., -1]
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
    codes = _map_on_lattice(phase_map, n_max, steps)
    psi0 = np.zeros(2 * n_max + 1, dtype=coin.dtype)
    psi0[n_max] = 1.0
    return [
        WalkState(n_max=n_max, amplitudes=np.stack(psi, axis=1), step=n)
        for n, psi in enumerate(_walk(psi0, np.zeros_like(psi0), coin, codes, table), start=1)
    ]


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
    """Flat index of lattice mode (site, coin) in a mode unitary."""
    if coin not in (0, 1):
        raise DomainError("coin must be 0 or 1")
    if abs(site) > n_max:
        raise DomainError(f"site {site} outside lattice of half-width {n_max}")
    return 2 * (site + n_max) + coin


def single_particle_unitary(n_max: int, coin, phase_map, steps: int) -> np.ndarray:
    """Full mode unitary of `steps` steps over the 2*(2*n_max+1) lattice modes.

    Every basis column steps through `_walk` in one batch; its periodic
    shift makes the operator exactly unitary on the finite lattice, and
    columns whose light cone stays inside the lattice agree with `evolve`.
    Sites beyond the map's rows get phase 0. steps=0 returns the identity.
    """
    coin, table = _walk_operands(coin, () if phase_map is None else phase_map.alphabet)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    codes = _map_on_lattice(phase_map, n_max, steps)
    n_sites = 2 * n_max + 1
    dim = 2 * n_sites
    # psi_c[j, s]: amplitude at site index s, coin c, of basis column j = 2*s' + c'.
    basis = np.eye(dim, dtype=coin.dtype).reshape(dim, n_sites, 2)
    psi = basis[..., 0], basis[..., 1]
    for psi in _walk(*psi, coin, codes, table):
        pass  # only the last step's amplitudes are wanted
    return np.stack(psi, axis=-1).reshape(dim, dim).T.astype(complex, copy=False)

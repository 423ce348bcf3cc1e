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
from .errors import CapacityError, DomainError

# Norm drift tolerated per lossless step.
NORM_TOL = 1e-12


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


def _check_coin(coin: np.ndarray) -> np.ndarray:
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise DomainError(f"coin must be 2x2, got shape {coin.shape}")
    if not np.allclose(coin.conj().T @ coin, np.eye(2), atol=1e-12):
        raise DomainError("coin must be unitary within 1e-12")
    return coin


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


def initial_state(n_max: int, coin_amplitudes=(1.0, 0.0)) -> WalkState:
    """Walker localized at the origin with the given coin amplitudes."""
    a0, a1 = complex(coin_amplitudes[0]), complex(coin_amplitudes[1])
    if abs(abs(a0) ** 2 + abs(a1) ** 2 - 1.0) > NORM_TOL:
        raise DomainError("coin amplitudes must be normalized within 1e-12")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    amps = np.zeros((2 * n_max + 1, 2), dtype=complex)
    amps[n_max, 0] = a0
    amps[n_max, 1] = a1
    return WalkState(n_max=n_max, amplitudes=amps)


def _step_kernel(psi0, psi1, coin, phase_factors):
    """One step on coin-component arrays whose last axis is the site axis.

    The one step implementation: the single-walker path, the batched
    ensemble runner, the two-photon column runner and the mode unitary all
    call it, so all perform identical elementwise float operations. The
    shift is periodic; a walk from the origin that stays within its lattice
    has zero amplitude at the edges, so the wrap moves nothing.
    """
    b1 = phase_factors * psi1
    a0 = coin[0, 0] * psi0 + coin[0, 1] * b1
    a1 = coin[1, 0] * psi0 + coin[1, 1] * b1
    out0 = np.zeros_like(a0)
    out1 = np.zeros_like(a1)
    out0[..., :-1] = a0[..., 1:]
    out1[..., 1:] = a1[..., :-1]
    out0[..., -1] = a0[..., 0]
    out1[..., 0] = a1[..., -1]
    return out0, out1


def apply_step(state: WalkState, coin, phase_row, step_index: int) -> WalkState:
    """Advance one step using the phase row for `step_index` (1-based).

    phase_row holds radians for sites -step_index..+step_index (length
    2*step_index + 1); entries at the light-cone edge multiply zero
    amplitudes and are inert.
    """
    coin = _check_coin(coin)
    if step_index < 1:
        raise DomainError("step_index is 1-based")
    if step_index > state.n_max:
        raise CapacityError(
            f"step {step_index} would leave the lattice (n_max={state.n_max}); "
            "allocate a wider lattice instead of truncating"
        )
    row = np.asarray(phase_row, dtype=float)
    if row.shape != (2 * step_index + 1,):
        raise DomainError(
            f"phase row for step {step_index} must have {2 * step_index + 1} entries, got {row.shape}"
        )
    factors = np.ones(2 * state.n_max + 1, dtype=complex)
    lo = state.n_max - step_index
    factors[lo : lo + row.size] = np.exp(1j * row)
    psi0, psi1 = _step_kernel(state.amplitudes[:, 0], state.amplitudes[:, 1], coin, factors)
    return WalkState(
        n_max=state.n_max,
        amplitudes=np.stack([psi0, psi1], axis=1),
        step=state.step + 1,
    )


def evolve(n_max: int, coin, phase_map, steps: int, start: WalkState | None = None) -> list[WalkState]:
    """Run `steps` steps from the origin (or `start`) and return every state.

    phase_map may be None to skip the phase stage entirely; otherwise its
    rows 1..steps feed the per-step phase stage. steps beyond n_max raise
    CapacityError before any work is done.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if steps > n_max:
        raise CapacityError(f"steps={steps} exceeds lattice half-width n_max={n_max}")
    if phase_map is not None and phase_map.steps < steps:
        raise DomainError(f"phase map has {phase_map.steps} rows but {steps} steps were requested")
    state = start if start is not None else initial_state(n_max)
    out: list[WalkState] = []
    for n in range(1, steps + 1):
        if phase_map is None:
            row = np.zeros(2 * n + 1)
        else:
            row = phase_map.rows[n - 1]
        state = apply_step(state, coin, row, n)
        out.append(state)
    return out


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

    Every basis column is pushed through the step kernel in one batch; its
    periodic shift makes the operator exactly unitary on the finite lattice,
    and columns whose light cone stays inside the lattice agree with
    `evolve`. Phase rows cover sites -n..+n at step n, all other sites get
    phase 0. steps=0 returns the identity.
    """
    coin = _check_coin(coin)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if phase_map is not None and phase_map.steps < steps:
        raise DomainError(f"phase map has {phase_map.steps} rows but {steps} steps were requested")
    n_sites = 2 * n_max + 1
    dim = 2 * n_sites
    # psi_c[j, s]: amplitude at site index s, coin c, of basis column j = 2*s' + c'.
    basis = np.eye(dim, dtype=complex).reshape(dim, n_sites, 2)
    psi0, psi1 = basis[..., 0], basis[..., 1]
    for n in range(1, steps + 1):
        phases = np.zeros(n_sites)
        if phase_map is not None:
            row = np.asarray(phase_map.rows[n - 1], dtype=float)
            width = min(n, n_max)
            lo = n_max - width
            phases[lo : lo + 2 * width + 1] = row[n - width : n + width + 1]
        psi0, psi1 = _step_kernel(psi0, psi1, coin, np.exp(1j * phases))
    return np.stack([psi0, psi1], axis=-1).reshape(dim, dim).T

"""Independent reference implementations used to cross-check the package.

Everything here is written against the definitions only, with explicit
loops and dense matrices, sharing no code with src/pdqw. Slow on purpose;
keep lattice sizes small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def dense_step_matrix(n_max: int, coin: np.ndarray, phase_row: np.ndarray, step: int,
                      periodic: bool = False) -> np.ndarray:
    """One walk step as a dense matrix over basis |site, coin>.

    Basis index m = 2*(site + n_max) + c. The shift moves coin 0 one site
    left and coin 1 one site right. By default amplitudes at the lattice
    edge would be dropped, so callers must keep steps <= n_max. With
    periodic=True the lattice is a ring: coin 0 at site -n_max moves to
    +n_max, coin 1 at +n_max moves to -n_max, and phase-row entries for
    sites beyond the lattice are ignored, so any step count is allowed.
    """
    n_sites = 2 * n_max + 1
    dim = 2 * n_sites

    phase = np.eye(dim, dtype=complex)
    for idx, site in enumerate(range(-step, step + 1)):
        if abs(site) > n_max:
            continue
        m = 2 * (site + n_max) + 1
        phase[m, m] = np.exp(1j * phase_row[idx])

    coin_full = np.zeros((dim, dim), dtype=complex)
    for s in range(n_sites):
        for a in range(2):
            for b in range(2):
                coin_full[2 * s + a, 2 * s + b] = coin[a, b]

    shift = np.zeros((dim, dim), dtype=complex)
    for s in range(n_sites):
        if s - 1 >= 0:
            shift[2 * (s - 1) + 0, 2 * s + 0] = 1.0
        elif periodic:
            shift[2 * (n_sites - 1) + 0, 2 * s + 0] = 1.0
        if s + 1 < n_sites:
            shift[2 * (s + 1) + 1, 2 * s + 1] = 1.0
        elif periodic:
            shift[2 * 0 + 1, 2 * s + 1] = 1.0

    return shift @ coin_full @ phase


def mode(site: int, coin: int, n_max: int) -> int:
    """Basis index 2*(site + n_max) + coin of |site, coin> in the dense
    matrices below."""
    return 2 * (site + n_max) + coin


def dense_walk(n_max: int, coin: np.ndarray, phase_rows, steps: int, coin_amplitudes=(1.0, 0.0)):
    """Evolve |0, coin_amplitudes> by explicit matrix products.

    phase_rows[n-1] is the row applied before step n (radians, length 2n+1,
    sites -n..n); None means all-zero rows. Returns the list of position
    probability vectors over sites -n_max..n_max after steps 1..steps.
    """
    n_sites = 2 * n_max + 1
    psi = np.zeros(2 * n_sites, dtype=complex)
    psi[2 * n_max + 0] = coin_amplitudes[0]
    psi[2 * n_max + 1] = coin_amplitudes[1]

    out = []
    for n in range(1, steps + 1):
        row = np.zeros(2 * n + 1) if phase_rows is None else np.asarray(phase_rows[n - 1], dtype=float)
        psi = dense_step_matrix(n_max, coin, row, n) @ psi
        probs = np.abs(psi) ** 2
        out.append(probs[0::2] + probs[1::2])
    return out


def cone_rows(plane) -> list[np.ndarray]:
    """Row n of a (steps, 2*steps+1) plane over sites -steps..steps, cut to
    the sites -n..n that step n reaches."""
    steps = plane.shape[0]
    return [plane[n - 1, steps - n : steps + n + 1] for n in range(1, steps + 1)]


def phase_rows(codes, alphabet) -> list[np.ndarray]:
    """Radians of each row of a cell-code plane, as the oracles take them:
    code 0 is phase 0 and code 1 + i is alphabet[i]."""
    return cone_rows(np.concatenate([[0.0], np.asarray(alphabet, dtype=float)])[np.asarray(codes)])


def dense_unitary(n_max: int, coin: np.ndarray, phase_rows, steps: int) -> np.ndarray:
    """The walk's mode unitary over steps 1..steps on the ring of sites
    -n_max..n_max: the product of the periodic dense step matrices.
    phase_rows is as in dense_walk; steps=0 gives the identity."""
    u = np.eye(2 * (2 * n_max + 1), dtype=complex)
    for n in range(1, steps + 1):
        row = np.zeros(2 * n + 1) if phase_rows is None else np.asarray(phase_rows[n - 1], dtype=float)
        u = dense_step_matrix(n_max, coin, row, n, periodic=True) @ u
    return u


def permanent_2x2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]


def _fock_amplitude(u: np.ndarray, out_pair, in_pair) -> complex:
    """Amplitude from the two-boson state on modes in_pair to the one on
    out_pair: the permanent of the 2x2 submatrix of u, with a 1/sqrt(2)
    for each doubly occupied pair."""
    (k, l), (a, b) = out_pair, in_pair
    norm = (np.sqrt(2.0) if k == l else 1.0) * (np.sqrt(2.0) if a == b else 1.0)
    return permanent_2x2(u[np.ix_([k, l], [a, b])]) / norm


def two_boson_unitary(u: np.ndarray) -> np.ndarray:
    """Lift a single-particle unitary to the two-boson Fock sector.

    Basis: unordered pairs (k, l) with k <= l, dimension M(M+1)/2. Entry
    amplitudes are permanents of 2x2 submatrices with 1/sqrt(n!) factors
    for doubly occupied modes. The lift of a unitary is unitary, which the
    tests assert as a self-check.
    """
    m = u.shape[0]
    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    return np.array([[_fock_amplitude(u, row, col) for col in pairs] for row in pairs])


def two_boson_pair_probabilities(u: np.ndarray, mode_a: int, mode_b: int, eta: float) -> np.ndarray:
    """Unordered-pair coincidence probabilities for a two-photon input.

    eta interpolates between indistinguishable bosons (eta=1: the input
    pair's column of the Fock lift, two_boson_unitary, computed entry by
    entry) and fully distinguishable particles (independent single-particle
    propagation, eta=0). Returns a full symmetric (M, M) matrix whose upper
    triangle plus diagonal sums to 1.
    """
    m = u.shape[0]
    col = tuple(sorted((mode_a, mode_b)))
    probs = np.zeros((m, m))
    for k in range(m):
        for l in range(k, m):
            p_boson = abs(_fock_amplitude(u, (k, l), col)) ** 2
            if k == l:
                p_dist = (np.abs(u[k, mode_a]) ** 2) * (np.abs(u[k, mode_b]) ** 2)
            else:
                p_dist = (np.abs(u[k, mode_a]) ** 2) * (np.abs(u[l, mode_b]) ** 2) + (
                    np.abs(u[l, mode_a]) ** 2
                ) * (np.abs(u[k, mode_b]) ** 2)
            val = eta * p_boson + (1.0 - eta) * p_dist
            probs[k, l] = val
            probs[l, k] = val
    return probs


def site_pairs(modes: np.ndarray) -> np.ndarray:
    """Unordered site-pair probabilities from unordered mode-pair ones
    (basis index 2 * site + coin), the coin traced out: each unordered mode
    pair adds its probability to its unordered site pair once."""
    n_sites = modes.shape[0] // 2
    sites = np.zeros((n_sites, n_sites))
    for k in range(modes.shape[0]):
        for l in range(k, modes.shape[0]):
            i, j = k // 2, l // 2
            sites[i, j] += modes[k, l]
            if i != j:
                sites[j, i] += modes[k, l]
    return sites


def on_lattice(ensemble, n: int) -> np.ndarray:
    """Step n's window matrix of a pair ensemble (window_sites,
    window_matrices, steps) on every site pair of -steps..steps, zero off
    the window."""
    m = np.zeros((2 * ensemble.steps + 1,) * 2)
    at = ensemble.window_sites[n - 1] + ensemble.steps
    m[np.ix_(at, at)] = ensemble.window_matrices[n - 1]
    return m


def pair_centroid_variance(sites: np.ndarray) -> float:
    """Variance of the pair centroid (i + j) / 2 over the upper triangle of
    an unordered site-pair matrix on sites -n..n."""
    half = (sites.shape[0] - 1) // 2
    m1 = m2 = 0.0
    for i in range(sites.shape[0]):
        for j in range(i, sites.shape[0]):
            c = (i + j) / 2.0 - half
            m1 += c * sites[i, j]
            m2 += c * c * sites[i, j]
    return m2 - m1 * m1


def pair_marginal(sites: np.ndarray) -> np.ndarray:
    """One detector's site distribution from an unordered site-pair matrix:
    a pair on two sites gives half its mass to each, a pair on one site all
    of it."""
    out = np.zeros(sites.shape[0])
    for i in range(sites.shape[0]):
        out[i] += sites[i, i]
        for j in range(i + 1, sites.shape[0]):
            out[i] += sites[i, j] / 2.0
            out[j] += sites[i, j] / 2.0
    return out


def brute_force_positions(steps: int, coin: np.ndarray, phase_rows=None):
    """Path-sum evaluation of the walk, independent of any matrix algebra.

    Sums amplitudes over all 2**steps coin histories. Exponential; use for
    steps <= 10. Returns dict site -> probability for the final step only.
    """
    amps: dict[tuple[int, int], complex] = {}
    for history in itertools.product((0, 1), repeat=steps):
        amp = 1.0 + 0.0j
        site = 0
        c = 0
        for n, nxt in enumerate(history, start=1):
            if phase_rows is not None and c == 1:
                row = phase_rows[n - 1]
                amp *= np.exp(1j * row[site + n])
            amp *= coin[nxt, c]
            site = site - 1 if nxt == 0 else site + 1
            c = nxt
        key = (site, c)
        amps[key] = amps.get(key, 0.0 + 0.0j) + amp
    out: dict[int, float] = {}
    for (site, _), amp in amps.items():
        out[site] = out.get(site, 0.0) + abs(amp) ** 2
    return out


def reference_phase_map(master_seed: int, map_index: int, steps: int, p: float,
                        alphabet, sampling_mode: str):
    """(seed, rows, mask) of one phase map, drawn with numpy's own
    SeedSequence and default_rng, one generator per map, in the documented
    draw order: the marks of all cells in row order (a uniform below p, or
    an exact_fraction choice), then one alphabet index per cell."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(map_index,))
    seed = int(ss.generate_state(1, np.uint64)[0])
    rng = np.random.default_rng(seed)
    sizes = [2 * n + 1 for n in range(1, steps + 1)]
    total = sum(sizes)
    if sampling_mode == "bernoulli":
        mask = rng.random(total) < p
    else:
        mask = np.zeros(total, dtype=bool)
        count = int(Fraction(p) * total)
        if count > 0:
            mask[rng.choice(total, size=count, replace=False)] = True
    letters = rng.integers(0, len(alphabet), size=total)
    phases = np.where(mask, np.asarray(alphabet, dtype=float)[letters], 0.0)
    cuts = np.cumsum(sizes)[:-1]
    return seed, np.split(phases, cuts), np.split(mask, cuts)


def lemire_letters(words, n_letters: int) -> list[int]:
    """The letters Generator.integers(0, n_letters) draws from a stream of
    32-bit words, one word at a time as numpy's C routine
    buffered_bounded_lemire_uint32 does (Lemire, "Fast Random Integer
    Generation in an Interval", 2019): m = word * n_letters gives letter
    m >> 32, unless its low 32 bits fall below (2**32 - n_letters) %
    n_letters, when the next word is drawn instead. Stops where the words
    run out."""
    rng = n_letters - 1
    letters = []
    stream = iter(words)
    for word in stream:
        m = word * (rng + 1)
        leftover = m & 0xFFFFFFFF
        if leftover < rng + 1:
            threshold = (0xFFFFFFFF - rng) % (rng + 1)
            while leftover < threshold:
                word = next(stream, None)
                if word is None:
                    return letters
                m = word * (rng + 1)
                leftover = m & 0xFFFFFFFF
        letters.append(m >> 32)
    return letters




def enumerated_means(steps: int, p_values, coin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact disorder means of bernoulli maps over the alphabet {0, pi}, by
    walking every flip pattern once. Returns, for each p of p_values, each
    step's mean variance (p, steps) and mean distribution (p, steps,
    2*steps+1) over sites -steps..steps.

    Step n puts its phases on coin 1 before its coin, at sites -n..n, but
    only the n sites -(n-1), -(n-1)+2, ..., n-1 that hold amplitude then
    matter. Each of those C = steps(steps+1)/2 cells flips the sign of coin
    1 with probability q = p/2 (marked with p, then letter pi with 1/2)
    and leaves it alone otherwise, so the 2**C patterns of flips, a pattern
    with k flips weighing q**k (1-q)**(C-k), give the exact means. Every
    pattern walks from |0, coin 0> at once, as a (patterns, sites) array
    per coin, on the open lattice of sites -steps..steps.
    """
    cells = steps * (steps + 1) // 2
    signs = 1.0 - 2.0 * (np.arange(2**cells)[:, None] >> np.arange(cells) & 1)
    flips = np.count_nonzero(signs < 0, axis=1)
    q = np.asarray(p_values, dtype=float)[:, None] / 2
    weights = q**flips * (1 - q) ** (cells - flips)  # (p, patterns)
    sites = np.arange(-steps, steps + 1)
    psi0 = np.zeros((2**cells, sites.size), dtype=np.result_type(coin, float))
    psi1 = np.zeros_like(psi0)
    psi0[:, steps] = 1.0
    first = 0
    variances, dists = [], []
    for n in range(1, steps + 1):
        held = steps + np.arange(-(n - 1), n, 2)  # the sites holding amplitude
        psi1[:, held] *= signs[:, first : first + n]
        first += n
        a0 = coin[0, 0] * psi0 + coin[0, 1] * psi1
        a1 = coin[1, 0] * psi0 + coin[1, 1] * psi1
        psi0 = np.zeros_like(a0)
        psi1 = np.zeros_like(a1)
        psi0[:, :-1] = a0[:, 1:]  # coin 0 moves one site left
        psi1[:, 1:] = a1[:, :-1]  # coin 1 one site right
        probs = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
        mean = probs @ sites
        variances.append(probs @ sites**2 - mean**2)
        dists.append(probs)
    return weights @ np.array(variances).T, np.einsum("ap,npx->anx", weights, np.array(dists))

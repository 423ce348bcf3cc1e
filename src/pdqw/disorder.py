"""Generation and persistence of per-(step, site) phase maps.

A map for `steps` steps holds one dense row per step; row n covers sites
-n..+n (2n+1 cells, parity-unreachable cells included, they are provably
inert). A fraction p of cells is marked disordered and draws its phase
uniformly from the alphabet (default {0, pi}); every other cell carries
phase 0. Sampling is reproducible: the per-map seed is derived from
(master_seed, map_index) and the draw order is fixed, so regenerating from
the stored header is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError, MapParseError

DEFAULT_ALPHABET = (0.0, math.pi)
# Cell codes are int8: 0 for an unmarked cell, 1 + letter index otherwise.
MAX_ALPHABET = 127
SAMPLING_MODES = ("bernoulli", "exact_fraction")


@dataclass
class DisorderSpec:
    """Everything needed to draw an ensemble of phase maps."""

    p: float
    steps: int
    alphabet: tuple[float, ...] = DEFAULT_ALPHABET
    sampling_mode: str = "bernoulli"
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"dilution p must lie in [0, 1], got {self.p!r}")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.sampling_mode not in SAMPLING_MODES:
            raise DomainError(f"sampling_mode must be one of {SAMPLING_MODES}")
        self.alphabet = tuple(float(a) for a in self.alphabet)
        if not 1 <= len(self.alphabet) <= MAX_ALPHABET:
            raise DomainError(f"alphabet must hold 1 to {MAX_ALPHABET} phases")
        if not 0 <= int(self.master_seed) < 2**64:
            raise DomainError("master_seed must fit in 64 bits")


@dataclass(eq=False)
class PhaseMap:
    """One disorder realization.

    rows[n-1] holds radians for sites -n..+n of step n. `mask` marks the
    cells that were drawn as disordered; it is in-memory metadata (the file
    format stores phases only) and is excluded from equality.
    """

    steps: int
    rows: tuple[np.ndarray, ...]
    alphabet: tuple[float, ...]
    p_nominal: float
    seed: int
    sampling_mode: str
    mask: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.rows = tuple(np.asarray(r, dtype=float) for r in self.rows)
        if len(self.rows) != self.steps:
            raise DomainError(f"expected {self.steps} rows, got {len(self.rows)}")
        for n, row in enumerate(self.rows, start=1):
            if row.shape != (2 * n + 1,):
                raise DomainError(f"row {n} must have {2 * n + 1} entries, got {row.size}")

    @property
    def n_cells(self) -> int:
        return self.steps * self.steps + 2 * self.steps

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMap):
            return NotImplemented
        return (
            self.steps == other.steps
            and self.p_nominal == other.p_nominal
            and self.seed == other.seed
            and self.sampling_mode == other.sampling_mode
            and self.alphabet == other.alphabet
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix (mult A) or output hash (mult B) on word
    lanes; returns the hashed lanes and the next hash constant.

    Here and below, 32-bit words live in uint64 lanes and every product is
    masked back to 32 bits: wrapping mod 2**64, then masking, is wrapping
    mod 2**32.
    """
    values = values ^ np.uint64(const)
    const = const * mult & _MASK32
    values = values * np.uint64(const) & np.uint64(_MASK32)
    return values ^ (values >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & np.uint64(_MASK32)
    return r ^ (r >> 16)


def _seed_pool(words, extra=()) -> list[np.ndarray]:
    """SeedSequence.mix_entropy with the default pool of 4 words, lane-wise.

    `words` are the 4 entropy words that fill the pool; `extra` holds
    (word, first) pairs of entropy past the pool, each mixed only into
    lanes first.. (the lanes whose entropy is that long).
    """
    const = _INIT_A
    pool = []
    for word in words:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word, first in extra:
        for dst in range(4):
            hashed, const = _hash(word[first:], const, _MULT_A)
            pool[dst][first:] = _mix(pool[dst][first:], hashed)
    return pool


def _generate_state(pool, n_words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(n_words, uint64), lane-wise."""
    const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        hashed, const = _hash(pool[i % 4], const, _MULT_B)
        halves.append(hashed)
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


def _split_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 32-bit words of uint64 lanes."""
    return values & np.uint64(_MASK32), values >> 32


def map_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """64-bit seeds of maps start..stop-1 as a uint64 array.

    Seed k is SeedSequence(master_seed, spawn_key=(k,)).generate_state(1,
    uint64)[0], computed for all k in one pass over the lanes. A spawned
    sequence pads the master seed's words to the pool size, so its word
    count does not matter; an index from 2**32 up is a two-word key and
    takes one more mixing round.
    """
    if not 0 <= int(master_seed) < 2**64:
        raise DomainError("master_seed must fit in 64 bits")
    if not 0 <= start < stop <= 2**64:
        raise DomainError(f"need 0 <= start < stop <= 2**64, got {start}..{stop}")
    n = stop - start
    master = np.full(n, int(master_seed), dtype=np.uint64)
    zero = np.zeros(n, dtype=np.uint64)
    lo, hi = _split_words(np.arange(n, dtype=np.uint64) + np.uint64(start))
    two_words = min(max(2**32 - start, 0), n)  # first lane whose index is >= 2**32
    pool = _seed_pool([*_split_words(master), zero, zero], extra=[(lo, 0), (hi, two_words)])
    return _generate_state(pool, 1)[0]


def map_seed(master_seed: int, map_index: int) -> int:
    """64-bit seed for map `map_index`, derived deterministically."""
    return int(map_seeds(master_seed, map_index, map_index + 1)[0])


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 that default_rng(seed) builds, per seed.

    SeedSequence(seed).generate_state(4, uint64) gives the initial state and
    stream; PCG's srandom then runs on 128-bit ints. A seed below 2**32 is
    one entropy word and a larger one two, but a zero high word hashes like
    the pool's own zero fill, so both take this one path.
    """
    lo, hi = _split_words(np.asarray(seeds, dtype=np.uint64))
    zero = np.zeros_like(lo)
    words = _generate_state(_seed_pool([lo, hi, zero, zero]), 4)
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # srandom: one LCG step from 0, add the initial state, one more step.
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _cell_index(steps: int) -> np.ndarray:
    """Flat positions in a (steps, 2*steps+1) plane of the map cells, in
    draw order: row n covers sites -n..n of step n."""
    width = 2 * steps + 1
    return np.concatenate(
        [(n - 1) * width + np.arange(steps - n, steps + n + 1) for n in range(1, steps + 1)]
    )


def _draw_codes(steps: int, p: float, n_letters: int, sampling_mode: str, seeds) -> np.ndarray:
    """Cell codes of one map per seed, as a (maps, steps, 2*steps+1) int8
    tensor over sites -steps..steps: 0 is an unmarked cell, 1 + i a cell
    marked with alphabet letter i.

    Each map draws what default_rng(seed) would, in the order that is part
    of the format: the mark of every cell (a uniform below p, or an
    exact_fraction choice of cells), then a letter for every cell.
    """
    cells = _cell_index(steps)
    total = cells.size
    # Floor of p*total on the exact rational value of the float p, so the
    # count never suffers a binary off-by-one.
    count = int(Fraction(p) * total)
    bit_gen = np.random.PCG64(0)  # its state is replaced for every map
    rng = np.random.Generator(bit_gen)
    marked = np.zeros((len(seeds), total), dtype=bool)
    letters = np.empty((len(seeds), total), dtype=np.int8)
    for i, (state, inc) in enumerate(_pcg64_states(seeds)):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if sampling_mode == "bernoulli":
            np.less(rng.random(total), p, out=marked[i])
        elif count > 0:
            marked[i, rng.choice(total, size=count, replace=False)] = True
        letters[i] = rng.integers(0, n_letters, size=total)
    codes = np.zeros((len(seeds), steps, 2 * steps + 1), dtype=np.int8)
    codes.reshape(len(seeds), -1)[:, cells] = np.where(marked, letters + 1, 0)
    return codes


def sample_block(spec: DisorderSpec, start: int, stop: int) -> np.ndarray:
    """Cell codes of maps start..stop-1 of the ensemble described by `spec`,
    as a (maps, steps, 2*steps+1) int8 tensor (see phase_factors)."""
    seeds = map_seeds(spec.master_seed, start, stop)
    return _draw_codes(spec.steps, spec.p, len(spec.alphabet), spec.sampling_mode, seeds)


def phase_factors(alphabet) -> np.ndarray:
    """e^{i phase} for every cell code: 1 for code 0, e^{i a} for letter a."""
    return np.exp(1j * np.array([0.0, *alphabet]))


def _rows(plane: np.ndarray) -> tuple[np.ndarray, ...]:
    """The map rows held in a (steps, 2*steps+1) plane."""
    steps = plane.shape[0]
    return tuple(plane[n - 1, steps - n : steps + n + 1] for n in range(1, steps + 1))


def _phase_rows(codes: np.ndarray, alphabet) -> tuple[np.ndarray, ...]:
    return _rows(np.array([0.0, *alphabet])[codes])


def generate_phase_map(spec: DisorderSpec, map_index: int) -> PhaseMap:
    """Map number `map_index` of the ensemble described by `spec`."""
    if map_index < 0:
        raise DomainError("map_index must be >= 0")
    seeds = map_seeds(spec.master_seed, map_index, map_index + 1)
    codes = _draw_codes(spec.steps, spec.p, len(spec.alphabet), spec.sampling_mode, seeds)[0]
    return PhaseMap(
        steps=spec.steps,
        rows=_phase_rows(codes, spec.alphabet),
        alphabet=spec.alphabet,
        p_nominal=spec.p,
        seed=int(seeds[0]),
        sampling_mode=spec.sampling_mode,
        mask=_rows(codes > 0),
    )


def zero_map(steps: int) -> PhaseMap:
    """The ordered map: every cell phase 0, nothing marked disordered."""
    rows = _rows(np.zeros((steps, 2 * steps + 1)))
    mask = _rows(np.zeros((steps, 2 * steps + 1), dtype=bool))
    return PhaseMap(steps, rows, DEFAULT_ALPHABET, 0.0, 0, "bernoulli", mask)


def realized_fraction(phase_map: PhaseMap) -> float:
    """Fraction of cells marked disordered (not the fraction of nonzero phases:
    a disordered cell may legitimately draw 0)."""
    if phase_map.mask is None:
        raise DomainError(
            "disorder mask unavailable: this map was loaded from a file whose header "
            "does not regenerate its rows, so realized_fraction is undefined"
        )
    marked = sum(int(m.sum()) for m in phase_map.mask)
    return marked / phase_map.n_cells


def _format_pi_units(value_rad: float) -> str:
    units = value_rad / math.pi if value_rad != 0.0 else 0.0
    if units == int(units):
        return str(int(units))
    return repr(units)


def _alphabet_token(value_rad: float) -> str:
    if value_rad == 0.0:
        return "0"
    if value_rad == math.pi:
        return "pi"
    return repr(value_rad / math.pi)


def parse_alphabet_token(token: str) -> float:
    """Radians of one alphabet token: 'pi', or a number in units of pi.
    Anything else raises ValueError."""
    if token == "pi":
        return math.pi
    try:
        return float(token) * math.pi
    except ValueError:
        raise ValueError(f"bad alphabet token {token!r}") from None


def save_map(phase_map: PhaseMap, path) -> None:
    """Write the plain-text map format: header lines, then one row per step.

    Row entries are multiples of pi (so the default alphabet serializes as
    0/1). The header is sufficient to regenerate the map, which is how the
    disordered-cell mask survives a round trip.
    """
    lines = [
        f"steps={phase_map.steps}",
        f"p={phase_map.p_nominal!r}",
        f"seed={phase_map.seed}",
        f"mode={phase_map.sampling_mode}",
        "alphabet=" + ",".join(_alphabet_token(a) for a in phase_map.alphabet),
    ]
    for row in phase_map.rows:
        lines.append(" ".join(_format_pi_units(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _snap_to_alphabet(value_rad: float, alphabet: tuple[float, ...], line: int, col: int) -> float:
    for member in alphabet:
        if abs(value_rad - member) <= 1e-9:
            return member
    raise MapParseError(
        f"entry {col} is {value_rad / math.pi!r} pi, outside the alphabet "
        f"{tuple(round(a / math.pi, 12) for a in alphabet)} (in pi units)",
        line,
    )


def load_map(path) -> PhaseMap:
    """Parse a map file; inverse of save_map.

    Entries are snapped onto the declared alphabet (tolerance 1e-9 rad) so
    round trips are bit-exact. If regenerating from the header reproduces
    the stored rows, the disorder mask is re-attached; otherwise the map is
    treated as hand-made and carries no mask.
    """
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    header: dict[str, str] = {}
    expected = ["steps", "p", "seed", "mode", "alphabet"]
    for i, key in enumerate(expected):
        if i >= len(lines):
            raise MapParseError(f"missing header line '{key}='", i + 1)
        raw = lines[i].strip()
        if "=" not in raw:
            raise MapParseError(f"expected 'key=value', got {raw!r}", i + 1)
        k, _, v = raw.partition("=")
        if k != key:
            raise MapParseError(f"expected header '{key}=', got '{k}='", i + 1)
        header[k] = v

    try:
        steps = int(header["steps"])
    except ValueError:
        raise MapParseError(f"steps is not an integer: {header['steps']!r}", 1) from None
    if steps < 1:
        raise MapParseError(f"steps must be >= 1, got {steps}", 1)
    try:
        p_nominal = float(header["p"])
    except ValueError:
        raise MapParseError(f"p is not a number: {header['p']!r}", 2) from None
    if not 0.0 <= p_nominal <= 1.0:
        raise MapParseError(f"p must lie in [0, 1], got {p_nominal!r}", 2)
    try:
        seed = int(header["seed"])
    except ValueError:
        raise MapParseError(f"seed is not an integer: {header['seed']!r}", 3) from None
    if not 0 <= seed < 2**64:
        raise MapParseError(f"seed must fit in unsigned 64 bits, got {seed}", 3)
    mode = header["mode"]
    if mode not in SAMPLING_MODES:
        raise MapParseError(f"mode must be one of {SAMPLING_MODES}, got {mode!r}", 4)
    try:
        alphabet = tuple(
            parse_alphabet_token(tok.strip()) for tok in header["alphabet"].split(",") if tok.strip()
        )
    except ValueError as exc:
        raise MapParseError(str(exc), 5) from None
    if not alphabet:
        raise MapParseError("alphabet is empty", 5)
    if len(alphabet) > MAX_ALPHABET:
        raise MapParseError(f"alphabet has more than {MAX_ALPHABET} letters", 5)

    body = lines[5:]
    if len(body) < steps:
        raise MapParseError(f"expected {steps} row lines, file has {len(body)}", len(lines))
    rows = []
    for n in range(1, steps + 1):
        line_no = 5 + n
        tokens = body[n - 1].split()
        if len(tokens) != 2 * n + 1:
            raise MapParseError(
                f"row {n} must have {2 * n + 1} entries, got {len(tokens)}", line_no
            )
        row = np.empty(2 * n + 1)
        for col, tok in enumerate(tokens):
            try:
                units = float(tok)
            except ValueError:
                raise MapParseError(f"entry {col} is not a number: {tok!r}", line_no) from None
            row[col] = _snap_to_alphabet(units * math.pi, alphabet, line_no, col)
        rows.append(row)
    trailing = [ln for ln in body[steps:] if ln.strip()]
    if trailing:
        raise MapParseError(f"unexpected trailing content: {trailing[0]!r}", 5 + steps + 1)

    mask = None
    codes = _draw_codes(steps, p_nominal, len(alphabet), mode, np.array([seed], dtype=np.uint64))[0]
    if all(np.array_equal(a, b) for a, b in zip(_phase_rows(codes, alphabet), rows)):
        mask = _rows(codes > 0)
    return PhaseMap(
        steps=steps,
        rows=tuple(rows),
        alphabet=alphabet,
        p_nominal=p_nominal,
        seed=seed,
        sampling_mode=mode,
        mask=mask,
    )

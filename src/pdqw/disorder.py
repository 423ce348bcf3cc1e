"""Generation and persistence of per-(step, site) phase maps.

A map for `steps` steps has one row of cells per step; row n covers sites
-n..+n (2n+1 cells, parity-unreachable cells included, they are provably
inert). A fraction p of cells is marked disordered and draws its phase
uniformly from the alphabet (default {0, pi}); every other cell carries
phase 0. In memory a map is an int8 code plane (see PhaseMap); radians
appear only in the map-file text. Sampling is reproducible: the per-map
seed is derived from (master_seed, map_index) and the draw order is fixed,
so regenerating from the stored header is bit-identical.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError, MapParseError

DEFAULT_ALPHABET = (0.0, math.pi)
# Cell codes are int8: 0 for an unmarked cell, 1 + letter index otherwise.
MAX_ALPHABET = 127
SAMPLING_MODES = ("bernoulli", "exact_fraction")


def check_alphabet(alphabet) -> tuple[float, ...]:
    """The alphabet as a tuple of radians; DomainError unless it holds 1 to
    MAX_ALPHABET finite phases."""
    alphabet = tuple(float(a) for a in alphabet)
    if not 1 <= len(alphabet) <= MAX_ALPHABET:
        raise DomainError(f"alphabet must hold 1 to {MAX_ALPHABET} phases, got {len(alphabet)}")
    if not all(map(math.isfinite, alphabet)):
        raise DomainError(f"alphabet phases must be finite, got {alphabet}")
    return alphabet


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
        self.p = float(self.p)
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.sampling_mode not in SAMPLING_MODES:
            raise DomainError(f"sampling_mode must be one of {SAMPLING_MODES}")
        self.alphabet = check_alphabet(self.alphabet)
        if not 0 <= int(self.master_seed) < 2**64:
            raise DomainError("master_seed must fit in 64 bits")


@dataclass(eq=False)
class PhaseMap:
    """One disorder realization as an int8 code plane.

    codes[n-1, steps+s] is the cell of step n at site s (|s| <= n): 0 for an
    unmarked cell, 1 + i for a cell marked with alphabet letter i; cells
    outside the light cone are 0. `marks_known` is False for a map loaded
    from a file whose header does not regenerate it: its phases are right,
    but which cells were marked is unknown. It is excluded from equality.
    """

    steps: int
    codes: np.ndarray
    alphabet: tuple[float, ...]
    p_nominal: float
    seed: int
    sampling_mode: str
    marks_known: bool = True

    def __post_init__(self):
        codes = np.asarray(self.codes)
        shape = (self.steps, 2 * self.steps + 1)
        if codes.shape != shape:
            raise DomainError(f"code plane must have shape {shape}, got {codes.shape}")
        # Checked before the cast to int8, which would wrap.
        top = len(self.alphabet)
        if codes.dtype.kind not in "iu" or codes.min(initial=0) < 0 or codes.max(initial=0) > top:
            raise DomainError(f"cell codes must be integers in 0..{top}")
        self.codes = codes.astype(np.int8, copy=False)

    @property
    def n_cells(self) -> int:
        return self.steps * self.steps + 2 * self.steps

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMap):
            return NotImplemented
        header = ("steps", "p_nominal", "seed", "sampling_mode", "alphabet")
        same = all(getattr(self, f) == getattr(other, f) for f in header)
        return same and np.array_equal(self.codes, other.codes)


def map_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """64-bit seeds of maps start..stop-1 as a uint64 array: seed k is
    SeedSequence(master_seed, spawn_key=(k,)).generate_state(1, uint64)[0]."""
    if not 0 <= int(master_seed) < 2**64:
        raise DomainError("master_seed must fit in 64 bits")
    if not 0 <= start < stop <= 2**64:
        raise DomainError(f"need 0 <= start < stop <= 2**64, got {start}..{stop}")
    master = int(master_seed)
    return np.array(
        [np.random.SeedSequence(master, spawn_key=(k,)).generate_state(1, np.uint64)[0]
         for k in range(start, stop)],
        dtype=np.uint64,
    )


def map_seed(master_seed: int, map_index: int) -> int:
    """64-bit seed for map `map_index`, derived deterministically."""
    return int(map_seeds(master_seed, map_index, map_index + 1)[0])


def _draw(steps: int, n_letters: int, seeds, count: int | None = None):
    """What default_rng(seed) draws for one map per seed, in the order that
    is part of the format: the marks of all cells, then a letter for every
    cell. Returns (marks, letters) over the cells in row order: row n covers
    sites -n..n of step n.

    With count None (bernoulli) the marks are the cells' uniforms, which
    do not depend on p: a cell is marked where its uniform is below p.
    Otherwise (exact_fraction) they are booleans with `count` cells chosen.
    Letters come back as int8 codes, 1 + letter index.
    """
    total = steps * (steps + 2)
    if count is None:
        marks = np.empty((len(seeds), total))
    else:
        marks = np.zeros((len(seeds), total), dtype=bool)
    letters = np.empty((len(seeds), total), dtype=np.int8)
    for i, seed in enumerate(seeds.tolist()):
        rng = np.random.default_rng(seed)
        if count is None:
            rng.random(out=marks[i])
        elif count > 0:
            marks[i, rng.choice(total, size=count, replace=False)] = True
        letters[i] = rng.integers(0, n_letters, size=total)
    letters += 1
    return marks, letters


def _codes(steps: int, marked: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Lay the cell codes of each map, row by row, into a (maps, steps,
    2*steps+1) int8 tensor over sites -steps..steps: 0 is an unmarked cell,
    1 + i a cell marked with alphabet letter i."""
    codes = np.zeros((len(marked), steps, 2 * steps + 1), dtype=np.int8)
    cells = letters * marked
    for n in range(1, steps + 1):
        # Rows 1..n-1 hold n*n - 1 cells.
        codes[:, n - 1, steps - n : steps + n + 1] = cells[:, n * n - 1 : n * n + 2 * n]
    return codes


def _draw_codes(steps: int, p: float, n_letters: int, sampling_mode: str, seeds) -> np.ndarray:
    """Cell codes of one map per seed (see _codes), drawn afresh."""
    if sampling_mode == "bernoulli":
        uniforms, letters = _draw(steps, n_letters, seeds)
        return _codes(steps, uniforms < p, letters)
    # Floor of p*total on the exact rational value of the float p, so the
    # count never suffers a binary off-by-one.
    count = int(Fraction(p) * steps * (steps + 2))
    return _codes(steps, *_draw(steps, n_letters, seeds, count))


class _DrawCache:
    """Bernoulli draws of map blocks, least recently used first out, held
    within a byte budget.

    A block's uniforms and letters depend on (steps, number of letters,
    master seed, start, stop) and not on p, so a scan over p draws each
    block once. The arrays are read-only because every caller shares them.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self.misses = 0
        self._blocks: OrderedDict = OrderedDict()

    def get(self, steps: int, n_letters: int, master_seed: int, start: int, stop: int):
        key = (steps, n_letters, master_seed, start, stop)
        hit = self._blocks.get(key)
        if hit is not None:
            self._blocks.move_to_end(key)
            return hit
        self.misses += 1
        draws = _draw(steps, n_letters, map_seeds(master_seed, start, stop))
        size = sum(a.nbytes for a in draws)
        for a in draws:
            a.setflags(write=False)
        if size <= self.budget:
            self._blocks[key] = draws
            self.nbytes += size
            while self.nbytes > self.budget:
                self.nbytes -= sum(a.nbytes for a in self._blocks.popitem(last=False)[1])
        return draws


# 32 MiB holds every block of a 1000-map scan up to steps 60; at steps 20
# that is 8 blocks of 0.5 MB.
_draws = _DrawCache(budget=32 << 20)


def sample_block(spec: DisorderSpec, start: int, stop: int) -> np.ndarray:
    """Cell codes of maps start..stop-1 of the ensemble described by `spec`,
    as a (maps, steps, 2*steps+1) int8 tensor of PhaseMap code planes.

    Bernoulli draws come from the shared cache, so every p of a scan sees
    the same uniforms; exact_fraction draws afresh, as its choice of cells
    depends on p.
    """
    if spec.sampling_mode == "bernoulli":
        uniforms, letters = _draws.get(spec.steps, len(spec.alphabet), int(spec.master_seed), start, stop)
        return _codes(spec.steps, uniforms < spec.p, letters)
    seeds = map_seeds(spec.master_seed, start, stop)
    return _draw_codes(spec.steps, spec.p, len(spec.alphabet), spec.sampling_mode, seeds)


def phase_factors(alphabet) -> np.ndarray:
    """e^{i phase} for every cell code: 1 for code 0, e^{i a} for letter a."""
    return np.exp(1j * np.array([0.0, *alphabet]))


def generate_phase_map(spec: DisorderSpec, map_index: int) -> PhaseMap:
    """Map number `map_index` of the ensemble described by `spec`."""
    if map_index < 0:
        raise DomainError("map_index must be >= 0")
    seeds = map_seeds(spec.master_seed, map_index, map_index + 1)
    codes = _draw_codes(spec.steps, spec.p, len(spec.alphabet), spec.sampling_mode, seeds)[0]
    return PhaseMap(spec.steps, codes, spec.alphabet, spec.p, int(seeds[0]), spec.sampling_mode)


def realized_fraction(phase_map: PhaseMap) -> float:
    """Fraction of cells marked disordered (not the fraction of nonzero phases:
    a disordered cell may legitimately draw 0)."""
    if not phase_map.marks_known:
        raise DomainError(
            "disorder mask unavailable: this map was loaded from a file whose header "
            "does not regenerate its rows, so realized_fraction is undefined"
        )
    return int((phase_map.codes > 0).sum()) / phase_map.n_cells


def _format_pi_units(value_rad: float) -> str:
    units = value_rad / math.pi if value_rad != 0.0 else 0.0
    if units == int(units):
        return str(int(units))
    return repr(float(units))


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


def save_map(phase_map: PhaseMap, dest) -> None:
    """Write the plain-text map format to `dest`, a path or an open text
    file: header lines, then one row per step.

    Row entries are multiples of pi (so the default alphabet serializes as
    0/1). The header is sufficient to regenerate the map, which is how the
    marked cells survive a round trip.
    """
    lines = [
        f"steps={phase_map.steps}",
        f"p={phase_map.p_nominal!r}",
        f"seed={phase_map.seed}",
        f"mode={phase_map.sampling_mode}",
        "alphabet=" + ",".join(_alphabet_token(a) for a in phase_map.alphabet),
    ]
    tokens = [_format_pi_units(a) for a in (0.0, *phase_map.alphabet)]
    steps = phase_map.steps
    for n in range(1, steps + 1):
        row = phase_map.codes[n - 1, steps - n : steps + n + 1]
        lines.append(" ".join(tokens[c] for c in row.tolist()))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="ascii")


def _snap_to_code(value_rad: float, alphabet: tuple[float, ...], line: int, col: int) -> int:
    """Code of the first alphabet letter within 1e-9 rad of the value, else
    0 (unmarked) for a value near 0, whether or not the alphabet holds it."""
    for i, member in enumerate(alphabet):
        if abs(value_rad - member) <= 1e-9:
            return 1 + i
    if abs(value_rad) <= 1e-9:
        return 0
    raise MapParseError(
        f"entry {col} is {value_rad / math.pi!r} pi, outside the alphabet "
        f"{tuple(round(a / math.pi, 12) for a in alphabet)} (in pi units) and not 0",
        line,
    )


def load_map(path) -> PhaseMap:
    """Parse a map file; inverse of save_map.

    Entries are snapped straight to cell codes: the declared alphabet's
    letters, or 0 (tolerance 1e-9 rad). If the codes regenerated from the
    header give the same phases, the map holds the regenerated codes and its
    marks are known; otherwise it is treated as hand-made and holds the
    parsed codes, with marks unknown.
    """
    data = Path(path).read_bytes()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MapParseError(f"non-ASCII byte {data[exc.start]:#04x}", line) from None
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
        alphabet = check_alphabet(
            parse_alphabet_token(tok.strip()) for tok in header["alphabet"].split(",") if tok.strip()
        )
    except ValueError as exc:
        raise MapParseError(str(exc), 5) from None

    body = lines[5:]
    if len(body) < steps:
        raise MapParseError(f"expected {steps} row lines, file has {len(body)}", len(lines))
    codes = np.zeros((steps, 2 * steps + 1), dtype=np.int8)
    for n in range(1, steps + 1):
        line_no = 5 + n
        tokens = body[n - 1].split()
        if len(tokens) != 2 * n + 1:
            raise MapParseError(
                f"row {n} must have {2 * n + 1} entries, got {len(tokens)}", line_no
            )
        for col, tok in enumerate(tokens):
            try:
                units = float(tok)
            except ValueError:
                raise MapParseError(f"entry {col} is not a number: {tok!r}", line_no) from None
            codes[n - 1, steps - n + col] = _snap_to_code(units * math.pi, alphabet, line_no, col)
    trailing = [ln for ln in body[steps:] if ln.strip()]
    if trailing:
        raise MapParseError(f"unexpected trailing content: {trailing[0]!r}", 5 + steps + 1)

    regenerated = _draw_codes(steps, p_nominal, len(alphabet), mode, np.array([seed], dtype=np.uint64))[0]
    phases = np.array([0.0, *alphabet])
    marks_known = np.array_equal(phases[regenerated], phases[codes])
    return PhaseMap(steps, regenerated if marks_known else codes, alphabet, p_nominal, seed, mode,
                    marks_known)

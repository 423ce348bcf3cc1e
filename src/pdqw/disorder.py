"""Generation and persistence of per-(step, site) phase maps.

A map for `steps` steps has one row of cells per step; row n covers sites
-n..+n (2n+1 cells, parity-unreachable cells included, they are provably
inert). A fraction p of cells is marked disordered and draws its phase
uniformly from the alphabet (default {0, pi}); every other cell carries
phase 0. In memory a map is an int8 code plane (see PhaseMap); radians
appear only in the map-file text. Sampling is reproducible: the per-map
seed is derived from (master_seed, map_index) and the draw order is fixed.
One sampler, ScanSampler, draws every map, for a scan's walks and for
whole planes alike; loading a map file draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    outside the light cone are 0. A map loaded from a file holds its phases
    only: a cell of phase 0 loads as code 0, marked or not. So two maps are
    equal when their headers and their phase planes are.
    """

    steps: int
    codes: np.ndarray
    alphabet: tuple[float, ...]
    p_nominal: float
    seed: int
    sampling_mode: str

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMap):
            return NotImplemented
        header = ("steps", "p_nominal", "seed", "sampling_mode", "alphabet")
        same = all(getattr(self, f) == getattr(other, f) for f in header)
        phases = np.array([0.0, *self.alphabet])
        return same and np.array_equal(phases[self.codes], phases[other.codes])


def _hash_constants(init: int, mult: int, n: int) -> tuple[int, ...]:
    """init * mult**j mod 2**32 for j = 0..n."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return tuple(consts)


# numpy's SeedSequence hash, O'Neill's seed_seq_fe with a 4-word pool: the
# hash constants of mix_entropy (at most 6 entropy words: 24 hashes) and of
# generate_state (at most 8 words).
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK32 = 0xFFFFFFFF
# PCG64 words a bernoulli draw computes at once: a chunk's maps are drawn
# in blocks of about this many words (64 KiB per array).
_BLOCK_WORDS = 1 << 13


def _seed_state(entropy, n_words: int) -> np.ndarray:
    """SeedSequence's generate_state(n_words // 2, uint64) for many
    sequences at once, as an (n_words // 2, sequences) uint64 array.
    entropy[i] is the uint32 array of entropy word i (one entry per
    sequence, or one shared by all); the caller pads it with zero words to
    at least the pool's 4, as SeedSequence does. Each hash takes the next
    constants in turn, so the pool is one (4, sequences) array and a word's
    hashes into the other three pool words are one (3, sequences) array."""
    consts = np.array(_HASH_A, dtype=np.uint32)[:, None]

    def hashmix(value, first: int, count: int):
        """Hash `value` with the constants of hashes first..first+count-1, one per row."""
        value = (value ^ consts[first : first + count]) * consts[first + 1 : first + count + 1]
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    pool = hashmix(np.array(np.broadcast_arrays(*entropy[:4])), 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for i, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(word, 16 + 4 * i, 4))
    out = np.array(_HASH_B, dtype=np.uint32)[:, None]
    value = (pool[np.arange(n_words) % 4] ^ out[:n_words]) * out[1 : n_words + 1]
    words = (value ^ value >> 16).astype(np.uint64)
    return words[::2] | words[1::2] << 32


def _words(values: np.ndarray) -> list[np.ndarray]:
    """The low and high uint32 words of a uint64 array."""
    return [(values & _MASK32).astype(np.uint32), (values >> 32).astype(np.uint32)]


def map_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """64-bit seeds of maps start..stop-1 as a uint64 array: seed k is
    SeedSequence(master_seed, spawn_key=(k,)).generate_state(1, uint64)[0],
    computed for all k at once."""
    if not 0 <= int(master_seed) < 2**64:
        raise DomainError("master_seed must fit in 64 bits")
    if not 0 <= start < stop <= 2**64:
        raise DomainError(f"need 0 <= start < stop <= 2**64, got {start}..{stop}")
    # The entropy is the master's two words padded to the pool size, then
    # the spawn key's words: one below 2**32, two from there on.
    zero = np.zeros(1, np.uint32)
    master = [*_words(np.array([master_seed], dtype=np.uint64)), zero, zero]
    seeds = []
    for a, b in ((start, min(stop, 2**32)), (max(start, 2**32), stop)):
        if a < b:
            k = np.arange(b - a, dtype=np.uint64) + np.uint64(a)
            key = _words(k)[:1] if b <= 2**32 else _words(k)
            seeds.append(_seed_state(master + key, 2)[0])
    return np.concatenate(seeds)


def _pcg64_keys(seeds) -> np.ndarray:
    """What PCG64(seed) is seeded with, for each seed of a uint64 array: a
    (4, seeds) uint64 array of the 128-bit initial state s and increment
    inc, as rows s_hi, s_lo, inc_hi, inc_lo. PCG64 hashes the seed with
    SeedSequence(seed) into four 64-bit words s0..s3, here for all seeds at
    once: s = s0 << 64 | s1 and inc = (s2 << 64 | s3) << 1 | 1."""
    zero = np.zeros(1, np.uint32)
    s0, s1, s2, s3 = _seed_state([*_words(np.asarray(seeds, dtype=np.uint64)), zero, zero], 8)
    return np.array([s0, s1, s2 << 1 | s3 >> 63, s3 << 1 | 1])


def _pcg64_states(seeds):
    """Yield the PCG64(seed) state of each seed of a uint64 array, as the
    dict that PCG64.state takes, with no buffered 32-bit half.
    pcg64_set_seed steps its 128-bit LCG from 0 with increment inc, adds s
    and steps once more (see _pcg64_keys)."""
    for s_hi, s_lo, inc_hi, inc_lo in zip(*_pcg64_keys(seeds).tolist()):
        inc = inc_hi << 64 | inc_lo
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _lcg_jumps(ks) -> np.ndarray:
    """The 128-bit constants that take PCG64's seeding to the state of its
    output k, for each k of the int array `ks`, as a (4, len(ks)) uint64
    array of rows a_hi, a_lo, c_hi, c_lo. The LCG steps x -> M x + inc,
    seeding leaves it at (s + inc) M + inc, and each output steps it first,
    so output k (from 0) comes from state a s + c inc with a = M**(k+2) and
    c = M**0 + ... + M**(k+2), mod 2**128."""
    terms = []
    a, c = _PCG_MULT * _PCG_MULT & _MASK128, 1 + _PCG_MULT
    for _ in range(int(ks.max()) + 1):
        c = c + a & _MASK128
        terms.append(a.to_bytes(16, "little") + c.to_bytes(16, "little"))
        a = a * _PCG_MULT & _MASK128
    lo_hi = np.frombuffer(b"".join(terms), dtype="<u8").astype(np.uint64).reshape(-1, 4)[ks]
    return lo_hi[:, [1, 0, 3, 2]].T.copy()


def _mul128(x_hi, x_lo, y_hi, y_lo):
    """(hi, lo) of x * y mod 2**128 for 128-bit numbers given as uint64
    arrays that broadcast: lo is x_lo * y_lo mod 2**64, and hi adds its
    carry, the high word of x_lo * y_lo built from 32-bit halves, to
    x_lo * y_hi + x_hi * y_lo mod 2**64. Works in place on three arrays of
    the broadcast shape."""
    a0, a1 = x_lo & _MASK32, x_lo >> 32
    b0, b1 = y_lo & _MASK32, y_lo >> 32
    t = a0 * b0
    t >>= 32
    u = a1 * b0
    u += t
    v = a0 * b1
    np.bitwise_and(u, _MASK32, out=t)
    v += t
    u >>= 32
    v >>= 32
    np.multiply(a1, b1, out=t)
    t += u
    t += v
    np.multiply(x_lo, y_hi, out=u)
    t += u
    np.multiply(x_hi, y_lo, out=u)
    t += u
    np.multiply(x_lo, y_lo, out=u)
    return t, u


def _pcg64_words(keys: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Outputs k of PCG64 for the keys of each map (_pcg64_keys, one column
    per map) and the jumps of each k (_lcg_jumps), as a (maps, len(ks))
    uint64 array: what PCG64(seed).random_raw() gives as its k-th word.
    PCG64 is O'Neill's XSL RR 128/64 generator: from the 128-bit state x it
    outputs (x_hi ^ x_lo) rotated right by x >> 122."""
    hi, lo = _mul128(jumps[0], jumps[1], keys[0, :, None], keys[1, :, None])
    inc_hi, inc_lo = _mul128(jumps[2], jumps[3], keys[2, :, None], keys[3, :, None])
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    lo ^= hi
    hi >>= 58
    out = lo >> hi
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    out |= lo
    return out


def _draw_index(steps: int, rows, cols) -> np.ndarray:
    """The draw index of each code-plane cell (rows[j], cols[j]): row n
    holds sites -n..n of step n, drawn after the n*n - 1 cells of rows
    1..n-1. A cell outside its row's sites is never marked and reads -1."""
    n = np.asarray(rows) + 1
    s = np.asarray(cols) - steps
    return np.where(abs(s) <= n, n * n - 1 + n + s, -1)


def _map_letters(halves: np.ndarray, n_letters: int) -> np.ndarray:
    """The letters a map's 32-bit words `halves` (uint64 values below 2**32)
    give in turn by Lemire's rule: with m = word * n_letters the letter is
    m >> 32, unless m mod 2**32 < (2**32 - n_letters) % n_letters, when the
    word is rejected and gives none. That happens to at most n_letters /
    2**32 of words, and never when n_letters is a power of two."""
    m = halves * np.uint64(n_letters)
    return (m >> 32)[(m & _MASK32) >= (2**32 - n_letters) % n_letters]


def _letter_stream(keys: np.ndarray, total: int, n_letters: int) -> np.ndarray:
    """All `total` letters of the map with PCG64 keys `keys` (one column),
    read by _map_letters from its 32-bit stream after the `total` uniforms,
    as far as its rejections take it."""
    n_words = total
    while True:
        words = _pcg64_words(keys, _lcg_jumps(np.arange(total, total + n_words)))[0]
        letters = _map_letters(np.stack([words & _MASK32, words >> 32], axis=1).ravel(), n_letters)
        if len(letters) >= total:
            return letters[:total]
        n_words *= 2


def _draw(steps: int, n_letters: int, seeds, at):
    """The bernoulli draws of one map per seed at the draw indices `at` (see
    _draw_index), as (uniforms, letters), one row per cell and one column
    per map. Letters are int8 codes, 1 + letter index, and 0 at index -1.
    The uniforms do not depend on p: a cell is marked where its uniform is
    below p.

    This rule defines a map's rows. Let w be the 64-bit words that
    PCG64(seed).random_raw() gives and total = steps * (steps + 2). Cell
    i's uniform is (w[i] >> 11) * 2**-53, numpy's next_double. The letters
    come in cell order from the 32-bit halves of w[total:], low half first,
    by Lemire's rule (_map_letters), which skips a rejected half. So the
    draws equal default_rng(seed)'s random(total), then integers(0,
    n_letters, size=total). Without a rejection cell i's letter is half i;
    a map whose halves hit one is read again by _letter_stream.

    Only the words the cells read are computed (_pcg64_words), for blocks
    of maps of about _BLOCK_WORDS words each, plus every letter word when
    n_letters can reject, to find the maps that do.
    """
    total = steps * (steps + 2)
    n_words = total + (total + 1) // 2
    at = np.asarray(at)
    cell = np.maximum(at, 0)
    threshold = (2**32 - n_letters) % n_letters
    # Each cell's uniform word and letter word, then every letter word where
    # a rejection can happen. np.unique would do, but its sort code adds
    # about 0.5 MB to a fresh process's resident size.
    reads = np.concatenate([cell, total + cell // 2, np.arange(total if threshold else n_words, n_words)])
    read = np.zeros(n_words, dtype=bool)
    read[reads] = True
    ks = np.flatnonzero(read)
    column = (np.cumsum(read) - 1)[reads]  # where each read word is among ks
    jumps = _lcg_jumps(ks)
    keys = _pcg64_keys(seeds)
    shift = (cell % 2 * 32).astype(np.uint64)
    uniforms = np.empty((len(at), len(seeds)))
    letters = np.empty((len(at), len(seeds)), dtype=np.int8)
    block = max(1, _BLOCK_WORDS // len(ks))
    for a in range(0, len(seeds), block):
        b = min(a + block, len(seeds))
        words = _pcg64_words(keys[:, a:b], jumps)
        uniforms[:, a:b] = ((words[:, column[: len(at)]] >> 11) * 2.0**-53).T
        halves = words[:, column[len(at) : 2 * len(at)]] >> shift & _MASK32
        letters[:, a:b] = (halves * np.uint64(n_letters) >> 32).T
        if threshold:
            stream = words[:, column[2 * len(at) :]]
            m = np.concatenate([stream & _MASK32, (stream >> 32)[:, : total // 2]], axis=1)
            rejected = (m * np.uint64(n_letters) & _MASK32) < threshold
            for j in np.flatnonzero(rejected.any(axis=1)):
                letters[:, a + j] = _letter_stream(keys[:, a + j : a + j + 1], total, n_letters)[cell]
    letters += 1
    letters[at < 0] = 0
    return uniforms, letters


def _mark_count(steps: int, p: float) -> int:
    """How many cells an exact_fraction map marks: the floor of p * cells on
    the exact rational value num / den of the float p, in integers, so the
    count never suffers a binary off-by-one."""
    num, den = p.as_integer_ratio()
    return num * (steps * (steps + 2)) // den


def _draw_exact(steps: int, n_letters: int, seeds, at, count: int):
    """The exact_fraction draws of one map per seed at the draw indices
    `at`, as _draw gives them, with boolean marks: default_rng(seed)'s
    choice(total, size=count, replace=False) marks `count` cells (no call
    when count is 0), then integers(0, n_letters, size=total) gives the
    letters. One Generator draws every map, set to each map's start state
    in turn."""
    total = steps * (steps + 2)
    marks = np.zeros((len(seeds), total), dtype=bool)
    letters = np.empty((len(seeds), total), dtype=np.int8)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for i, state in enumerate(_pcg64_states(seeds)):
        bit_generator.state = state
        if count > 0:
            marks[i, rng.choice(total, size=count, replace=False)] = True
        letters[i] = rng.integers(0, n_letters, size=total)
    at = np.asarray(at)
    letters = letters.T[at] + 1
    letters[at < 0] = 0
    return marks.T[at], letters


class ScanSampler:
    """The one map sampler. For specs that differ only in p, sample(i,
    start, stop) gives the cell codes of maps start..stop-1 of specs[i] at
    the code-plane cells (rows, cols), one row per cell and one column per
    map, and seeds(start, stop) their map_seeds, computed once per chunk.

    Only those cells are built: a walk reads its light cone
    (walk_core.walked_cells), about a quarter of the plane at 20 steps.
    A bernoulli chunk's uniforms and letters do not depend on p: they are
    drawn when a spec first asks for the chunk and held for the sampler's
    life, one scan or one chunk of gen-maps. exact_fraction draws afresh.
    """

    def __init__(self, specs, rows, cols):
        self.specs = list(specs)
        self._at = _draw_index(self.specs[0].steps, rows, cols)
        self._held: dict = {}  # (start, stop) -> (seeds, bernoulli draws at the cells or None)

    @classmethod
    def whole_plane(cls, specs) -> ScanSampler:
        """A sampler over every cell of the code plane, row by row, so that
        sample(...).T reshapes to the maps' (steps, 2*steps+1) planes."""
        steps = specs[0].steps
        return cls(specs, *np.indices((steps, 2 * steps + 1)).reshape(2, -1))

    def _chunk(self, start: int, stop: int):
        held = self._held.get((start, stop))
        if held is None:
            spec = self.specs[0]
            seeds, draws = map_seeds(spec.master_seed, start, stop), None
            if spec.sampling_mode == "bernoulli":
                draws = _draw(spec.steps, len(spec.alphabet), seeds, self._at)
            held = self._held[start, stop] = seeds, draws
        return held

    def seeds(self, start: int, stop: int) -> np.ndarray:
        return self._chunk(start, stop)[0]

    def sample(self, i: int, start: int, stop: int) -> np.ndarray:
        spec = self.specs[i]
        seeds, draws = self._chunk(start, stop)
        if draws is None:
            marks, letters = _draw_exact(spec.steps, len(spec.alphabet), seeds, self._at,
                                         _mark_count(spec.steps, spec.p))
            return letters * marks
        return draws[1] * (draws[0] < spec.p)


def phase_factors(alphabet) -> np.ndarray:
    """e^{i phase} for every cell code: 1 for code 0, e^{i a} for letter a.

    A letter that is a whole number of quarter turns (a / (pi/2) an integer,
    as 0, pi/2, pi and 3pi/2 are) gets exactly 1, i, -1 or -i; np.exp leaves
    a residue of about 1e-16 in the other component, which would keep a
    walk over the default {0, pi} alphabet out of float64 (see
    walk_core._walk_operands). Every other letter keeps np.exp's value.
    """
    phases = np.array([0.0, *alphabet])
    turns = phases / (np.pi / 2)
    exact = turns == np.floor(turns)
    factors = np.exp(1j * phases)
    factors[exact] = np.array([1, 1j, -1, -1j])[(turns[exact] % 4).astype(int)]
    return factors


def generate_phase_map(spec: DisorderSpec, map_index: int) -> PhaseMap:
    """Map number `map_index` of the ensemble described by `spec`."""
    if map_index < 0:
        raise DomainError("map_index must be >= 0")
    sampler = ScanSampler.whole_plane([spec])
    codes = sampler.sample(0, map_index, map_index + 1).reshape(spec.steps, -1)
    seed = int(sampler.seeds(map_index, map_index + 1)[0])
    return PhaseMap(spec.steps, codes, spec.alphabet, spec.p, seed, spec.sampling_mode)


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
    0/1). The header records the ensemble and seed the map was drawn from;
    a round trip keeps the phases, not which phase-0 cells were marked.
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
    """Code of the nearest of phase 0 (code 0, whether or not the alphabet
    holds it) and the alphabet's letters, if it lies within 1e-9 rad of the
    value; a tie goes to 0, then to the first letter."""
    gaps = [abs(value_rad - member) for member in (0.0, *alphabet)]
    code = gaps.index(min(gaps))
    if gaps[code] <= 1e-9:
        return code
    raise MapParseError(
        f"entry {col} is {value_rad / math.pi!r} pi, outside the alphabet "
        f"{tuple(round(a / math.pi, 12) for a in alphabet)} (in pi units) and not 0",
        line,
    )


def load_map(path) -> PhaseMap:
    """Parse a map file; inverse of save_map.

    Entries snap to cell codes (_snap_to_code, tolerance 1e-9 rad), so a
    phase 0 loads as code 0. Nothing is drawn: the map holds the file's
    phases, and its header records the ensemble and seed it came from.
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
    return PhaseMap(steps, codes, alphabet, p_nominal, seed, mode)

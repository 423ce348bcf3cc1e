"""Correctness checks on the CSVs and manifest that a repetition wrote.

Every repetition: the exit code, the expected set of files, the manifest's
sha256 and byte count for every output, and outputs byte-identical to the
run's first repetition.

Once per run, on the first repetition's outputs, against an oracle written
here in plain numpy that calls no pdqw code:
- the p = 0 rows against the ordered walk, at rtol 1e-12. Exact equality
  does not hold even at the seed commit: the ensemble averages n_maps
  identical maps and takes moments by matrix product, which moves the last
  bit;
- one dilution chosen by the seed, recomputed map by map at rtol 1e-9. The
  maps are drawn here, in pdqw's documented draw order, so a sampler that
  breaks that order fails for every seed;
- the seed commit's stored values (reference.json) when the run's seed has
  an entry, at rtol 1e-9, so a declared float-reordering byte change still
  passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

STORED_RTOL = 1e-9
SAMPLED_RTOL = 1e-9
ORDERED_RTOL = 1e-12
ORDERED_ATOL = 1e-15
REFERENCE_P = tuple(round(0.1 * k, 10) for k in range(11))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_name(command: str) -> str:
    return f"manifest_{command.replace('-', '_')}.json"


def output_problems(w, out_dir: Path):
    """Check the files one repetition wrote against its manifest.

    Returns (problems, digest, files, bytes); digest covers the output
    files' sha256 values, files and bytes include the manifest.
    """
    manifest_path = out_dir / manifest_name(w.command)
    try:
        with open(manifest_path, encoding="ascii") as fh:
            listed = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc!r}"], None, 0, 0
    present = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    present.discard(manifest_path.name)
    problems = []
    if present != set(listed):
        problems.append(f"files on disk and in the manifest differ: {sorted(present ^ set(listed))[:5]}")
    if len(listed) != w.files:
        problems.append(f"{len(listed)} outputs listed, expected {w.files}")
    shas = {}
    total = manifest_path.stat().st_size
    for name, entry in listed.items():
        path = out_dir / name
        if not path.is_file():
            continue
        shas[name] = sha256(path)
        size = path.stat().st_size
        total += size
        if shas[name] != entry.get("sha256") or size != entry.get("bytes"):
            problems.append(f"{name}: manifest sha256 or bytes disagree with the file")
    digest = hashlib.sha256(json.dumps(shas, sort_keys=True).encode()).hexdigest()
    return problems, digest, len(listed) + 1, total


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


def reference_values(w, out_dir: Path) -> dict[str, float]:
    """The small set of numbers stored from the seed commit."""
    last = str(w.steps)
    if w.command == "ensemble":
        return {
            f"mean_var p={r['p']} step={last}": float(r["mean_var"])
            for r in _rows(out_dir / "ensemble.csv")
            if r["step"] == last and float(r["p"]) in REFERENCE_P
        }
    if w.command == "crossing":
        values = {
            f"p_star step={r['step']}": float(r["p_star"]) for r in _rows(out_dir / "crossing.csv")
        }
        for r in _rows(out_dir / "similarity_scan.csv"):
            if r["step"] == last and float(r["p"]) in REFERENCE_P:
                values[f"s_ordered p={r['p']} step={last}"] = float(r["s_ordered"])
                values[f"s_disordered p={r['p']} step={last}"] = float(r["s_disordered"])
        return values
    return {
        f"mean_var2 p={r['p']} step={last}": float(r["mean_var2"])
        for r in _rows(out_dir / "two_photon_var2.csv")
        if r["step"] == last
    }


def stored_problems(w, seed: int, out_dir: Path, digest: str, table: dict):
    """Compare with the seed commit. Returns (problems, byte_identical) where
    byte_identical is 1 or 0, or -1 when the table has no entry for this
    workload size and seed."""
    entry = table.get(w.name)
    if entry is None or entry["config"] != w.config():
        return [], -1
    ref = entry["seeds"].get(str(seed))
    if ref is None:
        return [], -1
    if digest == ref["digest"]:
        return [], 1
    got = reference_values(w, out_dir)
    problems = [
        f"{key}: {got.get(key)!r}, seed commit {want!r}"
        for key, want in zip(entry["keys"], ref["values"])
        if key not in got or not _close(got[key], want, STORED_RTOL)
    ]
    return problems, 0


def _rows_at(rows: list[dict], p: float) -> list[dict]:
    return [r for r in rows if float(r["p"]) == p]


# The oracle below is the model written out in plain numpy. It calls no pdqw
# code, so a rewrite of pdqw's kernels or statistics is checked against an
# independent computation. Every workload's config sets coin_reflectivity 0.5
# and, for two-photon, eta 1 (indistinguishable photons); the oracle assumes
# both.
_R = math.sqrt(0.5)
COIN = np.array([[_R, _R], [_R, -_R]])
ALPHABET = np.array([0.0, math.pi])


def _phase_rows(master_seed: int, p: float, steps: int, k: int) -> list[np.ndarray]:
    """Phase rows of map k of a bernoulli ensemble, in pdqw's map format.

    The per-map seed comes from SeedSequence(master_seed, spawn_key=(k,));
    its generator draws the mask over all cells of rows 1..steps, then the
    alphabet indices. That draw order is part of the format.
    """
    seed = int(np.random.SeedSequence(master_seed, spawn_key=(k,)).generate_state(1, np.uint64)[0])
    rng = np.random.default_rng(seed)
    sizes = [2 * n + 1 for n in range(1, steps + 1)]
    mask = rng.random(sum(sizes)) < p
    values = ALPHABET[rng.integers(0, ALPHABET.size, size=sum(sizes))]
    return np.split(np.where(mask, values, 0.0), np.cumsum(sizes)[:-1])


def _walk(rows, steps: int, coin: int = 0) -> list[np.ndarray]:
    """Amplitudes psi[site + steps, coin] after each step, from the origin.

    A step multiplies coin-1 amplitudes at sites -n..n by exp(i phi) from
    row n (none when rows is None), mixes the coin, then moves coin 0 one
    site left and coin 1 one site right.
    """
    psi = np.zeros((2 * steps + 1, 2), dtype=complex)
    psi[steps, coin] = 1.0
    out = []
    for n in range(1, steps + 1):
        phased = psi.copy()
        if rows is not None:
            phased[steps - n : steps + n + 1, 1] *= np.exp(1j * rows[n - 1])
        mixed = phased @ COIN.T
        psi = np.zeros_like(psi)
        psi[:-1, 0] = mixed[1:, 0]
        psi[1:, 1] = mixed[:-1, 1]
        out.append(psi)
    return out


def _position(psi: np.ndarray) -> np.ndarray:
    prob = (np.abs(psi) ** 2).sum(axis=1)
    return prob / prob.sum()


def _variance(prob: np.ndarray) -> float:
    x = np.arange(prob.size) - prob.size // 2
    return float(prob @ x**2 - (prob @ x) ** 2)


def _similarity(g: np.ndarray, h: np.ndarray) -> float:
    return float(np.sqrt(g / g.sum() * h / h.sum()).sum() ** 2)


def _mean_positions(master_seed: int, p: float, steps: int, n_maps: int) -> np.ndarray:
    """Ensemble-mean position distribution after each step, shape (steps, sites)."""
    return np.mean([
        [_position(psi) for psi in _walk(_phase_rows(master_seed, p, steps, k), steps)]
        for k in range(n_maps)
    ], axis=0)


def _pair_sites(rows, steps: int) -> list[np.ndarray]:
    """Ordered site-pair density after each step for photons entering (0, coin 0)
    and (0, coin 1): the mode-pair amplitude is the 2x2 permanent
    u_ka u_lb + u_la u_kb, and half its square is the density of each order."""
    out = []
    for a, b in zip(_walk(rows, steps, 0), _walk(rows, steps, 1)):
        a, b = a.ravel(), b.ravel()
        modes = np.abs(np.outer(a, b) + np.outer(b, a)) ** 2 / 2.0
        n_sites = 2 * steps + 1
        out.append(modes.reshape(n_sites, 2, n_sites, 2).sum(axis=(1, 3)))
    return out


def _variance2(density: np.ndarray) -> float:
    """Variance of the pair centroid (i + j) / 2."""
    x = np.arange(density.shape[0]) - density.shape[0] // 2
    c = (x[:, None] + x[None, :]) / 2.0
    return float((c * c * density).sum() - (c * density).sum() ** 2)


def _crossing(grid, s_ordered, s_disordered) -> float:
    """The p where the curves cross, linearly interpolated at the first sign change."""
    d = np.asarray(s_ordered) - np.asarray(s_disordered)
    for i in range(d.size - 1):
        if d[i] == 0.0:
            return grid[i]
        if d[i] * d[i + 1] < 0.0:
            return grid[i] + (grid[i + 1] - grid[i]) * d[i] / (d[i] - d[i + 1])
    return grid[-1] if d[-1] == 0.0 else math.nan


def ordered_problems(w, out_dir: Path) -> list[str]:
    """The p = 0 rows must be the ordered walk."""
    problems = []
    if w.command == "ensemble":
        dists = [_position(psi) for psi in _walk(None, w.steps)]
        for r in _rows_at(_rows(out_dir / "ensemble.csv"), 0.0):
            want = _variance(dists[int(r["step"]) - 1])
            if not _close(float(r["mean_var"]), want, ORDERED_RTOL):
                problems.append(f"p=0 step {r['step']}: mean_var {r['mean_var']}, ordered walk {want!r}")
        for r in _rows_at(_rows(out_dir / "ensemble_distributions.csv"), 0.0):
            want = float(dists[int(r["step"]) - 1][int(r["site"]) + w.steps])
            if not _close(float(r["probability"]), want, ORDERED_RTOL, ORDERED_ATOL):
                problems.append(f"p=0 step {r['step']} site {r['site']}: {r['probability']}, ordered walk {want!r}")
    elif w.command == "crossing":
        rows = _rows(out_dir / "similarity_scan.csv")
        for p, column in ((0.0, "s_ordered"), (1.0, "s_disordered")):
            for r in _rows_at(rows, p):
                if not _close(float(r[column]), 1.0, ORDERED_RTOL):
                    problems.append(f"p={p} step {r['step']}: {column} {r[column]}, expected 1")
    else:
        var_rows = {r["step"]: r for r in _rows_at(_rows(out_dir / "two_photon_var2.csv"), 0.0)}
        for n, density in enumerate(_pair_sites(None, w.steps), start=1):
            want = _variance2(density)
            got = float(var_rows[str(n)]["mean_var2"])
            if not _close(got, want, ORDERED_RTOL):
                problems.append(f"p=0 step {n}: mean_var2 {got!r}, ordered pair {want!r}")
            for r in _rows(out_dir / f"two_photon_matrix_p0_step{n}.csv"):
                i, j = int(r["site_i"]) + w.steps, int(r["site_j"]) + w.steps
                want = density[i, j] if i == j else density[i, j] + density[j, i]
                if not _close(float(r["probability"]), float(want), ORDERED_RTOL, ORDERED_ATOL):
                    problems.append(f"p=0 step {n} pair ({r['site_i']}, {r['site_j']}) differs from the ordered pair")
    return problems


def sampled_problems(w, seed: int, out_dir: Path) -> list[str]:
    """Recompute one seed-chosen dilution map by map and compare."""
    p = random.Random(seed).choice([q for q in w.p if q > 0.0])
    last = str(w.steps)
    if w.command == "ensemble":
        want = float(np.mean([
            _variance(_position(_walk(_phase_rows(seed, p, w.steps, k), w.steps)[-1]))
            for k in range(w.n_maps)
        ]))
        row = [r for r in _rows_at(_rows(out_dir / "ensemble.csv"), p) if r["step"] == last]
        got = float(row[0]["mean_var"]) if row else math.nan
        return [] if _close(got, want, SAMPLED_RTOL) else [f"p={p}: mean_var {got!r}, map by map {want!r}"]
    if w.command == "crossing":
        problems = []
        ordered = [_position(psi) for psi in _walk(None, w.steps)]
        mean_p = _mean_positions(seed, p, w.steps, w.n_maps)
        mean_1 = _mean_positions(seed, 1.0, w.steps, w.n_maps)
        rows = _rows(out_dir / "similarity_scan.csv")
        for r in _rows_at(rows, p):
            n = int(r["step"]) - 1
            for column, ref in (("s_ordered", ordered[n]), ("s_disordered", mean_1[n])):
                want = _similarity(mean_p[n], ref)
                if not _close(float(r[column]), want, SAMPLED_RTOL):
                    problems.append(f"p={p} step {n + 1}: {column} {r[column]}, map by map {want!r}")
        grid = sorted({float(r["p"]) for r in rows})
        for r in _rows(out_dir / "crossing.csv"):
            by_p = {float(x["p"]): x for x in rows if x["step"] == r["step"]}
            want = _crossing(grid, [float(by_p[q]["s_ordered"]) for q in grid],
                             [float(by_p[q]["s_disordered"]) for q in grid])
            if not _close(float(r["p_star"]), want, ORDERED_RTOL):
                problems.append(f"step {r['step']}: p_star {r['p_star']}, from the scan {want!r}")
        return problems
    want = float(np.mean([
        _variance2(_pair_sites(_phase_rows(seed, p, w.steps, k), w.steps)[-1])
        for k in range(w.n_maps)
    ]))
    row = [r for r in _rows_at(_rows(out_dir / "two_photon_var2.csv"), p) if r["step"] == last]
    got = float(row[0]["mean_var2"]) if row else math.nan
    return [] if _close(got, want, SAMPLED_RTOL) else [f"p={p}: mean_var2 {got!r}, map by map {want!r}"]

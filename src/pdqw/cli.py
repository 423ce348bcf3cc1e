"""Command-line front end.

One table, `_COMMANDS`, names each subcommand with its function and its
--help line; the argument parser is built from it.

Every subcommand reads one YAML config, writes CSVs plus a JSON run
manifest (config echo, tool, Python and numpy versions, sha256 and size per
output, timings, peak resident memory, and for the ensemble commands the
largest norm drift) into the output directory, and exits 0 only if all
outputs were produced. Every value cell is written as repr of its float (or
str of an integer), so identical runs produce byte-identical files. The
small tables go through one column writer, `_write_csv`. The light-cone
files (`evolve_*.csv`, `ensemble_distributions.csv` and the pair matrices)
go through a row template instead: each key and each whole row of a cone
cell the walk cannot reach (written as 0.0, after a check that the data
holds exactly +0.0 there) is formatted once per command call, and each block
formats only the values of the cells its walk reaches.
Each output, map file and manifest is written under a temporary name and
renamed into place; an output's sha256 and byte count are taken from the
bytes as they are written. A command deletes its old manifest before it
runs, so a failed command leaves no truncated output and no manifest of its
own. --threads is validated and echoed in the manifest, but every scan runs
serially in one process whatever its value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import crossing_point, fit_beta
from .config import SimulationConfig, config_echo, load_config, p_tag
from .disorder import DisorderSpec, PhaseMap, generate_phase_map, load_map, map_seeds, sample_block, save_map
from .ensemble import chunk_maps, run_ensembles, similarity_scan
from .errors import ConfigError, DomainError, MapParseError, PdqwError
from .two_photon import PAIR_CONVENTION, hom_scan, run_pair_ensembles
from .walk_core import coin_from_reflectivity, evolve, position_distribution

LOW_RESOLUTION_SPACING = 0.1
# Marks the place of a value in a template row; no key or float text holds it.
_SLOT = "?"


class _Sink:
    """A binary file that takes ASCII text and hashes and counts its bytes
    as they are written."""

    def __init__(self, fh):
        self._fh = fh
        self.sha256 = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> None:
        data = text.encode("ascii")
        self.sha256.update(data)
        self.bytes += len(data)
        self._fh.write(data)


@contextmanager
def _replacing(path: Path):
    """Yield a _Sink for a file that replaces `path` when the block
    completes; if the block fails, the partial file is deleted and `path` is
    untouched."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield _Sink(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Outputs:
    """The files a command writes into its output directory. `files` maps
    each file's name, relative to the directory, to the sha256 and size of
    the bytes written; `seconds` adds up the time spent formatting, writing
    and hashing them."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.files: dict[str, dict] = {}
        self.seconds = 0.0

    @contextmanager
    def clock(self):
        """Count the block's time as writing time."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - started

    @contextmanager
    def open(self, name: str):
        """Yield a _Sink for output `name`, renamed into place and recorded
        in `files` when the block completes."""
        with self.clock(), _replacing(self.directory / name) as sink:
            yield sink
        self.files[name] = {"sha256": sink.sha256.hexdigest(), "bytes": sink.bytes}


def _write_csv(out: _Outputs, name: str, header: list[str], blocks) -> None:
    """Write a small CSV table one block of rows at a time.

    A block is a list of columns: equal-length 1-D arrays, scalars that
    repeat down the block, or lists of str. A list holds cells already
    formatted and goes out as it is. A float column is written as repr of
    each value, any other column with str. A scalar is formatted once and
    repeated, and each block goes to the file in one write.
    """
    with out.open(name) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cells = []
            for c in block:
                if not isinstance(c, list):
                    c = np.asarray(c)
                    fmt = repr if c.dtype.kind == "f" else str
                    c = list(map(fmt, c.tolist())) if c.ndim else fmt(c.tolist())
                cells.append(c)
            # One row for an all-scalar block; ValueError if column lengths differ.
            (n_rows,) = {len(c) for c in cells if isinstance(c, list)} or {1}
            rows = zip(*(c if isinstance(c, list) else [c] * n_rows for c in cells))
            text = "\n".join(map(",".join, rows))
            if text:
                fh.write(text + "\n")


class _Rows:
    """The rows of one light-cone CSV block, as a template filled per block.

    `text` holds every row in file order, each ending in a newline: a row
    the walk reaches is its key cells and a _SLOT cell per value column; any
    other row is written whole, its values 0.0. `at` gives the flat index in
    the block's source array of each reached row's value, in row order, and
    `zero` that of each cell the source holds that a 0.0 row stands for.
    """

    def __init__(self, text: str, at, zero=(), width: int = 1):
        pieces = text.split(_SLOT)
        self._template = [None] * (2 * len(pieces) - 1)
        self._template[::2] = pieces
        self._n_rows = text.count("\n")
        self._width = width
        self._at = np.asarray(at, dtype=np.intp)
        self._zero = np.asarray(zero, dtype=np.intp)

    def values(self, source: np.ndarray) -> np.ndarray:
        """The reached rows' values in the float64 array `source`;
        DomainError unless each cell written as a structural 0.0 holds
        exactly +0.0 there, the one float64 whose bits are all zero."""
        if source.take(self._zero).view(np.uint64).any():
            raise DomainError("a light-cone cell the walk cannot reach is not exactly +0.0")
        return source.take(self._at)

    def text(self, *columns: np.ndarray, lead: str = "") -> str:
        """The block's text: `columns` hold one value per reached row each,
        written with repr, and every row starts with `lead`."""
        rows = self._template.copy()
        for c, column in enumerate(columns):
            rows[2 * c + 1 :: 2 * self._width] = map(repr, column.tolist())
        text = "".join(rows)
        if lead:
            text = lead + text.replace("\n", "\n" + lead, self._n_rows - 1)
        return text


def _cone_rows(steps: int) -> _Rows:
    """The "step,site" rows of the light cone |site| <= step, steps
    1..steps, of a (steps, 2 * steps + 1) array of distributions on sites
    -steps..steps. A walk from the origin reaches the cells where site +
    step is even; every other cone cell is a structural 0.0."""
    n_sites = 2 * steps + 1
    lines, at, zero = [], [], []
    for n in range(1, steps + 1):
        for x in range(steps - n, steps + n + 1):
            hit = (x - steps + n) % 2 == 0
            lines.append(f"{n},{x - steps},{_SLOT if hit else '0.0'}\n")
            (at if hit else zero).append((n - 1) * n_sites + x)
    return _Rows("".join(lines), at, zero)


def _pair_rows(steps: int, windows, width: int):
    """Per step n = 1..steps, the "site_i,site_j" rows (site_i <= site_j) of
    the light cone |site| <= n on sites -steps..steps, with `width` value
    columns, of the step's window matrix over the sites windows[n - 1]. A
    pair off the window is a structural 0.0 that the matrix does not hold.
    Each lattice pair's two rows are formatted once, and each step's
    template is built when it is reached, so one is held at a time."""
    size = 2 * steps + 1
    text = [str(x) for x in range(-steps, steps + 1)]
    i, j = np.triu_indices(size)
    keys = np.array([text[a] + "," + text[b] for a, b in zip(i.tolist(), j.tolist())], dtype=object)
    zero_rows = keys + ",0.0" * width + "\n"
    slot_rows = keys + ("," + _SLOT) * width + "\n"
    for n, window in enumerate(windows, start=1):
        keep = np.flatnonzero((i >= steps - n) & (j <= steps + n))
        pos = np.full(size, -1)
        pos[window + steps] = np.arange(window.size)
        wi, wj = pos[i[keep]], pos[j[keep]]
        hit = (wi >= 0) & (wj >= 0)
        lines = np.where(hit, slot_rows[keep], zero_rows[keep])
        yield _Rows("".join(lines.tolist()), wi[hit] * window.size + wj[hit], width=width)


def _spec(cfg: SimulationConfig, p: float) -> DisorderSpec:
    return DisorderSpec(p=p, steps=cfg.steps, alphabet=cfg.alphabet,
                        sampling_mode=cfg.sampling_mode, master_seed=cfg.master_seed)


def _coin(cfg: SimulationConfig) -> np.ndarray:
    return coin_from_reflectivity(cfg.coin_reflectivity)


def cmd_evolve(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    coin = _coin(cfg)
    if args.map is not None:
        pm = load_map(args.map)
        if pm.steps < cfg.steps:
            raise ConfigError("steps", f"phase map has {pm.steps} rows but {cfg.steps} steps were requested")
        runs = [("evolve_map.csv", pm)]
    else:
        runs = [(f"evolve_p{p_tag(p)}.csv", generate_phase_map(_spec(cfg, p), 0)) for p in cfg.p_values]
    with out.clock():
        rows = _cone_rows(cfg.steps)
    for name, pm in runs:
        states = evolve(cfg.steps, coin, pm, cfg.steps)
        probs = np.stack([position_distribution(s).probabilities for s in states])
        with out.open(name) as fh:
            fh.write("step,site,probability\n" + rows.text(rows.values(probs)))
    return {}


def cmd_ensemble(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    coin = _coin(cfg)
    results = run_ensembles([_spec(cfg, p) for p in cfg.p_grid], coin, cfg.n_maps)
    peak = np.max([r.mean_variance for r in results], axis=0)
    step = [str(n) for n in range(1, cfg.steps + 1)]
    header = ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"]
    _write_csv(out, "ensemble.csv", header, (
        [r.p, step, r.mean_variance, r.std_variance, r.mean_variance / peak, r.n_maps, r.master_seed]
        for r in results
    ))
    with out.open("ensemble_distributions.csv") as fh:
        fh.write("p,step,site,probability\n")
        rows = _cone_rows(cfg.steps)
        for r in results:
            fh.write(rows.text(rows.values(r.mean_probabilities), lead=f"{r.p!r},"))
    return {"max_norm_drift": max(r.max_norm_drift for r in results)}


def cmd_beta(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    cfg.check_fit_range()
    coin = _coin(cfg)
    fit_range = cfg.effective_fit_range()
    results = run_ensembles([_spec(cfg, p) for p in cfg.p_values], coin, cfg.n_maps)
    fits = [fit_beta(r.mean_variance, fit_range) for r in results]
    header = ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"]
    _write_csv(out, "beta.csv", header, (
        [p, fit.beta, fit.beta_stderr, fit.prefactor, *fit.fit_range, cfg.n_maps, cfg.master_seed]
        for p, fit in zip(cfg.p_values, fits)
    ))
    return {"max_norm_drift": max(r.max_norm_drift for r in results)}


def cmd_crossing(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    cfg.check_crossing_steps()
    grid = np.asarray(cfg.p_grid, dtype=float)
    if np.diff(grid).max() > LOW_RESOLUTION_SPACING:
        print(f"warning: p_grid spacing exceeds {LOW_RESOLUTION_SPACING}; "
              "crossing interpolation is low-resolution", file=sys.stderr)
    scan = similarity_scan(
        grid, cfg.steps, cfg.n_maps, _coin(cfg), cfg.master_seed,
        sampling_mode=cfg.sampling_mode, alphabet=cfg.alphabet,
    )
    p_text = list(map(repr, grid.tolist()))
    _write_csv(out, "similarity_scan.csv", ["p", "step", "s_ordered", "s_disordered"],
               ([p_text, n + 1, scan.s_ordered[n], scan.s_disordered[n]] for n in range(cfg.steps)))

    points = [crossing_point(grid, scan.s_ordered[n - 1], scan.s_disordered[n - 1], n)
              for n in cfg.crossing_steps]
    _write_csv(out, "crossing.csv", ["step", "p_star"], ([cp.step, cp.p_star] for cp in points))
    return {"max_norm_drift": scan.max_norm_drift}


def cmd_two_photon(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    display = cfg.two_photon.display_normalization
    header = "site_i,site_j,probability" + (",probability_display" if display else "") + "\n"
    step = [str(n) for n in range(1, cfg.steps + 1)]
    specs = [_spec(cfg, p) for p in cfg.p_values]
    results = run_pair_ensembles(specs, _coin(cfg), cfg.n_maps, cfg.two_photon.eta)
    templates = _pair_rows(cfg.steps, results[0].window_sites, 2 if display else 1)
    for n in range(1, cfg.steps + 1):
        with out.clock():
            rows = next(templates)
        for p, ens in zip(cfg.p_values, results):
            with out.open(f"two_photon_matrix_p{p_tag(p)}_step{n}.csv") as fh:
                matrix = ens.window_matrices[n - 1]
                prob = rows.values(matrix)
                columns = [prob]
                if display:
                    # Every pair off the window holds 0.0, so the peak is at least 0.0.
                    peak = max(matrix.max(), 0.0)
                    columns.append(prob / peak if peak > 0 else np.zeros_like(prob))
                fh.write(header + rows.text(*columns))
    _write_csv(out, "two_photon_var2.csv", ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"], (
        [p, step, ens.mean_variance2, ens.std_variance2, cfg.n_maps, cfg.master_seed]
        for p, ens in zip(cfg.p_values, results)
    ))
    return {"max_norm_drift": max(ens.max_norm_drift for ens in results)}


def cmd_hom(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    tp = cfg.two_photon
    scan = hom_scan(tp.delays, tp.coherence_time, tp.visibility, _coin(cfg))
    _write_csv(out, "hom.csv", ["delay", "eta", "normalized_coincidence"],
               [[scan.delays, scan.etas, scan.coincidences]])
    return {}


def cmd_gen_maps(cfg: SimulationConfig, args, out: _Outputs) -> dict:
    # Maps are drawn a block at a time, as the ensembles draw them: one
    # seeding pass per block, and memory bounded by the block's cells.
    size = chunk_maps(cfg.steps)
    for p in cfg.p_values:
        sub = f"maps/p{p_tag(p)}"
        (out.directory / sub).mkdir(parents=True, exist_ok=True)
        spec = _spec(cfg, p)
        for start in range(0, cfg.n_maps, size):
            stop = min(start + size, cfg.n_maps)
            seeds = map_seeds(cfg.master_seed, start, stop)
            for k, seed, codes in zip(range(start, stop), seeds.tolist(), sample_block(spec, seeds)):
                with out.open(f"{sub}/map_{k:05d}.txt") as fh:
                    save_map(PhaseMap(spec.steps, codes, spec.alphabet, spec.p, seed, spec.sampling_mode), fh)
    return {}


# Each subcommand, in --help order: its function and its --help line.
_COMMANDS = {
    "evolve": (cmd_evolve, "single-realization walk distributions per step"),
    "ensemble": (cmd_ensemble, "disorder-averaged variance over the p grid"),
    "beta": (cmd_beta, "growth exponent fits for the configured p values"),
    "crossing": (cmd_crossing, "similarity curves and their crossing points"),
    "two-photon": (cmd_two_photon, "pair coincidence matrices and centroid variances"),
    "hom": (cmd_hom, "two-detector coincidence versus arrival delay"),
    "gen-maps": (cmd_gen_maps, "write phase-map files for the configured ensembles"),
}


def _peak_rss_mb(status: str = "/proc/self/status") -> float | None:
    """This process's peak resident set size (VmHWM) in MB, or None where
    the status file is absent. ru_maxrss is not used: Linux carries the
    spawning process's peak into it across exec."""
    try:
        with open(status, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _write_manifest(path: Path, command: str, cfg: SimulationConfig, args,
                    out: _Outputs, fields: dict, elapsed: float) -> None:
    """Write the run manifest; `fields` are the command's own entries."""
    manifest = {
        "tool": "pdqw",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_path": str(Path(args.config).resolve()),
        "config": config_echo(cfg),
        "overrides": {
            "seed": args.seed,
            "out": args.out,
            "threads": args.threads,
            "map": getattr(args, "map", None),
        },
        "pair_convention": PAIR_CONVENTION,
        "outputs": out.files,
        "timings_seconds": {"total": elapsed, "write": out.seconds},
        "peak_rss_mb": _peak_rss_mb(),
        **fields,
    }
    with _replacing(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdqw",
        description="Phase-disordered discrete-time quantum walk simulator",
    )
    parser.add_argument("--version", action="version", version=f"pdqw {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the YAML run configuration")
    common.add_argument("--seed", type=int, default=None, help="override master_seed")
    common.add_argument("--threads", type=int, default=1,
                        help="must be >= 1; recorded in the manifest, but maps always run serially")
    common.add_argument("--out", default=None, help="override output_dir")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        if name == "evolve":
            cmd.add_argument("--map", default=None, help="evolve this phase-map file instead of sampling")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("master_seed", "override must fit in unsigned 64 bits")
            cfg.master_seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        if args.threads < 1:
            raise ConfigError("threads", "must be >= 1")
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, MapParseError, OSError) as exc:
        print(f"pdqw {command}: error while loading configuration: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    manifest = out_dir / f"manifest_{command.replace('-', '_')}.json"
    try:
        manifest.unlink(missing_ok=True)
        out = _Outputs(out_dir)
        fields = _COMMANDS[command][0](cfg, args, out)
        _write_manifest(manifest, command, cfg, args, out, fields, time.perf_counter() - started)
    except (ConfigError, MapParseError) as exc:
        print(f"pdqw {command}: input error: {exc}", file=sys.stderr)
        return 2
    except (PdqwError, OSError) as exc:
        print(f"pdqw {command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand reads one YAML config, writes CSVs plus a JSON run
manifest (config echo, tool, Python and numpy versions, sha256 per output,
timings, peak resident memory, and for the ensemble commands the largest
norm drift) into the
output directory, and exits 0 only if all outputs were
produced. One writer formats each CSV column in a single pass, float cells
with repr, so identical runs produce byte-identical files. Key columns that
repeat across a command's blocks (step, the light cone's "step,site" cells,
a pair matrix's "site_i,site_j" cells, the p grid of a similarity scan) are
formatted once per command call and handed to the writer as text, so each
block formats only its data.
Each CSV, map file and manifest is written under a temporary name and
renamed into place, and a command deletes its old manifest before it runs,
so a failed command leaves no truncated output and no manifest of its own.
--threads is validated and echoed in the manifest, but every scan runs
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
from .errors import ConfigError, MapParseError, PdqwError
from .two_photon import PAIR_CONVENTION, hom_scan, run_pair_ensembles
from .walk_core import coin_from_reflectivity, evolve, position_distribution

LOW_RESOLUTION_SPACING = 0.1


@contextmanager
def _replacing(path: Path):
    """Yield a text file that replaces `path` when the block completes; if
    the block fails, the partial file is deleted and `path` is untouched."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write a CSV one block of rows at a time.

    A block is a list of columns: equal-length 1-D arrays, scalars that
    repeat down the block, or lists of str. A list holds cells already
    formatted (a cell may hold several comma-joined fields) and goes out as
    it is, so a command formats its repeated key columns once. A float
    column is written as repr of each value, any other column with str. A
    scalar is formatted once and repeated, and each block goes to the file
    in one write.
    """
    with _replacing(path) as fh:
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


def _spec(cfg: SimulationConfig, p: float) -> DisorderSpec:
    return DisorderSpec(p=p, steps=cfg.steps, alphabet=cfg.alphabet,
                        sampling_mode=cfg.sampling_mode, master_seed=cfg.master_seed)


def _coin(cfg: SimulationConfig) -> np.ndarray:
    return coin_from_reflectivity(cfg.coin_reflectivity)


def _cone(sites: np.ndarray, step) -> np.ndarray:
    """Mask of the sites a walk from the origin can reach in `step` steps;
    a column of step counts gives one row of the mask per step."""
    return np.abs(sites) <= step


def _cone_keys(steps: int) -> tuple[list[str], np.ndarray]:
    """The "step,site" cells of a (steps, 2 * steps + 1) array of
    distributions after steps 1..steps on sites -steps..steps, each row
    restricted to its light cone, and the mask that picks those cells."""
    keep = _cone(np.arange(-steps, steps + 1), np.arange(1, steps + 1)[:, None])
    rows, cols = np.nonzero(keep)
    return [f"{n + 1},{x - steps}" for n, x in zip(rows.tolist(), cols.tolist())], keep


def _pair_cells(steps: int, windows) -> list[tuple[list[str], np.ndarray]]:
    """Per step n = 1..steps: the "site_i,site_j" cells (site_i <= site_j)
    of the light cone |site| <= n on sites -steps..steps, and the flat index
    of each cell in that step's window matrix over the sites windows[n - 1],
    followed by one 0.0 slot that every cell off the window reads. The text
    of each lattice pair is formatted once, and each step takes its cells."""
    text = [str(x) for x in range(-steps, steps + 1)]
    table = [a + "," + b for a in text for b in text]
    size = len(text)
    i, j = np.triu_indices(size)
    cells = []
    for n, window in enumerate(windows, start=1):
        keep = (i >= steps - n) & (j <= steps + n)
        flat = i[keep] * size + j[keep]
        w = window + steps
        slot = np.full((size, size), w.size * w.size)
        slot[np.ix_(w, w)] = np.arange(w.size * w.size).reshape(w.size, w.size)
        cells.append((list(map(table.__getitem__, flat.tolist())), slot.take(flat)))
    return cells


def cmd_evolve(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    coin = _coin(cfg)
    if args.map is not None:
        pm = load_map(args.map)
        if pm.steps < cfg.steps:
            raise ConfigError("steps", f"phase map has {pm.steps} rows but {cfg.steps} steps were requested")
        runs = [("evolve_map.csv", pm)]
    else:
        runs = [(f"evolve_p{p_tag(p)}.csv", generate_phase_map(_spec(cfg, p), 0)) for p in cfg.p_values]
    keys, keep = _cone_keys(cfg.steps)
    for name, pm in runs:
        states = evolve(cfg.steps, coin, pm, cfg.steps)
        probs = np.stack([position_distribution(s).probabilities for s in states])
        _write_csv(out_dir / name, ["step", "site", "probability"], [[keys, probs[keep]]])
    return [out_dir / name for name, _ in runs], {}


def cmd_ensemble(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    coin = _coin(cfg)
    results = run_ensembles([_spec(cfg, p) for p in cfg.p_grid], coin, cfg.n_maps)
    peak = np.max([r.mean_variance for r in results], axis=0)
    step = [str(n) for n in range(1, cfg.steps + 1)]
    path = out_dir / "ensemble.csv"
    _write_csv(path, ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"], (
        [r.p, step, r.mean_variance, r.std_variance, r.mean_variance / peak, r.n_maps, r.master_seed]
        for r in results
    ))
    dist_path = out_dir / "ensemble_distributions.csv"
    keys, keep = _cone_keys(cfg.steps)
    _write_csv(dist_path, ["p", "step", "site", "probability"],
               ([r.p, keys, r.mean_probabilities[keep]] for r in results))
    return [path, dist_path], {"max_norm_drift": max(r.max_norm_drift for r in results)}


def cmd_beta(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    cfg.check_fit_range()
    coin = _coin(cfg)
    fit_range = cfg.effective_fit_range()
    results = run_ensembles([_spec(cfg, p) for p in cfg.p_values], coin, cfg.n_maps)
    fits = [fit_beta(r.mean_variance, fit_range) for r in results]
    path = out_dir / "beta.csv"
    _write_csv(path, ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"], (
        [p, fit.beta, fit.beta_stderr, fit.prefactor, *fit.fit_range, cfg.n_maps, cfg.master_seed]
        for p, fit in zip(cfg.p_values, fits)
    ))
    return [path], {"max_norm_drift": max(r.max_norm_drift for r in results)}


def cmd_crossing(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    cfg.check_crossing_steps()
    grid = np.asarray(cfg.p_grid, dtype=float)
    if np.diff(grid).max() > LOW_RESOLUTION_SPACING:
        print(f"warning: p_grid spacing exceeds {LOW_RESOLUTION_SPACING}; "
              "crossing interpolation is low-resolution", file=sys.stderr)
    scan = similarity_scan(
        grid, cfg.steps, cfg.n_maps, _coin(cfg), cfg.master_seed,
        sampling_mode=cfg.sampling_mode, alphabet=cfg.alphabet,
    )
    scan_path = out_dir / "similarity_scan.csv"
    p_text = list(map(repr, grid.tolist()))
    _write_csv(scan_path, ["p", "step", "s_ordered", "s_disordered"],
               ([p_text, n + 1, scan.s_ordered[n], scan.s_disordered[n]] for n in range(cfg.steps)))

    points = [crossing_point(grid, scan.s_ordered[n - 1], scan.s_disordered[n - 1], n)
              for n in cfg.crossing_steps]
    cross_path = out_dir / "crossing.csv"
    _write_csv(cross_path, ["step", "p_star"], ([cp.step, cp.p_star] for cp in points))
    return [scan_path, cross_path], {"max_norm_drift": scan.max_norm_drift}


def cmd_two_photon(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    display = cfg.two_photon.display_normalization
    header = ["site_i", "site_j", "probability"] + (["probability_display"] if display else [])
    step = [str(n) for n in range(1, cfg.steps + 1)]
    specs = [_spec(cfg, p) for p in cfg.p_values]
    results = run_pair_ensembles(specs, _coin(cfg), cfg.n_maps, cfg.two_photon.eta)
    outputs = []
    cells = _pair_cells(cfg.steps, results[0].window_sites)
    for n, (keys, at) in enumerate(cells, start=1):
        # Every p's window matrix at this step, flat, each with its 0.0 slot.
        flat = np.zeros((len(results), results[0].window_matrices[n - 1].size + 1))
        for row, ens in zip(flat, results):
            row[:-1] = ens.window_matrices[n - 1].ravel()
        for p, row in zip(cfg.p_values, flat):
            prob = row.take(at)
            block = [keys, prob]
            if display:
                peak = row.max()
                block.append(prob / peak if peak > 0 else 0.0)
            path = out_dir / f"two_photon_matrix_p{p_tag(p)}_step{n}.csv"
            _write_csv(path, header, [block])
            outputs.append(path)
    var_path = out_dir / "two_photon_var2.csv"
    _write_csv(var_path, ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"], (
        [p, step, ens.mean_variance2, ens.std_variance2, cfg.n_maps, cfg.master_seed]
        for p, ens in zip(cfg.p_values, results)
    ))
    outputs.append(var_path)
    return outputs, {"max_norm_drift": max(ens.max_norm_drift for ens in results)}


def cmd_hom(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    tp = cfg.two_photon
    scan = hom_scan(tp.delays, tp.coherence_time, tp.visibility, _coin(cfg))
    path = out_dir / "hom.csv"
    _write_csv(path, ["delay", "eta", "normalized_coincidence"],
               [[scan.delays, scan.etas, scan.coincidences]])
    return [path], {}


def cmd_gen_maps(cfg: SimulationConfig, args, out_dir: Path) -> tuple[list[Path], dict]:
    # Maps are drawn a block at a time, as the ensembles draw them: one
    # seeding pass per block, and memory bounded by the block's cells.
    outputs = []
    size = chunk_maps(cfg.steps)
    for p in cfg.p_values:
        sub = out_dir / "maps" / f"p{p_tag(p)}"
        sub.mkdir(parents=True, exist_ok=True)
        spec = _spec(cfg, p)
        for start in range(0, cfg.n_maps, size):
            stop = min(start + size, cfg.n_maps)
            seeds = map_seeds(cfg.master_seed, start, stop).tolist()
            for k, seed, codes in zip(range(start, stop), seeds, sample_block(spec, start, stop)):
                path = sub / f"map_{k:05d}.txt"
                with _replacing(path) as fh:
                    save_map(PhaseMap(spec.steps, codes, spec.alphabet, spec.p, seed, spec.sampling_mode), fh)
                outputs.append(path)
    return outputs, {}


_COMMANDS = {
    "evolve": cmd_evolve,
    "ensemble": cmd_ensemble,
    "beta": cmd_beta,
    "crossing": cmd_crossing,
    "two-photon": cmd_two_photon,
    "hom": cmd_hom,
    "gen-maps": cmd_gen_maps,
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


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
                    outputs: list[Path], fields: dict, elapsed: float) -> None:
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
        "outputs": {
            str(p.relative_to(path.parent)): {"sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        },
        "timings_seconds": {"total": elapsed},
        "peak_rss_mb": _peak_rss_mb(),
        **fields,
    }
    with _replacing(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    for name, help_text in [
        ("evolve", "single-realization walk distributions per step"),
        ("ensemble", "disorder-averaged variance over the p grid"),
        ("beta", "growth exponent fits for the configured p values"),
        ("crossing", "similarity curves and their crossing points"),
        ("two-photon", "pair coincidence matrices and centroid variances"),
        ("hom", "two-detector coincidence versus arrival delay"),
        ("gen-maps", "write phase-map files for the configured ensembles"),
    ]:
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
        outputs, fields = _COMMANDS[command](cfg, args, out_dir)
        _write_manifest(manifest, command, cfg, args, outputs, fields, time.perf_counter() - started)
    except (ConfigError, MapParseError) as exc:
        print(f"pdqw {command}: input error: {exc}", file=sys.stderr)
        return 2
    except (PdqwError, OSError) as exc:
        print(f"pdqw {command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

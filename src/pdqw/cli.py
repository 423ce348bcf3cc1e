"""Command-line front end.

Every subcommand reads one YAML config, writes CSVs plus a JSON run
manifest (config echo, tool, Python and numpy versions, sha256 per output,
timings) into the output directory, and exits 0 only if all outputs were
produced. One writer formats each CSV column in a single pass, float cells
with repr, so identical runs produce byte-identical files.
Each CSV, map file and manifest is written under a temporary name and
renamed into place, and a command deletes its old manifest before it runs,
so a failed command leaves no truncated output and no manifest of its own.
--threads is validated and echoed in the manifest, but maps run serially in
fixed chunks whatever its value.
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
from .config import SimulationConfig, config_echo, load_config
from .disorder import DisorderSpec, generate_phase_map, load_map, save_map
from .ensemble import run_ensemble, similarity_scan
from .errors import ConfigError, MapParseError, PdqwError
from .two_photon import PAIR_CONVENTION, hom_scan, run_pair_ensemble
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

    A block is a list of columns: equal-length 1-D arrays, or scalars that
    repeat down the block. A float column is written as repr of each value,
    any other column with str. A scalar is formatted once and repeated, and
    each block goes to the file in one write.
    """
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = [np.asarray(c) for c in block]
            # One row for an all-scalar block; ValueError if array lengths differ.
            (n_rows,) = {len(c) for c in columns if c.ndim} or {1}
            cells = []
            for c in columns:
                fmt = repr if c.dtype.kind == "f" else str
                cells.append(map(fmt, c.tolist()) if c.ndim else [fmt(c.tolist())] * n_rows)
            text = "\n".join(map(",".join, zip(*cells)))
            if text:
                fh.write(text + "\n")


def _p_tag(p: float) -> str:
    return f"{p:g}"


def _spec(cfg: SimulationConfig, p: float) -> DisorderSpec:
    return DisorderSpec(p=p, steps=cfg.steps, alphabet=cfg.alphabet,
                        sampling_mode=cfg.sampling_mode, master_seed=cfg.master_seed)


def _coin(cfg: SimulationConfig) -> np.ndarray:
    return coin_from_reflectivity(cfg.coin_reflectivity)


def _cone(sites: np.ndarray, step) -> np.ndarray:
    """Mask of the sites a walk from the origin can reach in `step` steps;
    a column of step counts gives one row of the mask per step."""
    return np.abs(sites) <= step


def _cone_block(dists, *lead):
    """One (*lead, step, site, probability) block over the distributions of
    steps 1, 2, ... (all on one lattice), each restricted to its light cone."""
    probs = np.stack([d.probabilities for d in dists])
    sites = dists[0].sites
    step = np.arange(1, len(probs) + 1)[:, None]
    keep = _cone(sites, step)
    return [*lead, np.broadcast_to(step, keep.shape)[keep],
            np.broadcast_to(sites, keep.shape)[keep], probs[keep]]


def cmd_evolve(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    if args.map is not None:
        pm = load_map(args.map)
        if pm.steps < cfg.steps:
            raise ConfigError("steps", f"phase map has {pm.steps} rows but {cfg.steps} steps were requested")
        runs = [("evolve_map.csv", pm)]
    else:
        runs = [(f"evolve_p{_p_tag(p)}.csv", generate_phase_map(_spec(cfg, p), 0)) for p in cfg.p_values]
    for name, pm in runs:
        states = evolve(cfg.steps, coin, pm, cfg.steps)
        _write_csv(out_dir / name, ["step", "site", "probability"],
                   [_cone_block([position_distribution(s) for s in states])])
    return [out_dir / name for name, _ in runs]


def cmd_ensemble(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    results = [run_ensemble(_spec(cfg, p), coin, cfg.n_maps) for p in cfg.p_grid]
    peak = np.max([r.mean_variance for r in results], axis=0)
    step = np.arange(1, cfg.steps + 1)
    path = out_dir / "ensemble.csv"
    _write_csv(path, ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"], (
        [r.p, step, r.mean_variance, r.std_variance, r.mean_variance / peak, r.n_maps, r.master_seed]
        for r in results
    ))
    dist_path = out_dir / "ensemble_distributions.csv"
    _write_csv(dist_path, ["p", "step", "site", "probability"],
               (_cone_block(r.mean_distributions, r.p) for r in results))
    return [path, dist_path]


def cmd_beta(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    fit_range = cfg.effective_fit_range()
    fits = [fit_beta(run_ensemble(_spec(cfg, p), coin, cfg.n_maps).mean_variance, fit_range)
            for p in cfg.p_values]
    path = out_dir / "beta.csv"
    _write_csv(path, ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"], (
        [p, fit.beta, fit.beta_stderr, fit.prefactor, *fit.fit_range, cfg.n_maps, cfg.master_seed]
        for p, fit in zip(cfg.p_values, fits)
    ))
    return [path]


def cmd_crossing(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
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
    _write_csv(scan_path, ["p", "step", "s_ordered", "s_disordered"],
               ([grid, n + 1, scan.s_ordered[n], scan.s_disordered[n]] for n in range(cfg.steps)))

    points = [crossing_point(grid, scan.s_ordered[n - 1], scan.s_disordered[n - 1], n)
              for n in cfg.crossing_steps]
    cross_path = out_dir / "crossing.csv"
    _write_csv(cross_path, ["step", "p_star"], ([cp.step, cp.p_star] for cp in points))
    return [scan_path, cross_path]


def cmd_two_photon(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    display = cfg.two_photon.display_normalization
    header = ["site_i", "site_j", "probability"] + (["probability_display"] if display else [])
    step = np.arange(1, cfg.steps + 1)
    outputs = []
    var_blocks = []
    for p in cfg.p_values:
        ens = run_pair_ensemble(_spec(cfg, p), coin, cfg.n_maps, cfg.two_photon.eta)
        var_blocks.append([p, step, ens.mean_variance2, ens.std_variance2, cfg.n_maps, cfg.master_seed])
        for n, cm in enumerate(ens.mean_matrices, start=1):
            keep = _cone(cm.sites, n)
            i, j = np.triu_indices(int(keep.sum()))
            sites = cm.sites[keep]
            prob = cm.probabilities[np.ix_(keep, keep)][i, j]
            block = [sites[i], sites[j], prob]
            if display:
                peak = cm.probabilities.max()
                block.append(prob / peak if peak > 0 else 0.0)
            path = out_dir / f"two_photon_matrix_p{_p_tag(p)}_step{n}.csv"
            _write_csv(path, header, [block])
            outputs.append(path)
    var_path = out_dir / "two_photon_var2.csv"
    _write_csv(var_path, ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"], var_blocks)
    outputs.append(var_path)
    return outputs


def cmd_hom(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    tp = cfg.two_photon
    scan = hom_scan(tp.delays, tp.coherence_time, tp.visibility, _coin(cfg))
    path = out_dir / "hom.csv"
    _write_csv(path, ["delay", "eta", "normalized_coincidence"],
               [[scan.delays, scan.etas, scan.coincidences]])
    return [path]


def cmd_gen_maps(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    outputs = []
    for p in cfg.p_values:
        sub = out_dir / "maps" / f"p{_p_tag(p)}"
        sub.mkdir(parents=True, exist_ok=True)
        spec = _spec(cfg, p)
        for k in range(cfg.n_maps):
            path = sub / f"map_{k:05d}.txt"
            with _replacing(path) as fh:
                save_map(generate_phase_map(spec, k), fh)
            outputs.append(path)
    return outputs


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


def _write_manifest(path: Path, command: str, cfg: SimulationConfig, args,
                    outputs: list[Path], elapsed: float) -> None:
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
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override master_seed")
        cmd.add_argument("--threads", type=int, default=1,
                         help="must be >= 1; recorded in the manifest, but maps always run serially")
        cmd.add_argument("--out", default=None, help="override output_dir")
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
        outputs = _COMMANDS[command](cfg, args, out_dir)
        _write_manifest(manifest, command, cfg, args, outputs, time.perf_counter() - started)
    except (ConfigError, MapParseError) as exc:
        print(f"pdqw {command}: input error: {exc}", file=sys.stderr)
        return 2
    except (PdqwError, OSError) as exc:
        print(f"pdqw {command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

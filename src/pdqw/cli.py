"""Command-line front end.

Every subcommand reads one YAML config, writes CSVs plus a JSON run
manifest (config echo, tool version, sha256 per output, timings) into the
output directory, and exits 0 only if all outputs were produced. Float
cells use repr formatting, so identical runs produce byte-identical files.
--threads is validated and echoed in the manifest, but maps run serially in
fixed chunks whatever its value.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
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


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _p_tag(p: float) -> str:
    return f"{p:g}"


def _spec(cfg: SimulationConfig, p: float) -> DisorderSpec:
    return DisorderSpec(
        p=p,
        steps=cfg.steps,
        alphabet=cfg.alphabet,
        sampling_mode=cfg.sampling_mode,
        master_seed=cfg.master_seed,
    )


def _coin(cfg: SimulationConfig) -> np.ndarray:
    return coin_from_reflectivity(cfg.coin_reflectivity)


def _distribution_rows(dists):
    for step, dist in enumerate(dists, start=1):
        sites = dist.sites
        for site, prob in zip(sites, dist.probabilities):
            if abs(site) <= step:
                yield step, int(site), float(prob)


def cmd_evolve(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    outputs = []
    if args.map is not None:
        pm = load_map(args.map)
        states = evolve(cfg.steps, coin, pm, cfg.steps)
        path = out_dir / "evolve_map.csv"
        _write_csv(path, ["step", "site", "probability"],
                   _distribution_rows(position_distribution(s) for s in states))
        outputs.append(path)
        return outputs
    for p in cfg.p_values:
        pm = generate_phase_map(_spec(cfg, p), 0)
        states = evolve(cfg.steps, coin, pm, cfg.steps)
        path = out_dir / f"evolve_p{_p_tag(p)}.csv"
        _write_csv(path, ["step", "site", "probability"],
                   _distribution_rows(position_distribution(s) for s in states))
        outputs.append(path)
    return outputs


def cmd_ensemble(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    results = [run_ensemble(_spec(cfg, p), coin, cfg.n_maps) for p in cfg.p_grid]
    mean_by_step = np.array([r.mean_variance for r in results])  # (n_p, steps)
    peak = mean_by_step.max(axis=0)

    rows = []
    for j, res in enumerate(results):
        for n in range(cfg.steps):
            rows.append((
                res.p, n + 1,
                res.mean_variance[n], res.std_variance[n],
                res.mean_variance[n] / peak[n],
                res.n_maps, res.master_seed,
            ))
    path = out_dir / "ensemble.csv"
    _write_csv(path, ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"], rows)

    dist_rows = (
        (res.p, *row) for res in results for row in _distribution_rows(res.mean_distributions)
    )
    dist_path = out_dir / "ensemble_distributions.csv"
    _write_csv(dist_path, ["p", "step", "site", "probability"], dist_rows)
    return [path, dist_path]


def cmd_beta(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    fit_range = cfg.effective_fit_range()
    rows = []
    for p in cfg.p_values:
        res = run_ensemble(_spec(cfg, p), coin, cfg.n_maps)
        fit = fit_beta(res.mean_variance, fit_range)
        rows.append((
            p, fit.beta, fit.beta_stderr, fit.prefactor,
            fit.fit_range[0], fit.fit_range[1], cfg.n_maps, cfg.master_seed,
        ))
    path = out_dir / "beta.csv"
    _write_csv(path, ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"], rows)
    return [path]


def cmd_crossing(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    grid = np.asarray(cfg.p_grid, dtype=float)
    if np.diff(grid).max() > LOW_RESOLUTION_SPACING:
        print(
            f"warning: p_grid spacing exceeds {LOW_RESOLUTION_SPACING}; "
            "crossing interpolation is low-resolution",
            file=sys.stderr,
        )
    scan = similarity_scan(
        grid, cfg.steps, cfg.n_maps, _coin(cfg), cfg.master_seed,
        sampling_mode=cfg.sampling_mode, alphabet=cfg.alphabet,
    )
    scan_rows = []
    for n in range(cfg.steps):
        for j, p in enumerate(grid):
            scan_rows.append((float(p), n + 1, scan.s_ordered[n, j], scan.s_disordered[n, j]))
    scan_path = out_dir / "similarity_scan.csv"
    _write_csv(scan_path, ["p", "step", "s_ordered", "s_disordered"], scan_rows)

    cross_rows = []
    for n in cfg.crossing_steps:
        cp = crossing_point(grid, scan.s_ordered[n - 1], scan.s_disordered[n - 1], n)
        cross_rows.append((cp.step, cp.p_star))
    cross_path = out_dir / "crossing.csv"
    _write_csv(cross_path, ["step", "p_star"], cross_rows)
    return [scan_path, cross_path]


def cmd_two_photon(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    coin = _coin(cfg)
    eta = cfg.two_photon.eta
    outputs = []
    var_rows = []
    for p in cfg.p_values:
        ens = run_pair_ensemble(_spec(cfg, p), coin, cfg.n_maps, eta)
        for n in range(cfg.steps):
            var_rows.append((
                p, n + 1, ens.mean_variance2[n], ens.std_variance2[n],
                cfg.n_maps, cfg.master_seed,
            ))
        for n, cm in enumerate(ens.mean_matrices, start=1):
            header = ["site_i", "site_j", "probability"]
            display = cfg.two_photon.display_normalization
            if display:
                header.append("probability_display")
            peak = cm.probabilities.max()
            rows = []
            sites = cm.sites
            for i in range(sites.size):
                for j in range(i, sites.size):
                    if abs(sites[i]) > n or abs(sites[j]) > n:
                        continue
                    row = [int(sites[i]), int(sites[j]), float(cm.probabilities[i, j])]
                    if display:
                        row.append(float(cm.probabilities[i, j] / peak) if peak > 0 else 0.0)
                    rows.append(row)
            path = out_dir / f"two_photon_matrix_p{_p_tag(p)}_step{n}.csv"
            _write_csv(path, header, rows)
            outputs.append(path)
    var_path = out_dir / "two_photon_var2.csv"
    _write_csv(var_path, ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"], var_rows)
    outputs.append(var_path)
    return outputs


def cmd_hom(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    scan = hom_scan(
        cfg.two_photon.delays, cfg.two_photon.coherence_time,
        cfg.two_photon.visibility, _coin(cfg),
    )
    rows = []
    for tau, c in zip(scan.delays, scan.coincidences):
        eta = scan.visibility * float(np.exp(-((tau / scan.coherence_time) ** 2)))
        rows.append((float(tau), eta, float(c)))
    path = out_dir / "hom.csv"
    _write_csv(path, ["delay", "eta", "normalized_coincidence"], rows)
    return [path]


def cmd_gen_maps(cfg: SimulationConfig, args, out_dir: Path) -> list[Path]:
    outputs = []
    for p in cfg.p_values:
        sub = out_dir / "maps" / f"p{_p_tag(p)}"
        sub.mkdir(parents=True, exist_ok=True)
        spec = _spec(cfg, p)
        for k in range(cfg.n_maps):
            path = sub / f"map_{k:05d}.txt"
            save_map(generate_phase_map(spec, k), path)
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


def _write_manifest(out_dir: Path, command: str, cfg: SimulationConfig, args,
                    outputs: list[Path], elapsed: float) -> Path:
    manifest = {
        "tool": "pdqw",
        "version": __version__,
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
            str(p.relative_to(out_dir)): {"sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        },
        "timings_seconds": {"total": elapsed},
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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
    try:
        outputs = _COMMANDS[command](cfg, args, out_dir)
        _write_manifest(out_dir, command, cfg, args, outputs, time.perf_counter() - started)
    except (ConfigError, MapParseError) as exc:
        print(f"pdqw {command}: input error: {exc}", file=sys.stderr)
        return 2
    except (PdqwError, OSError) as exc:
        print(f"pdqw {command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

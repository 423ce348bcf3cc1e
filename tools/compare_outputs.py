#!/usr/bin/env python3
"""List the output files that differ between two revisions of pdqw.

    python3 tools/compare_outputs.py REV_A REV_B [--config FILE ...] [--seed N ...]

Each revision is checked out with `git worktree add --detach` into a
temporary directory and runs with its own `src` on PYTHONPATH. Every
command (`gen-maps`, `evolve`, `evolve --map`, `ensemble`, `beta`,
`crossing`, `two-photon`, `hom`) runs on every config, by default
`tests/data/check_*.yaml` of the checkout that holds this script, once per
`--seed` override, or once with the config's own seed if none is given.
`evolve --map` reads the same map file under both revisions: the first map
that REV_A's `gen-maps` wrote.

Every CSV and map file is compared byte for byte. Each manifest is
compared field by field with the other revision's, the config echo
included, except for the fields that differ between two runs of the same
code: `created_utc`, `timings_seconds`, `peak_rss_mb`, and `overrides.out`
and `config.output_dir`, which record the output directory that differs per
side. Its `outputs` are checked on each side instead: they must list
exactly the files the command wrote, each with the sha256 and size in bytes
of the file on disk. Each field that differs and each `outputs`
disagreement counts as a difference. The script prints each file that
differs or exists on one side only, each manifest field that differs (by
its dotted key), each `outputs` disagreement, and each command whose exit
code differs, then a summary line. A differing CSV with the same header and row
count on both sides also gets the largest absolute and relative change of
any numeric cell, and the number of numeric cells that are exactly 0.0 on
one side only (an exact zero that became round-off, or the reverse); the
summary line gives the largest changes over all of them and the total count
of such cells. It exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIGS = sorted((ROOT / "tests" / "data").glob("check_*.yaml"))
# gen-maps first: evolve --map reads one of its maps.
COMMANDS = ["gen-maps", "evolve", "evolve --map", "ensemble", "beta", "crossing", "two-photon", "hom"]
# Manifest fields, by dotted key, that are not compared across revisions:
# `outputs` is checked on each side, and the others differ between runs.
RUN_FIELDS = {"outputs", "created_utc", "timings_seconds", "peak_rss_mb",
              "overrides.out", "config.output_dir"}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: Path, command: str, config: Path, seed, out: Path, map_file) -> int:
    """Run one pdqw command of the checkout `tree`; returns its exit code."""
    name, *flags = command.split()
    argv = [sys.executable, "-m", "pdqw.cli", name, "--config", str(config), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if flags:
        if map_file is None:
            return -1  # no map to read: REV_A's gen-maps wrote none
        argv += [*flags, str(map_file)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _outputs(out: Path) -> set[Path]:
    return {p.relative_to(out) for p in out.rglob("*")
            if p.is_file() and not p.name.startswith("manifest_")}


def _manifest_mismatches(out: Path) -> list[str]:
    """How the manifests in the output directory `out` disagree with the
    files there: each must list exactly the files written, each with its
    sha256 and size in bytes."""
    written = _outputs(out) if out.exists() else set()
    mismatches = []
    for manifest in sorted(out.glob("manifest_*.json")):
        listed = {Path(name): entry for name, entry in
                  json.loads(manifest.read_text(encoding="ascii"))["outputs"].items()}
        for rel in sorted(written | listed.keys()):
            if rel not in listed:
                problem = "written but not listed"
            elif rel not in written:
                problem = "listed but not written"
            else:
                data = (out / rel).read_bytes()
                actual = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
                if listed[rel] == actual:
                    continue
                problem = f"listed as {listed[rel]} but is {actual}"
            mismatches.append(f"{manifest.name}: {rel.as_posix()} {problem}")
    return mismatches


def _fields(value, key: str = "") -> dict:
    """The leaves of a manifest's JSON as {dotted key: value}, without the
    RUN_FIELDS and what they hold."""
    if key in RUN_FIELDS:
        return {}
    if not isinstance(value, dict) or not value:
        return {key: value}
    leaves = {}
    for name, item in value.items():
        leaves.update(_fields(item, f"{key}.{name}" if key else name))
    return leaves


def _manifest_differences(outs: list[Path], revs: tuple[str, str]) -> list[str]:
    """How the manifests of the two output directories differ: each
    manifest on one side only, and each field, by dotted key, that differs
    or is on one side only."""
    names = sorted({m.name for out in outs for m in out.glob("manifest_*.json")})
    differences = []
    for name in names:
        if not all((out / name).exists() for out in outs):
            differences.append(f"{name} only in {revs[0] if (outs[0] / name).exists() else revs[1]}")
            continue
        a, b = (_fields(json.loads((out / name).read_text(encoding="ascii"))) for out in outs)
        differences += [f"{name}: {key} differs" for key in sorted(a.keys() | b.keys())
                        if key not in a or key not in b or a[key] != b[key]]
    return differences


def _cell_change(a: Path, b: Path):
    """(largest absolute change, largest relative change, cells exactly 0.0
    on one side only) between the cells of two CSVs, or None unless they
    share a header and row count and every differing cell is a number on
    both sides. The relative change is taken against the larger magnitude of
    the two values; a NaN or an infinity against a finite value counts as an
    infinite change."""
    rows = [path.read_text(encoding="ascii").splitlines() for path in (a, b)]
    if a.suffix != ".csv" or rows[0][:1] != rows[1][:1] or len(rows[0]) != len(rows[1]):
        return None
    largest = (0.0, 0.0)
    zeros = 0
    for row_a, row_b in zip(rows[0][1:], rows[1][1:]):
        cells = row_a.split(","), row_b.split(",")
        if len(cells[0]) != len(cells[1]):
            return None
        for x, y in zip(*cells):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return None
            zeros += (x == 0.0) != (y == 0.0)
            change = abs(x - y)
            relative = change / max(abs(x), abs(y)) if change else 0.0
            if not math.isfinite(change):  # a NaN or an infinity on one side
                change = relative = math.inf
            largest = (max(largest[0], change), max(largest[1], relative))
    return (*largest, zeros)


def _report(prefix: str, outs: list[Path], revs: tuple[str, str], largest: list) -> tuple[int, int]:
    """Print each output file that differs between the two output
    directories, sized where _cell_change can size it, raise `largest`
    (absolute, relative) to each size and add its one-sided exact zeros to
    largest[2]; returns (files compared, files that differ)."""
    files = [_outputs(out) if out.exists() else set() for out in outs]
    differing = 0
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            status = f"only in {revs[0] if rel in files[0] else revs[1]}"
        elif not filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False):
            status = "differs"
            change = _cell_change(outs[0] / rel, outs[1] / rel)
            if change is not None:
                status += (f" (largest cell change: {change[0]:.3g} absolute, {change[1]:.3g} relative;"
                           f" {change[2]} cells exactly 0.0 on one side only)")
                largest[:] = [max(largest[0], change[0]), max(largest[1], change[1]), largest[2] + change[2]]
        else:
            continue
        differing += 1
        print(f"{prefix}: {rel} {status}")
    return len(files[0] | files[1]), differing


def compare(rev_a: str, rev_b: str, configs: list[Path], seeds: list) -> int:
    shas = [_git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (rev_a, rev_b)]
    compared = differences = mismatches = 0
    largest = [0.0, 0.0, 0]  # over every sized file: absolute, relative, one-sided zeros
    with tempfile.TemporaryDirectory(prefix="pdqw-compare-") as tmp:
        tmp = Path(tmp)
        trees = [tmp / "a", tmp / "b"]
        try:
            for tree, sha in zip(trees, shas):
                _git("worktree", "add", "--detach", str(tree), sha)
            for config in configs:
                for seed in seeds or [None]:
                    label = config.stem if seed is None else f"{config.stem} seed {seed}"
                    map_file = None
                    for command in COMMANDS:
                        outs = [tmp / side / label / command.replace(" ", "") for side in ("out_a", "out_b")]
                        codes = [_run(tree, command, config.resolve(), seed, out, map_file)
                                 for tree, out in zip(trees, outs)]
                        if command == "gen-maps":
                            map_file = min(outs[0].glob("maps/*/map_00000.txt"), default=None)
                        if codes[0] != codes[1]:
                            differences += 1
                            print(f"{label}: {command}: exit code {codes[0]} -> {codes[1]}")
                        n, d = _report(f"{label}: {command}", outs, (rev_a, rev_b), largest)
                        compared += n
                        differences += d
                        for difference in _manifest_differences(outs, (rev_a, rev_b)):
                            differences += 1
                            print(f"{label}: {command}: {difference}")
                        for rev, out in zip((rev_a, rev_b), outs):
                            for mismatch in _manifest_mismatches(out):
                                mismatches += 1
                                print(f"{label}: {command}: {rev}: {mismatch}")
        finally:
            for tree in trees:
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
    differences += mismatches
    print(f"{compared} output files compared, {differences} differences ({mismatches} manifest "
          f"mismatches), largest cell change "
          f"{largest[0]:.3g} absolute, {largest[1]:.3g} relative, {largest[2]} cells exactly 0.0 "
          f"on one side only "
          f"({rev_a} {shas[0][:12]} -> {rev_b} {shas[1][:12]})")
    return 1 if differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", help="the revision to compare against, e.g. the parent commit")
    parser.add_argument("rev_b", help="the revision under test, e.g. HEAD")
    parser.add_argument("--config", type=Path, action="append",
                        help="a run config (repeatable); default tests/data/check_*.yaml")
    parser.add_argument("--seed", type=int, action="append",
                        help="a --seed override (repeatable); default each config's own seed")
    args = parser.parse_args(argv)
    return compare(args.rev_a, args.rev_b, args.config or DEFAULT_CONFIGS, args.seed or [])


if __name__ == "__main__":
    sys.exit(main())

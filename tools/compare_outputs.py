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

Every CSV and map file is compared byte for byte; manifests are skipped,
since they hold timestamps and absolute paths. The script prints each file
that differs or exists on one side only, and each command whose exit code
differs, then a summary line. It exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIGS = sorted((ROOT / "tests" / "data").glob("check_*.yaml"))
# gen-maps first: evolve --map reads one of its maps.
COMMANDS = ["gen-maps", "evolve", "evolve --map", "ensemble", "beta", "crossing", "two-photon", "hom"]


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


def _report(prefix: str, outs: list[Path], revs: tuple[str, str]) -> tuple[int, int]:
    """Print each output file that differs between the two output
    directories; returns (files compared, files that differ)."""
    files = [_outputs(out) if out.exists() else set() for out in outs]
    differing = 0
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            status = f"only in {revs[0] if rel in files[0] else revs[1]}"
        elif not filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False):
            status = "differs"
        else:
            continue
        differing += 1
        print(f"{prefix}: {rel} {status}")
    return len(files[0] | files[1]), differing


def compare(rev_a: str, rev_b: str, configs: list[Path], seeds: list) -> int:
    shas = [_git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (rev_a, rev_b)]
    compared = differences = 0
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
                        n, d = _report(f"{label}: {command}", outs, (rev_a, rev_b))
                        compared += n
                        differences += d
        finally:
            for tree in trees:
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
    print(f"{compared} output files compared, {differences} differences "
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

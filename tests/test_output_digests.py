"""Pinned output bytes of the scans on the benchmark's three configs, and
on the pair scan's config at eta 0.6, where the interfering terms weigh in.

Each command runs in process at two master seeds, one of them 2**32 (two
32-bit seed words), and every CSV it writes is hashed from disk, together
with the manifest's max_norm_drift. The configs draw bernoulli maps from
pdqw's own PCG64 words, so the digests do not depend on numpy's Generator.

A change that moves these bytes on purpose records the fresh table that a
failure prints, and says so in CHANGES.md.
"""

import hashlib
import json
import pprint

from pdqw.cli import main

GRID = [round(0.01 * k, 10) for k in range(101)]

# The workloads of bench/run_bench.py: (command, config).
CONFIGS = {
    "dilution-scan-20": ("ensemble", {"steps": 20, "n_maps": 64, "p_grid": GRID}),
    "crossing-7": ("crossing", {"steps": 7, "n_maps": 256, "p_grid": GRID[::2],
                                "crossing_steps": [5, 6, 7]}),
    "two-photon-20": ("two-photon", {"steps": 20, "n_maps": 12, "p_values": [0.0, 0.05, 0.1, 0.2, 1.0],
                                     "two_photon": {"eta": 1.0}}),
}
# At eta 1.0, eta * x equals x exactly, so the pair scan's eta terms also
# run at 0.6: over the default alphabet (a real walk) and over three letters
# (a complex walk, whose letters Lemire's rule draws), still bernoulli.
PAIR = CONFIGS["two-photon-20"][1]
CONFIGS["two-photon-20 eta 0.6"] = ("two-photon", {**PAIR, "two_photon": {"eta": 0.6}})
CONFIGS["two-photon-20 eta 0.6 alphabet [0, 0.5, pi]"] = (
    "two-photon", {**PAIR, "two_photon": {"eta": 0.6}, "alphabet": [0, 0.5, "pi"]})
SEEDS = (1, 4294967296)

# Recorded at commit b64537b, the eta 0.6 runs at af72fd9. Per run: each CSV's sha256 (two-photon: one
# sha256 over the sorted "name sha256" lines of its 101 CSVs) and the
# manifest's max_norm_drift.
EXPECTED = {
    "dilution-scan-20 seed 1": {
        "ensemble.csv": "09089580fb58a546322644fcd8fdd97d294c796ebd744f50af9fe42c24d6e196",
        "ensemble_distributions.csv": "b4c601229b33392172c0064d3ac8fc44ba2b0a94c352d31e80c640b8104f1688",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "dilution-scan-20 seed 4294967296": {
        "ensemble.csv": "6bd41c982cbddf62471c952a955b412aaf271f649c1c899c6e7a59b71b7e935e",
        "ensemble_distributions.csv": "92aac8a11a47fbfceade7081a8b491f1b206c5bf80e99e9f680354f3ef790536",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "crossing-7 seed 1": {
        "crossing.csv": "dbb92a06efd3bd6cc80c553fbb857fc3c900f22cb536ee5d81bba0eca0777240",
        "similarity_scan.csv": "3c9be1cc163e375a16708c1265a37e2ba00639f980f68f2c7c7786ac3a3d3ad1",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "crossing-7 seed 4294967296": {
        "crossing.csv": "0d38668b537bacafe72648e148737000d771cb79089b1684aaeb706cf01f8c6f",
        "similarity_scan.csv": "fbf16a4f93373864a696300973f07e6c311cc2cdaed24689ee5a5ce86e369f3c",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "two-photon-20 seed 1": {
        "*.csv": "079ea186eb6f2b0040d422ab1bce8ae5de8aa2884597bcb496c770c306aac75c",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "two-photon-20 seed 4294967296": {
        "*.csv": "2f4d6aa6690037d51bf90e6490db87e2d6d1690c152ab5544317956cd4f2ad5c",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "two-photon-20 eta 0.6 seed 1": {
        "*.csv": "4d2a95b8d0f6ff288d3d360b1313873867e0fcf2697ad9d2eb555fcc4c519e84",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "two-photon-20 eta 0.6 seed 4294967296": {
        "*.csv": "77f193279bbbc6fb42c2b44dd6731cc2f377cfff66f7491b6a745b447fe7829e",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "two-photon-20 eta 0.6 alphabet [0, 0.5, pi] seed 1": {
        "*.csv": "d47b05d0c620bfeab71e7cd481c99b959aaa451befb91f58a07707bafa7d5c12",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "two-photon-20 eta 0.6 alphabet [0, 0.5, pi] seed 4294967296": {
        "*.csv": "136cead23e0050b4818babe1bfcc2e45fe307428f36a72a92e51eb1dc458d5c8",
        "max_norm_drift": 2.886579864025407e-15,
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tmp_path, name: str, seed: int) -> dict:
    command, config = CONFIGS[name]
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(json.dumps({**config, "coin_reflectivity": 0.5}))
    out = tmp_path / f"{name}-{seed}"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    digests = {f.name: sha256(f.read_bytes()) for f in sorted(out.glob("*.csv"))}
    if command == "two-photon":
        assert len(digests) == 101
        digests = {"*.csv": sha256("".join(f"{n} {d}\n" for n, d in digests.items()).encode())}
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
    return {**digests, "max_norm_drift": manifest["max_norm_drift"]}


def test_scans_write_the_recorded_bytes(tmp_path):
    fresh = {f"{name} seed {seed}": run(tmp_path, name, seed) for name in CONFIGS for seed in SEEDS}
    assert fresh == EXPECTED, "fresh table:\n" + pprint.pformat(fresh, width=120, sort_dicts=False)

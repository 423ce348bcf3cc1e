"""Pinned output bytes of the scans on the benchmark's three configs, on
the pair scan's config at eta 0.6, where the interfering terms weigh in,
and of every command on the byte-identity check configs
(tests/data/check_*.yaml).

Each scan runs in process at two master seeds, one of them 2**32 (two
32-bit seed words), and every CSV it writes is hashed from disk, together
with the manifest's max_norm_drift. These configs draw bernoulli maps from
pdqw's own PCG64 words, so their digests do not depend on numpy's
Generator. Each check config runs every command that
tools/compare_outputs.py runs, at the config's own seed; check_2 samples
exact_fraction maps, which numpy's Generator draws, as the frozen draw
tests of test_disorder.py do.

A change that moves these bytes on purpose records the fresh table that a
failure prints, and says so in CHANGES.md.

The pins hold on any FMA-capable x86-64 CPU under one glibc: beta.csv and
hom.csv take their exps, logs and sums from libm and math.fsum, not from
numpy's SIMD loops or BLAS, and a test reruns them with other kernels.
"""

import hashlib
import json
import os
import pprint
import subprocess
import sys
from pathlib import Path

import pytest

import pdqw
from pdqw.cli import main

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath

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


CHECKS = sorted((Path(__file__).parent / "data").glob("check_*.yaml"))
# The commands of tools/compare_outputs.py, in its order: `evolve --map`
# reads the first map that gen-maps wrote.
COMMANDS = ["gen-maps", "evolve", "evolve --map", "ensemble", "beta", "crossing", "two-photon", "hom"]
# Commands that write many files, and the key of their one digest.
MANY = {"gen-maps": "maps/*/*.txt", "two-photon": "*.csv"}

# Recorded at commit 5d3d54f, beta.csv and hom.csv again when fit_beta and
# hom_scan moved to libm and math.fsum. Per run: its exit code if that is
# not 0, else the digests of its files as above and the manifest's
# max_norm_drift where it has one.
EXPECTED_CHECKS = {
    "check_1 gen-maps": {
        "maps/*/*.txt": "1629ff15293d74fbe487bcd02c5565d450b79156ad3fd753e42acf01a0423966",
    },
    "check_1 evolve": {
        "evolve_p0.05.csv": "b8a99fc6e57d414fbd8680df4ed2b3047695c866bfabf3c5aefc56c8e35622ab",
        "evolve_p0.1.csv": "fac3031967cf1ef1510071658ed01f7268c7b99921462c08b98f4aae336aab45",
        "evolve_p0.2.csv": "ff85a97d2e7bf0a9b7bae59926fa7529c19600077b8a7795e3a6802cf3d2a968",
        "evolve_p0.csv": "7646eb9cf3b9dbd2f8fd00f876c5eaeb5261ebdb7840ce7e95d1518db7e3bed2",
        "evolve_p1.csv": "45237c215edf756f218c83c5143fc5e93b5b5a3e59c2b8cb61cd3a93555db0c9",
    },
    "check_1 evolve --map": {
        "evolve_map.csv": "7646eb9cf3b9dbd2f8fd00f876c5eaeb5261ebdb7840ce7e95d1518db7e3bed2",
    },
    "check_1 ensemble": {
        "ensemble.csv": "181376f1d3b9d777f641b16b620914d00097b2cec707ed3379712bf97edb7368",
        "ensemble_distributions.csv": "80702c9ab4b1d235757b9b100cbaf16d248979b0bc2be781820194b566165e9b",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "check_1 beta": {
        "beta.csv": "b1594de128c87bc302e87160c714a207bb15b7c708f30e748e372aa469c0c0c3",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "check_1 crossing": {
        "crossing.csv": "d6f2356aab5264354753d28146b6960ee19c067cf14d89d98d149fe8d760a85e",
        "similarity_scan.csv": "55c03b2d37275b2a366e83996324933f3541a7354d7ef311afeff90ead86cbc2",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "check_1 two-photon": {
        "*.csv": "0aa971c202128879b2634c0292f405893d1838bfd63aaa7b477df4a640eb7f44",
        "max_norm_drift": 8.881784197001252e-16,
    },
    "check_1 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
    "check_2 gen-maps": {
        "maps/*/*.txt": "74aaad25ae8dcef0e9282260394e82ac1dfbf62b6ebd691a97e955adb1ff8063",
    },
    "check_2 evolve": {
        "evolve_p0.05.csv": "113afc4ec18b4dcf04f6cfcbd3a00682d43037678c4c00d01c559c01fcd1c248",
        "evolve_p0.1.csv": "6feb79fff90c9861a43ba1e96c3d4e59480b75835afef53be2161bb6b6d77fab",
        "evolve_p0.2.csv": "6859c12d58d45f07457e585587710afe4956fea507787a50d9fd1322d61ef8f1",
        "evolve_p0.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
        "evolve_p1.csv": "24735c5d081fbafe27de2f62b9bd3242b906c0f96d2ceedb166c320a24aa2835",
    },
    "check_2 evolve --map": {
        "evolve_map.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
    },
    "check_2 ensemble": {
        "ensemble.csv": "a4bff4fe53c4b908624fcb4c537b0689a12cb75d88a98d488ec1eda4d2e90017",
        "ensemble_distributions.csv": "3c79ee9f180f5400f1b4e2ab547648c9ad93edb9081b8bf062377aa7175dc088",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_2 beta": {
        "beta.csv": "4721e8cefb3594c5dab271c672fabebf60d99a6f6bbb63cf79c7755f2341a80c",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_2 crossing": {
        "crossing.csv": "298965a6c8f7c6a431db6a110175a4d7f5cd8e1583cc15dfdfa87c9b4ca03957",
        "similarity_scan.csv": "affafa8bfde79fe1a2a5173b91540315b55bd2a200e978ebb9de3e5208fe6f92",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_2 two-photon": {
        "*.csv": "afe2822b5c33886e3687abcdb9bb436a96db1635b41c7ff2dbade7d4ef580d88",
        "max_norm_drift": 3.3306690738754696e-15,
    },
    "check_2 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
    "check_3 gen-maps": {
        "maps/*/*.txt": "a36924412d8106e2b196369f8e180b71dfe64d648120743a12d51672e872b434",
    },
    "check_3 evolve": {
        "evolve_p0.05.csv": "3b411da74708eade487379b7ded8dd2737d66f29440eba0325953ecef7670c99",
        "evolve_p0.1.csv": "09164c75ed0b0762ceca95d8d2e6fb03fa17a60c8d770851cd0d9ab1cd1ced6b",
        "evolve_p0.2.csv": "09164c75ed0b0762ceca95d8d2e6fb03fa17a60c8d770851cd0d9ab1cd1ced6b",
        "evolve_p0.csv": "3b411da74708eade487379b7ded8dd2737d66f29440eba0325953ecef7670c99",
        "evolve_p1.csv": "3b411da74708eade487379b7ded8dd2737d66f29440eba0325953ecef7670c99",
    },
    "check_3 evolve --map": {
        "evolve_map.csv": "3b411da74708eade487379b7ded8dd2737d66f29440eba0325953ecef7670c99",
    },
    "check_3 ensemble": {
        "ensemble.csv": "2529d3e7ba2700557eda03a11a445d72649bb4fc48d5d88ac4e1564b483ceaf9",
        "ensemble_distributions.csv": "26efea790a04ce9d53afc81735fa9fbdb8d201fcdad3ac16b9f0a390a28919f6",
        "max_norm_drift": 4.440892098500626e-16,
    },
    "check_3 beta": {
        "beta.csv": "b8076b024404529b51ae4e50ad152916dba485704186d9489044ef84015b969f",
        "max_norm_drift": 4.440892098500626e-16,
    },
    "check_3 crossing": {
        "exit": 2,
    },
    "check_3 two-photon": {
        "*.csv": "fbab0c82cac3684ce1033a279005aace3bd9e70bcdfe2d10a8ebe296f88b14bb",
        "max_norm_drift": 4.440892098500626e-16,
    },
    "check_3 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
    "check_4 gen-maps": {
        "maps/*/*.txt": "e39726680500e784a9d185516b845539e23fb6cab0be0b6583473ac746444dc6",
    },
    "check_4 evolve": {
        "evolve_p0.05.csv": "b3e3c06a847d3cd18817fc08ad9768f9276351885f32ce90d0d671f0569a93df",
        "evolve_p0.1.csv": "b980021e3f6f37f7e874a76814b3ef3dbdd27d5d087e4e6321b666ef5c929176",
        "evolve_p0.2.csv": "67f5dad41bd47a1efd39cb5228dd8f8c940718738ac2a43d2960433bfe2f89ab",
        "evolve_p0.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
        "evolve_p1.csv": "8e5e3477cae374393cd7d16c115fb0dcc37bc2e72dcec46783f29c7ee7d9d1b0",
    },
    "check_4 evolve --map": {
        "evolve_map.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
    },
    "check_4 ensemble": {
        "ensemble.csv": "17c7d89c3667f341b1316029d8f75f68c6bc42cbee5b76112ff1e7058c4eea0d",
        "ensemble_distributions.csv": "be44b8cad6b7dd7087112a459ac6d7905e170990b99a7d8549a0fa104324811c",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_4 beta": {
        "beta.csv": "fc62949beab52776eedf72ad700373d1b01f17067723492f02bf7068ccaadec2",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "check_4 crossing": {
        "crossing.csv": "a4805d86f4163cf9c865d5ff94877fbb472c437c6210e8dbf4da2655a0b498cd",
        "similarity_scan.csv": "5d76020c819e6ab8e44d8b31035dceae34c1f924cbdf067eb23157a92c71800a",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_4 two-photon": {
        "*.csv": "994eb58f3dc88f3bd729c7f99909c598d65d30f65db4f524824c3a7be1ed0a43",
        "max_norm_drift": 2.886579864025407e-15,
    },
    "check_4 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
    "check_5 gen-maps": {
        "maps/*/*.txt": "bc1f8243a80866230749120e08a228098ce644b2dd530a5b40cfbc1dba1cdc28",
    },
    "check_5 evolve": {
        "evolve_p0.05.csv": "e7c7588d9a7bb228c9011a34a3fb1198687df908b05b25f38cf36f7edc26f916",
        "evolve_p0.1.csv": "554a9470923295b3fa9a5ee55bf9f2c20caaf36862e476d4a0aa07b8600422e3",
        "evolve_p0.2.csv": "7ef1c88b9efc8bd70b9236c486867eb8278f360d799bad2e10997c091282d537",
        "evolve_p0.csv": "4f82af080c536da7e546b6ddc69f1a38857398f661bae2166d0d2cbc2319396a",
        "evolve_p1.csv": "3fab7404688a671bc7f49717c510f36c88129ecde0bdc1062cfd14a9bfd82e66",
    },
    "check_5 evolve --map": {
        "evolve_map.csv": "4f82af080c536da7e546b6ddc69f1a38857398f661bae2166d0d2cbc2319396a",
    },
    "check_5 ensemble": {
        "ensemble.csv": "fc22c0e98f0d7d1d7b778033860fbca8298b9d51e35c507aec666c079775766c",
        "ensemble_distributions.csv": "33022056935056419d78ed395358463ecd7edfa809567d3558f0e1d2336ff01f",
        "max_norm_drift": 2.220446049250313e-15,
    },
    "check_5 beta": {
        "beta.csv": "0273e77d1235684b31f3ffdd46cc62699428e11cb9ff2bedef73ff1e5e84250e",
        "max_norm_drift": 1.9984014443252818e-15,
    },
    "check_5 crossing": {
        "crossing.csv": "61dc657a0ee1d779994bc894ed3999ef859aea3066028bbd5b3cfb98f697ea20",
        "similarity_scan.csv": "c0fa65ff6e3231d68a641f850e9b1a852a8f5cc90c9712fe868162c77638576b",
        "max_norm_drift": 2.220446049250313e-15,
    },
    "check_5 two-photon": {
        "*.csv": "ceff0707bc0a283817981a6f7c681fc024daa83e0f406abf1cbff262b1e00c46",
        "max_norm_drift": 1.9984014443252818e-15,
    },
    "check_5 hom": {
        "hom.csv": "471b14decb1e5a7d03eeb6afc2a55c1bb865f3a4ccbfa14bec16b96410e88bf8",
    },
    "check_6 gen-maps": {
        "maps/*/*.txt": "a881e1cb644a4a37ef0015a24956483d65d16d92b3dd46bebaebdf0ba8e4c374",
    },
    "check_6 evolve": {
        "evolve_p0.05.csv": "762f4aa4172ba548bd3f7cb05f81df08e2d494a5d20a2cfa31ce153f0357e1db",
        "evolve_p0.1.csv": "762f4aa4172ba548bd3f7cb05f81df08e2d494a5d20a2cfa31ce153f0357e1db",
        "evolve_p0.2.csv": "405df590e228662408ae839be805b1b9250db5849fec67b17cd419a0386e75bc",
        "evolve_p0.csv": "fc78445a55b4f3c49beca0aa96709c1b7c5e9192c1f0b694744ebe18d971f376",
        "evolve_p1.csv": "f8b524bdbf197c20fbe5a2076b42fa82045c0fc9ecd8e1bc2522f543472893b3",
    },
    "check_6 evolve --map": {
        "evolve_map.csv": "fc78445a55b4f3c49beca0aa96709c1b7c5e9192c1f0b694744ebe18d971f376",
    },
    "check_6 ensemble": {
        "ensemble.csv": "5e2846ab7307e0938f64a32341dfe084fe97ea766555935c4c65a57409e87e33",
        "ensemble_distributions.csv": "3983c65abf1599adc8058471ffc477d6df1f281145684aec732799dc09e26d7c",
        "max_norm_drift": 1.9984014443252818e-15,
    },
    "check_6 beta": {
        "beta.csv": "5a12e8ba71452a3171a66b47e22235b031813f4927e166dc60ef16563060752c",
        "max_norm_drift": 1.7763568394002505e-15,
    },
    "check_6 crossing": {
        "crossing.csv": "232ad0b24ce17f379ec36a685bc4fb6d7769ca36545deb44d6d26354e5efb6c3",
        "similarity_scan.csv": "7fcfcc917a1ef1d8292191e3b4a075c17d9d821b50a3d3c1033f64c73cc15775",
        "max_norm_drift": 1.9984014443252818e-15,
    },
    "check_6 two-photon": {
        "*.csv": "6f480524ebbcd680366298ba02b1535a9013e56712955161037f8a0557fd0a98",
        "max_norm_drift": 1.9984014443252818e-15,
    },
    "check_6 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
    "check_7 gen-maps": {
        "maps/*/*.txt": "f549717d9db7e3c3b9ccbe478b6306c9239970d1f6dacb23697ea8ec6679bbf6",
    },
    "check_7 evolve": {
        "evolve_p0.025.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
        "evolve_p0.05.csv": "3dcc29487397a7697de824d74cc555be47e74b712c32d445bb788296df8a44fb",
        "evolve_p0.075.csv": "293c07697dbf12145b076e937c2244ec429d24a2fcb1bdae6df5abfba3197de9",
        "evolve_p0.1.csv": "5e80ace2c76e43f2936d685a0ebb9917462edda5582559b8e1472da746b6a444",
        "evolve_p0.125.csv": "76290c9c73a4ac7300c770de1ab99d290985c3123e2a7723929a475a04b54452",
        "evolve_p0.15.csv": "3e0e7f475954bbe767b7d40adf0443296cc2273bbbae39166ee9a9d01cee4ff1",
        "evolve_p0.175.csv": "56ee6506f77249e4f2dbcb059060e47501680f791098ac9b8367c0d369903165",
        "evolve_p0.2.csv": "8fe6d070c190f29e03894c2f1a989f25c7b746aee8b702c69549f8efdd6bbece",
        "evolve_p0.225.csv": "e7250ad25a33c3efe26399973f32eaceb408f407cd9c49c4ee83d1d99188e427",
        "evolve_p0.25.csv": "6b2109ee27f5c019f30aafae276e5fdf42f06b43d2f2cdb1ed2bcfeb43abe1f8",
        "evolve_p0.275.csv": "6b2109ee27f5c019f30aafae276e5fdf42f06b43d2f2cdb1ed2bcfeb43abe1f8",
        "evolve_p0.3.csv": "b3670dc6ab16b676026a62e546f01890ab54745f01fab721cf3f1f2b94e9c317",
        "evolve_p0.325.csv": "49d3048b8b80688f5a72571c0615437f5ab2208aa0f0fab5853763865d29a420",
        "evolve_p0.35.csv": "ea310b9ffa727aee2e94797ff0bcd9e2a90a0361a82010a1b68fed022c75a742",
        "evolve_p0.375.csv": "9acc810d59481125f8a7668da00ebf31b6b1ec216a289d8ad2fd466695c92b2d",
        "evolve_p0.4.csv": "adb7d3afd301b5de8f4bc3c29d70a8993d479778ec9b5a7a40bb8f8ebe2d90b9",
        "evolve_p0.425.csv": "cb7996731ea66a4322539518d4cc4a041e5f3cd090a58b02783eb45dae19cda7",
        "evolve_p0.45.csv": "6f9910508cbaac90377218f9c5c69f63b8c0bec18df0a8e6f966b72d449dca89",
        "evolve_p0.475.csv": "ea8235c6bfc48d61c545b25bbd2fb986e16df5039e7f20fdf981ba5119c76ac6",
        "evolve_p0.5.csv": "f1ab1394d6e9bd84c9624676b10e3f4abe5eef9f3444c05d85dc93622357e742",
        "evolve_p0.525.csv": "cd44729e7ee133626f2af2ab10d3c7ca6fd3518c191ebf10a6531c2d5bd50153",
        "evolve_p0.55.csv": "1563c66c953aecb5c0822025e6542a27b6521d598d59f547f6566a084cbced22",
        "evolve_p0.575.csv": "41508e04c8ef8177bccb020f28e59a4f9bdb8cff446bb96e9ee721b640c0d819",
        "evolve_p0.6.csv": "fe81a5223ae14c9be9b07b5349a0fb291f962ca56ac27ca64787bf7a3b3b93d3",
        "evolve_p0.625.csv": "0566ffd111bf40afc5cacd924c9a639e7674e9cb8e248cbe10102bee944f4faa",
        "evolve_p0.65.csv": "9becbe600ee41ea828041deb8a1c41b3e30bef3d3ad6f246ed8f7ade275de30f",
        "evolve_p0.675.csv": "7447ca9e7ee2b13743b83045caab4535b1595584eb7e218d86f9e57435166a59",
        "evolve_p0.7.csv": "f8bf957a6d540bbf66036fea1fc064c0eaa14dad849c46c2a42686405a5b0e6c",
        "evolve_p0.725.csv": "d30dc6f10739d7b369745914bdd7ea1732819ff216b6972538de981e70436c4e",
        "evolve_p0.75.csv": "28dcd79314c7bab5ca42328ba044d2694f00fd989d20d76c8c87dcb10e3488ef",
        "evolve_p0.775.csv": "9b13860d567749d5c0c691606b8343c67b9ce2e84a2f1d743f79372fbc28e7f9",
        "evolve_p0.8.csv": "650248b7e90f6c52973407cdce1e56b990c8ba9b57302959501b3a95a1866ab8",
        "evolve_p0.825.csv": "66ea43e7a25b02dc5fc3566290620c40e279c2087929fa50eec723842ed11c7b",
        "evolve_p0.85.csv": "e5e6bbd042db1daf2997c7bd409b1b2f82e9978ab6f078b6f2958b2a5c6611a2",
        "evolve_p0.875.csv": "79614e08fa0111452dd65a873664698c6df1e4be92c35e5803bd8acb9ac0ab95",
        "evolve_p0.9.csv": "79614e08fa0111452dd65a873664698c6df1e4be92c35e5803bd8acb9ac0ab95",
        "evolve_p0.925.csv": "13b44b6ff3f8f063f1e2162df82f064e2693a5d68715f86aa670a48127e40060",
        "evolve_p0.95.csv": "60103cd07ea3a131c02aa5285f04cf4e64d24c175e1e6addd545427dcb3981b0",
        "evolve_p0.975.csv": "4292a7095205fca3f37229afb4713a48d330bae5fce3ecc3661dea4b5b8dce27",
        "evolve_p0.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
        "evolve_p1.csv": "cea0e58db1ec2098da2c18fb2edd1610ca15124ade14e21a2b881c7c44616060",
    },
    "check_7 evolve --map": {
        "evolve_map.csv": "ed574d3630ebf6622483f5acd8dff15bf7888c3b43cb51c60faf8226c5f1c662",
    },
    "check_7 ensemble": {
        "ensemble.csv": "89b9cefd85a059ba3227178b9521263d3268d2632c166c46499d16ae851c954c",
        "ensemble_distributions.csv": "68294d6fa37608db9ef2beec349b5d71696b52f30754159447f9c6d80ff3a8bd",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_7 beta": {
        "beta.csv": "7fc512a1d986b7fb59a6b684a4f6cdb2baa00ef46bea2b8d76ae38e75d48338c",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_7 crossing": {
        "crossing.csv": "0fbef9b910f151ffba64e559a950a8fb79689bfa6f58becf841a2ac4ff3d4dbd",
        "similarity_scan.csv": "038d494ceb001d55e51777a45edb84af9c8e19eb6f7ce18a4a18153399c18d3c",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_7 two-photon": {
        "*.csv": "fb6d8723285925ea1f777c28ee88b46f96937af3fe7fa93fee2ba1d73a88b795",
        "max_norm_drift": 3.1086244689504383e-15,
    },
    "check_7 hom": {
        "hom.csv": "549178e98b3afa924fdbe33694a602ca8a10d5a0b8b66473990c2d211fd8cca2",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: list[str], out: Path) -> dict:
    """Run one command in process, writing into `out`; its exit code if that
    is not 0, else each written file's sha256 (MANY's commands: one sha256
    over the sorted "name sha256" lines) and the manifest's max_norm_drift."""
    code = main([*argv, "--out", str(out)])
    if code:
        return {"exit": code}
    files = sorted(f for f in out.rglob("*") if f.is_file() and not f.name.startswith("manifest_"))
    digests = {f.relative_to(out).as_posix(): sha256(f.read_bytes()) for f in files}
    if argv[0] in MANY:
        digests = {MANY[argv[0]]: sha256("".join(f"{n} {d}\n" for n, d in digests.items()).encode())}
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
    if "max_norm_drift" in manifest:
        digests["max_norm_drift"] = manifest["max_norm_drift"]
    return digests


def run(tmp_path, name: str, seed: int) -> dict:
    command, config = CONFIGS[name]
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(json.dumps({**config, "coin_reflectivity": 0.5}))
    return run_command([command, "--config", str(cfg), "--seed", str(seed)], tmp_path / f"{name}-{seed}")


def test_scans_write_the_recorded_bytes(tmp_path):
    fresh = {f"{name} seed {seed}": run(tmp_path, name, seed) for name in CONFIGS for seed in SEEDS}
    assert fresh == EXPECTED, "fresh table:\n" + pprint.pformat(fresh, width=120, sort_dicts=False)


@pytest.mark.parametrize("check", CHECKS, ids=lambda path: path.stem)
def test_every_command_writes_the_recorded_bytes_on_a_check_config(tmp_path, check):
    fresh, map_file = {}, None
    for command in COMMANDS:
        name, *flags = command.split()
        argv = [name, "--config", str(check), *flags, *([str(map_file)] if flags else [])]
        fresh[f"{check.stem} {command}"] = run_command(argv, tmp_path / command.replace(" ", ""))
        if command == "gen-maps":
            map_file = min((tmp_path / command).glob("maps/*/map_00000.txt"))
    expected = {key: value for key, value in EXPECTED_CHECKS.items() if key.startswith(check.stem + " ")}
    assert fresh == expected, "fresh table:\n" + pprint.pformat(fresh, width=120, sort_dicts=False)


# numpy's AVX-512 dispatch targets that this CPU has: disabling them with
# NPY_DISABLE_CPU_FEATURES runs the loops a CPU without AVX-512 runs.
AVX512 = [f for f in umath.__cpu_dispatch__
          if umath.__cpu_features__.get(f) and (f == "X86_V4" or f.startswith("AVX512"))]
# What each run changes: OpenBLAS's kernel for an AVX2-only CPU, and
# numpy's SIMD loops without AVX-512.
KERNELS = {
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)},
}
CHILD = """
import sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from pdqw.cli import main
disabled = sys.argv[1].split()
assert not any(umath.__cpu_features__[f] for f in disabled), "numpy kept a disabled feature"
for command, out in zip(("beta", "hom"), sys.argv[3:]):
    assert main([command, "--config", sys.argv[2], "--out", out]) == 0
"""


@pytest.mark.parametrize("kernels", KERNELS)
def test_beta_and_hom_bytes_do_not_depend_on_the_cpu_kernels(tmp_path, kernels):
    if kernels == "numpy without AVX-512" and not AVX512:
        pytest.skip("numpy dispatches to no AVX-512 loop on this CPU")
    env = KERNELS[kernels]
    check = CHECKS[0]
    outs = [tmp_path / f"{command} child" for command in ("beta", "hom")]
    src = str(Path(pdqw.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    argv = [sys.executable, "-c", CHILD, env.get("NPY_DISABLE_CPU_FEATURES", ""), str(check), *map(str, outs)]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, **env, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    for command, out in zip(("beta", "hom"), outs):
        name = f"{command}.csv"
        assert main([command, "--config", str(check), "--out", str(tmp_path / command)]) == 0
        assert (out / name).read_bytes() == (tmp_path / command / name).read_bytes()

"""Self-test of the benchmark at a tiny size.

Usage: python3 bench/selftest.py   (from the root of a pdqw checkout)

It checks that:
- every metric BENCHMARK.json names is emitted, with its unit, by untraced
  and traced runs of every workload;
- the self times of the span tree add up to the traced wall time, also when
  spans on pool threads overlap;
- a corrupted output CSV fails the run, whether or not the manifest was
  updated to match it;
- without a pdqw source tree the benchmark exits nonzero and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import run_bench
import spans

ROOT = run_bench.ROOT
TINY = {
    "dilution-scan-20": dict(n_maps=4, p=(0.0, 0.5, 1.0)),
    "crossing-7": dict(n_maps=32, p=tuple(round(0.1 * k, 10) for k in range(11))),
    "two-photon-20": dict(steps=4, n_maps=3, p=(0.0, 0.5, 1.0)),
}
SEED = 1
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def tiny(name: str) -> run_bench.Workload:
    return replace(run_bench.WORKLOADS[name], **TINY[name])


def check_metric_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in declared["workloads"]} == set(run_bench.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for name in run_bench.WORKLOADS:
            result = run_bench.run(tiny(name), SEED, 0.1, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)}: correct")
            expect(emitted == units, f"{name} trace={int(trace)}: emits every {key} metric with its unit")


def check_accounting() -> None:
    # Chunks 2 and 3 run on two pool threads and overlap on [2, 5]; span 4
    # runs inside chunk 2.
    synthetic = [
        (1, 0, "cli.main", 0, 0.0, 10.0, None),
        (2, 1, "ensemble.simulate_chunk", 1, 1.0, 5.0, None),
        (3, 1, "ensemble.simulate_chunk", 2, 2.0, 6.0, None),
        (4, 2, "disorder.generate_phase_map", 1, 1.0, 2.0, None),
    ]
    own = spans.self_times(synthetic)
    expect(own == {1: 5.0, 2: 1.5, 3: 2.5, 4: 1.0}, f"overlapping spans split their time: {dict(own)}")
    for name in run_bench.WORKLOADS:
        w = tiny(name)
        run_dir = run_bench.WORK_DIR / "selftest"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.yaml").write_text(json.dumps(w.config()))
        rep = run_bench.run_rep(w, SEED, run_dir, run_dir / "out", True, time.perf_counter())
        m = run_bench.layer_metrics(rep)
        total = sum(m[metric] for metric in run_bench.LAYER_SELF.values())
        expect(rep.ok and abs(total - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"],
               f"{name}: layer self times {total:.6f} s add up to traced wall {m['trace.wall_s']:.6f} s")
        shutil.rmtree(run_dir)


def check_corruption() -> None:
    w = tiny("dilution-scan-20")
    original = checks.output_problems

    def rewrite_value(out_dir: Path, fix_manifest: bool) -> None:
        path = out_dir / "ensemble.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")  # p = 0, step 1
        fields[2] = repr(float(fields[2]) * (1 + 1e-6))
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        if fix_manifest:
            manifest_path = out_dir / checks.manifest_name(w.command)
            manifest = json.loads(manifest_path.read_text())
            manifest["outputs"]["ensemble.csv"] = {"sha256": checks.sha256(path), "bytes": path.stat().st_size}
            manifest_path.write_text(json.dumps(manifest))

    for fix_manifest in (False, True):
        def corrupting(w_, out_dir, fix=fix_manifest):
            rewrite_value(out_dir, fix)
            return original(w_, out_dir)
        checks.output_problems = corrupting
        try:
            result = run_bench.run(w, SEED, 0.1, False)
        finally:
            checks.output_problems = original
        label = "manifest updated to match" if fix_manifest else "manifest left as written"
        expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
               f"a corrupted CSV ({label}) fails the run")


def check_refuses_without_source() -> None:
    bare = run_bench.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run_bench.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*command, "--workload", "crossing-7", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without src/pdqw the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check_metric_names()
    check_accounting()
    check_corruption()
    check_refuses_without_source()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

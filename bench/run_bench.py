"""pdqw benchmark: three CLI workloads timed end to end, and traced runs
that split the time by pdqw module.

Run from the root of a pdqw checkout; the program under test is ./src/pdqw.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

        One run. It repeats the workload for S seconds, each repetition in a
        fresh child interpreter (bench/child.py) that runs pdqw.cli.main once,
        one child at a time. It checks every output (bench/checks.py) and
        prints one JSON object {correct, attempted, failed, metrics} as the
        last line of stdout: the end-to-end metrics with --trace 0, the
        per-layer metrics with --trace 1 (traced repetitions interleaved with
        untraced ones, which give the tracing overhead). Times are in
        reference seconds: each repetition's times scaled by the machine's
        speed measured beside it (bench/speed.py).

    python3 bench/run_bench.py [--seed N] [--seconds S] [--record LABEL]

        Every workload, untraced then traced, printed as a table with units.
        --record LABEL makes ten untraced runs per workload, at seeds N to
        N+9, prints their medians and quartile spreads, and writes every run
        to bench/trajectory/BENCH_LABEL.json.

bench/README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
TRAJECTORY = BENCH_DIR / "trajectory"

# A run must exit within 180 s; no child may run past this point.
HARD_LIMIT_S = 165.0

# BLAS threading changes two-photon wall and CPU time, so it is pinned.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Untraced runs per workload in a trajectory entry (--record).
RECORD_RUNS = 10

GRID = tuple(round(0.01 * k, 10) for k in range(101))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    steps: int
    threads: int
    n_maps: int
    p: tuple[float, ...]  # p_grid for ensemble and crossing, p_values for two-photon
    crossing_steps: tuple[int, ...] = ()

    def config(self) -> dict:
        # checks.py's oracle assumes this coin and eta.
        cfg = {"steps": self.steps, "n_maps": self.n_maps, "coin_reflectivity": 0.5}
        if self.command == "two-photon":
            cfg["p_values"] = list(self.p)
            cfg["two_photon"] = {"eta": 1.0}
        else:
            cfg["p_grid"] = list(self.p)
        if self.crossing_steps:
            cfg["crossing_steps"] = list(self.crossing_steps)
        return cfg

    @property
    def maps_evolved(self) -> int:
        # crossing evolves the p = 1 reference ensemble once more
        return (len(self.p) + (self.command == "crossing")) * self.n_maps

    @property
    def files(self) -> int:
        return len(self.p) * self.steps + 1 if self.command == "two-photon" else 2


# TIMING_NOTE: on a shared 2-vCPU VM the same code runs up to about 1.7x
# slower for seconds at a time, in CPU time as well as wall time (other load
# on the host). Raw times of 40 s runs then spread by 15-30 % from run to
# run. So every time is scaled by the speed that speed.calibrate() measures
# just before and after the repetition, and each metric is the median over
# the run's repetitions. Repetitions are kept near 1 s so a run holds about
# twenty: paper scale is 1000 maps per p (100 for two-photon), shrunk here.
# bench/README.md has the measured spreads.
WORKLOADS = {w.name: w for w in (
    # The acceptance dilution scan: sampling and the ensemble kernel, and the
    # largest CSV.
    Workload("dilution-scan-20", "ensemble", steps=20, threads=1, n_maps=64, p=GRID),
    # Short walks, so map sampling dominates; the only ThreadPoolExecutor and
    # similarity user. 256 maps are two chunks, one per thread; the grid is
    # halved instead of the maps to keep the repetition near 1 s.
    Workload("crossing-7", "crossing", steps=7, threads=2, n_maps=256, p=GRID[::2],
             crossing_steps=(5, 6, 7)),
    # Dense mode unitaries and pair statistics; bypasses the ensemble kernel
    # and writes 101 files.
    Workload("two-photon-20", "two-photon", steps=20, threads=1, n_maps=12,
             p=(0.0, 0.05, 0.1, 0.2, 1.0)),
)}

END_TO_END_UNITS = {
    "wall_s": "s", "maps_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "B",
    "cli.outputs_byte_identical": "bool",
    "config.load_s": "s",
    "disorder.maps_sampled": "count", "disorder.sample_s": "s", "disorder.us_per_map": "us",
    "ensemble.calls": "count", "ensemble.self_s": "s", "ensemble.cell_updates": "count",
    "ensemble.cell_updates_per_s": "1/s",
    "walk_core.self_s": "s", "walk_core.unitary_steps": "count", "walk_core.unitary_s": "s",
    "walk_core.unitary_flops": "flop", "walk_core.unitary_gflop_per_s": "Gflop/s",
    "two_photon.pair_maps": "count", "two_photon.pair_dist_s": "s",
    "two_photon.site_reduce_s": "s", "two_photon.var2_s": "s", "two_photon.self_s": "s",
    "analysis.similarity_calls": "count", "analysis.similarity_s": "s", "analysis.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "speed.calib_s": "s", "speed.calib_cpu_s": "s", "speed.raw_wall_s": "s",
}
# The per-layer self times that together account for the traced wall time.
LAYER_SELF = {
    "cli": "cli.self_s", "config": "config.load_s", "disorder": "disorder.sample_s",
    "ensemble": "ensemble.self_s", "walk_core": "walk_core.self_s",
    "two_photon": "two_photon.self_s", "analysis": "analysis.self_s",
}


@dataclass
class Rep:
    traced: bool
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0  # child's whole life, seen from the parent
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    import_s: float | None = None
    calib_s: float | None = None  # mean wall time of the calibrations before and after main
    calib_cpu_s: float | None = None  # their mean CPU time
    digest: str | None = None
    files: int = 0
    bytes: int = 0
    spans: list | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scale(self) -> float:
        """Factor from this repetition's wall seconds to reference seconds."""
        return speed.REFERENCE_S / self.calib_s

    @property
    def cpu_scale(self) -> float:
        """Factor from this repetition's CPU seconds to reference seconds."""
        return speed.REFERENCE_S / self.calib_cpu_s


def _child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(run_dir: Path, argv, threads: int, traced: bool,
              started: float) -> tuple[dict | None, str, bool]:
    """Run bench/child.py once. Returns (result or None, error text, timed out)."""
    job = run_dir / "job.json"
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    job.write_text(json.dumps({"argv": argv, "threads": threads, "trace": traced, "result": str(result_path)}))
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s", True
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None, f"child exited {proc.returncode} without a result: {proc.stderr.strip()[-500:]}", False
    if not Path(result["pdqw_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        return None, f"child imported pdqw from {result['pdqw_file']}", False
    if proc.returncode != 0:
        return result, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}", False
    return result, "", False


def run_rep(w: Workload, seed: int, run_dir: Path, out_dir: Path, traced: bool, started: float) -> Rep:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [w.command, "--config", str(run_dir / "config.yaml"), "--out", str(out_dir),
            "--threads", str(w.threads), "--seed", str(seed)]
    t0 = time.perf_counter()
    result, error, timed_out = run_child(run_dir, argv, w.threads, traced, started)
    rep = Rep(traced=traced, seconds=time.perf_counter() - t0, timed_out=timed_out)
    if error:
        rep.problems.append(error)
    if result is None:
        return rep
    rep.wall_s, rep.cpu_s = result["wall_s"], result["cpu_s"]
    rep.peak_rss_mb, rep.import_s = result["peak_rss_mb"], result["import_s"]
    rep.calib_s = statistics.fmean(result["calib_s"])
    rep.calib_cpu_s = statistics.fmean(result["calib_cpu_s"])
    rep.spans = result.get("spans")
    if result.get("unwrapped"):
        print(f"{w.name}: not traced, missing: {result['unwrapped']}", file=sys.stderr)
    if result["code"] == 0:
        problems, rep.digest, rep.files, rep.bytes = checks.output_problems(w, out_dir)
        rep.problems += problems
    return rep


def run_checks(w: Workload, seed: int, out_dir: Path, digest: str) -> tuple[list[str], int]:
    """Value checks on one repetition's outputs; returns (problems, byte identity)."""
    try:
        table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        problems, identical = checks.stored_problems(w, seed, out_dir, digest, table)
        problems += checks.ordered_problems(w, out_dir)
        problems += checks.sampled_problems(w, seed, out_dir)
    except Exception as exc:  # a check that cannot run fails the run, it does not crash it
        return [f"check raised {exc!r}"], -1
    return problems, identical


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: repeat the workload for `seconds`, check, and summarize."""
    started = time.perf_counter()
    run_dir = WORK_DIR / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # JSON is YAML, so the config needs no YAML writer here.
        (run_dir / "config.yaml").write_text(json.dumps(w.config()))
        warm, error, _ = run_child(run_dir, None, w.threads, False, started)  # fills the bytecode cache
        if warm is None:
            raise SystemExit(f"{w.name}: cannot import pdqw.cli: {error}")
        reps: list[Rep] = []
        kept = None  # the first successful repetition; its outputs stay in "first"
        t0 = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            out_dir = run_dir / ("out" if kept else "first")
            rep = run_rep(w, seed, run_dir, out_dir, traced, started)
            if kept is None and rep.ok:
                kept = rep
            elif rep.ok and rep.digest != kept.digest:
                rep.problems.append("outputs differ from the run's first successful repetition")
            reps.append(rep)
            elapsed = time.perf_counter() - t0
            typical = statistics.median(r.seconds for r in reps)
            if rep.timed_out or (elapsed + typical > seconds and (not trace or len(reps) >= 2)):
                break
        run_problems, identical = [], -1
        if kept is not None:
            run_problems, identical = run_checks(w, seed, run_dir / "first", kept.digest)
        for rep in reps:
            rep.problems += run_problems
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = [r for r in reps if not r.ok]
    for problem in dict.fromkeys(p for r in failed for p in r.problems):
        print(f"{w.name} seed {seed}: {problem}", file=sys.stderr)
    metrics = per_layer(reps, identical) if trace else end_to_end(w, reps)
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _timed(reps: list[Rep], traced: bool) -> list[Rep]:
    """Repetitions whose timings count: the successful ones, else any."""
    kind = [r for r in reps if r.traced == traced and r.wall_s is not None]
    return [r for r in kind if r.ok] or kind


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(w: Workload, reps: list[Rep]) -> dict:
    # Medians of reference seconds: see TIMING_NOTE.
    timed = _timed(reps, False)
    wall = _median(r.wall_s * r.scale for r in timed)
    values = {
        "wall_s": wall,
        "maps_per_s": w.maps_evolved / wall if wall else 0.0,
        "cpu_s": _median(r.cpu_s * r.cpu_scale for r in timed),
        "peak_rss_mb": _median(r.peak_rss_mb for r in timed),
        # the import runs on one thread, so it scales like CPU time
        "setup_s": _median(r.import_s * r.cpu_scale for r in timed),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, times in reference seconds."""
    own = {sid: t * rep.scale for sid, t in spans.self_times(rep.spans).items()}
    by_name: dict[str, list] = {}
    layer_s: dict[str, float] = {}
    for span in rep.spans:
        sid, _parent, name = span[:3]
        by_name.setdefault(name, []).append(span)
        layer_s[spans.layer(name)] = layer_s.get(spans.layer(name), 0.0) + own.get(sid, 0.0)

    def count(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(own.get(s[0], 0.0) for s in by_name.get(name, []))

    root = by_name[spans.ROOT_NAME][0]
    wall = (root[5] - root[4]) * rep.scale
    maps = count("disorder.generate_phase_map")
    cells = sum(a["maps"] * a["steps"] * (2 * a["steps"] + 1)
                for *_, a in by_name.get("ensemble.run_ensemble", []))
    flops = sum(16 * (2 * (2 * a["n_max"] + 1)) ** 3
                for *_, a in by_name.get("walk_core.mode_unitary_step", []))
    m = {
        "disorder.maps_sampled": maps,
        "ensemble.calls": count("ensemble.run_ensemble"),
        "ensemble.cell_updates": cells,
        "walk_core.unitary_steps": count("walk_core.mode_unitary_step"),
        "walk_core.unitary_s": self_s("walk_core.mode_unitary_step"),
        "walk_core.unitary_flops": flops,
        "two_photon.pair_maps": sum(a["maps"] for *_, a in by_name.get("two_photon.run_pair_ensemble", [])),
        "two_photon.pair_dist_s": self_s("two_photon.pair_distribution"),
        "two_photon.site_reduce_s": self_s("two_photon.site_coincidences"),
        "two_photon.var2_s": self_s("two_photon.variance2"),
        "analysis.similarity_calls": count("analysis.similarity"),
        "analysis.similarity_s": self_s("analysis.similarity"),
        "trace.wall_s": wall,
        "trace.spans": len(rep.spans),
    }
    for layer_name, metric in LAYER_SELF.items():
        m[metric] = layer_s.get(layer_name, 0.0)
    m["disorder.us_per_map"] = 1e6 * m["disorder.sample_s"] / maps if maps else 0.0
    m["ensemble.cell_updates_per_s"] = cells / m["ensemble.self_s"] if m["ensemble.self_s"] else 0.0
    m["walk_core.unitary_gflop_per_s"] = flops / m["walk_core.unitary_s"] / 1e9 if m["walk_core.unitary_s"] else 0.0
    return m


def per_layer(reps: list[Rep], identical: int) -> dict:
    """Per-layer metrics of the median traced repetition (by wall time in
    reference seconds), so its layer self times add up to its wall time."""
    traced = sorted((r for r in _timed(reps, True) if r.spans), key=lambda r: r.wall_s * r.scale)
    untraced = _timed(reps, False)
    values = layer_metrics(traced[(len(traced) - 1) // 2]) if traced else {}
    values["trace.overhead_s"] = (values.get("trace.wall_s", 0.0)
                                  - _median(r.wall_s * r.scale for r in untraced))
    values["speed.calib_s"] = _median(r.calib_s for r in untraced)
    values["speed.calib_cpu_s"] = _median(r.calib_cpu_s for r in untraced)
    values["speed.raw_wall_s"] = _median(r.wall_s for r in untraced)
    written = next((r for r in reps if r.ok), reps[0])
    values["cli.files_written"] = written.files
    values["cli.bytes_written"] = written.bytes
    values["cli.outputs_byte_identical"] = identical
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _git_commit(),
        "child_env": CHILD_ENV,
    }


def _print_table(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:18s} {metric:32s} {m['value']:>16.6g} {m['unit']}")


def summarize(results: list[dict]) -> dict:
    """Median and quartile spread (share of the median) of each metric over runs."""
    summary = {}
    for metric, m in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        spread = None
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        summary[metric] = {"median": median, "spread": spread, "unit": m["unit"]}
    return summary


def run_all(seed: int, seconds: float, record: str | None) -> int:
    """Every workload untraced, then traced at the first seed. With --record,
    RECORD_RUNS untraced runs per workload at consecutive seeds, the workloads
    interleaved so that a slow phase of the machine hits all of them."""
    env = environment()
    print(json.dumps({"environment": env}))
    seeds = list(range(seed, seed + (RECORD_RUNS if record else 1)))
    untraced = {name: [] for name in WORKLOADS}
    for s in seeds:
        for w in WORKLOADS.values():
            untraced[w.name].append(run(w, s, seconds, False))
    entry = {"label": record, "seeds": seeds, "seconds": seconds, "environment": env, "workloads": {}}
    for w in WORKLOADS.values():
        traced = run(w, seed, seconds, True)
        runs = untraced[w.name] + [traced]
        attempted = sum(r["attempted"] for r in runs)
        error_rate = sum(r["failed"] for r in runs) / attempted
        summary = summarize(untraced[w.name])
        for metric, m in summary.items():
            spread = "" if m["spread"] is None else f"  spread {m['spread']:.3f}"
            print(f"{w.name:18s} {metric:32s} {m['median']:>16.6g} {m['unit']}{spread}")
        print(f"{w.name:18s} {'error_rate':32s} {error_rate:>16.6g} failed/attempted ({attempted} repetitions)")
        _print_table(w.name, traced)
        entry["workloads"][w.name] = {
            "config": w.config(), "threads": w.threads, "error_rate": error_rate,
            "summary": summary, "untraced": untraced[w.name], "traced": traced,
        }
    if record:
        TRAJECTORY.mkdir(exist_ok=True)
        path = TRAJECTORY / f"BENCH_{record}.json"
        path.write_text(json.dumps(entry, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(e["error_rate"] == 0 for e in entry["workloads"].values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="master seed of the workload (default 1)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="ten runs per workload, written to bench/trajectory/BENCH_LABEL.json")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in unsigned 64 bits")
    if not (ROOT / "src" / "pdqw" / "cli.py").is_file():
        print(f"no pdqw source at {ROOT / 'src' / 'pdqw'}: run from the root of a pdqw checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.record)
    print(json.dumps({"environment": environment()}))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

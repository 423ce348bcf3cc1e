"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

JOB.json (written by run_bench.py) holds the pdqw CLI argv, its thread
count, whether to trace, and where to write the result. The child times `import pdqw.cli`
(the program's set-up), then runs `pdqw.cli.main(argv)` once in-process and
writes wall time, CPU time, peak RSS and, when traced, every span. Just
before and just after `main` it times the fixed work in speed.py, which gives
the machine's speed at that moment. With a null argv it only imports, which
warms the bytecode cache.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process image. ru_maxrss is not used: Linux carries
    the spawning parent's RSS into it across exec, so it would measure the
    benchmark's own memory whenever that is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)

    started = time.perf_counter()
    import pdqw.cli
    result = {"import_s": time.perf_counter() - started, "pdqw_file": pdqw.cli.__file__}

    code = 0
    if job["argv"] is not None:
        import speed  # after the timed import: it imports numpy too
        calib = [speed.calibrate(job["threads"])]
        tracer = None
        if job["trace"]:
            import spans
            tracer = spans.Tracer()
            result["unwrapped"] = spans.install(tracer)
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        try:
            if tracer is None:
                code = pdqw.cli.main(job["argv"])
            else:
                code = tracer.call(spans.ROOT_NAME, pdqw.cli.main, job["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
        result["code"] = code
        result["peak_rss_mb"] = _peak_rss_mb()
        calib.append(speed.calibrate(job["threads"]))
        result["calib_s"], result["calib_cpu_s"] = map(list, zip(*calib))
        if tracer is not None:
            result["spans"] = tracer.spans
    else:
        result["peak_rss_mb"] = _peak_rss_mb()

    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code if isinstance(code, int) and 0 <= code < 256 else 1


if __name__ == "__main__":
    sys.exit(main())

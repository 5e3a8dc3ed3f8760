"""Benchmark of the chaoscast pipeline, run from the root of a source tree.

    python3 perfbench/run.py --workload map-ensemble --seed 7 --seconds 32 --trace 0

One operation is one in-memory ``run_pipeline(cfg, out_dir=None)`` call on
the workload's config (see workloads.py) with the given seed. With
``--trace 0`` the run measures set-up time in fresh interpreters, then
repeats the operation for about ``--seconds`` seconds and reports the
end-to-end metrics, scaled to a reference host speed (see calibrate.py).
With ``--trace 1`` it reports per-layer metrics from one traced operation
instead (see traced.py) and writes its spans under ``.perfbench/``.
Every operation's output is checked (see check.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the environment and every metric by name with its unit.
All load runs in this one process on one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, warmup_config, workload_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
SETUP_CAL_SAMPLES = 40  # one calibration block, about 0.25 s
SPEC = ROOT / "BENCHMARK.json"  # run length, metric names and units
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Timed in a fresh interpreter: import the package, build and validate
# the workload's config (from_dict validates), then signal readiness.
SETUP_PROGRAM = (
    "import json, sys\n"
    "import chaoscast\n"
    "chaoscast.PipelineConfig.from_dict(json.loads(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def git_commit() -> str:
    """HEAD of the source tree, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy wheels."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "seed": seed}


def measure_setup(cfg_dict: dict) -> float:
    """Seconds from spawning an interpreter until the config is validated."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROGRAM, json.dumps(cfg_dict)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up interpreter exited {code} without validating the config")
    return elapsed


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, "OutputCheck"]:
    """End-to-end metrics: set-up time, then operations for ``seconds``.

    Both are scaled to the reference host speed (see calibrate.py).
    ``setup_s`` is the median set-up, each scaled by the calibration blocks
    just before and after it. ``run_s`` is the mean operation time net of
    the calibration samples taken during the operations, scaled by their
    mean.
    """
    from chaoscast import PipelineConfig, run_pipeline
    from calibrate import Sampler, calibration_mean, scaled
    from check import OutputCheck, summarize_result

    cfg_dict = workload_config(workload, seed)
    calibration_mean(SETUP_CAL_SAMPLES)  # warm-up
    setup, cal = [], [calibration_mean(SETUP_CAL_SAMPLES)]
    for _ in range(SETUP_REPS):
        setup.append(measure_setup(cfg_dict))
        cal.append(calibration_mean(SETUP_CAL_SAMPLES))
    setup_scaled = [scaled(t, (cal[i] + cal[i + 1]) / 2) for i, t in enumerate(setup)]
    run_pipeline(PipelineConfig.from_dict(warmup_config(workload, seed)))

    cfg = PipelineConfig.from_dict(cfg_dict)
    check = OutputCheck(workload, cfg.selection.retention_threshold,
                        against_reference=seed == DEFAULT_SEED)
    sampler = Sampler()
    times, net = [], []
    start = time.perf_counter()
    with sampler.sampling():
        while True:
            error = None
            spent, t0 = sampler.spent, time.perf_counter()
            try:
                result = run_pipeline(cfg)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            net.append(times[-1] - (sampler.spent - spent))
            check.record(None if error else summarize_result(result), error)
            # stop when one more operation would end nearer the budget's end than not
            if time.perf_counter() - start + statistics.median(times) / 2 >= seconds:
                break
    metrics = {
        "run_s": sampler.scaled(statistics.fmean(net)),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sampler.samples
    print(f"run_s samples = {len(times)}; wall median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s; net of calibration "
          f"mean {statistics.fmean(net):.4f} s")
    print(f"calibration samples = {len(samples)}; mean {statistics.fmean(samples) * 1e3:.3f} ms, "
          f"min {min(samples) * 1e3:.3f} ms, max {max(samples) * 1e3:.3f} ms")
    print(f"setup_s samples = {len(setup)}; wall median {statistics.median(setup):.4f} s, "
          f"min {min(setup):.4f} s, max {max(setup):.4f} s")
    return metrics, check


def run_traced(workload: str, seed: int) -> tuple[dict, "OutputCheck", dict]:
    """Per-layer metrics from one traced operation and its probes."""
    from chaoscast import PipelineConfig, run_pipeline
    from check import OutputCheck
    from traced import traced_run

    run_pipeline(PipelineConfig.from_dict(warmup_config(workload, seed)))
    cfg = PipelineConfig.from_dict(workload_config(workload, seed))
    check = OutputCheck(workload, cfg.selection.retention_threshold,
                        against_reference=seed == DEFAULT_SEED)
    metrics, record = traced_run(workload, cfg, check, OUT / "tmp")
    return metrics, check, record


def write_reference(workload: str) -> None:
    from chaoscast import PipelineConfig, run_pipeline
    from check import summarize_result, write_reference as write

    result = run_pipeline(PipelineConfig.from_dict(workload_config(workload, DEFAULT_SEED)))
    print(f"wrote {write(summarize_result(result), workload)}")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed output summary and exit")
    args = parser.parse_args(argv)

    if not (SRC / "chaoscast" / "__init__.py").is_file():
        print(f"perfbench: no chaoscast sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"  # before numpy loads, so BLAS starts one thread
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference(args.workload)
        return 0

    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        values, check, record = run_traced(args.workload, args.seed)
        listed = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "environment": env, "metrics": values, **record},
            indent=1) + "\n")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in record["stage_share"].items())
        print(f"stage spans as a share of the traced operation: {shares}")
        print(f"artifacts from run-all: {json.dumps(record['artifacts'])}")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values, check = run_untraced(args.workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
    for error in check.errors:
        print(f"check failed: {error}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} failed_share = {check.failed / check.attempted} share "
          f"({check.failed} of {check.attempted} operations)")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

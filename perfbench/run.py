"""voxloc desk benchmark.

    python3 perfbench/run.py --workload localize-desk --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): localize-desk,
localize-default-map, train-desk. With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it wraps each module's functions and
prints per-module metrics, self times and the tracing overhead instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The first run in a source tree builds the desk maps (about six minutes on
two cores) into .bench_build/ and later runs reuse them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CACHE_ROOT = REPO / ".bench_build" / "voxloc"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="draws the run's queries (localize) or the training "
                        "seed (train)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--world-seed", type=int, default=None,
                   help="world the maps are built for (default: the desk "
                        "world, seed 0)")
    p.add_argument("--profile", default="desk", help=argparse.SUPPRESS)
    p.add_argument("--build-part", default=None, help=argparse.SUPPRESS)
    p.add_argument("--cache-root", type=Path, default=CACHE_ROOT,
                   help=argparse.SUPPRESS)
    return p


def ensure_built(harness, cache) -> None:
    """Build the dataset, then both maps side by side, in child processes
    (their memory and threads stay out of this run's measurements)."""
    if cache.ready():
        return
    world = cache.dir.name.rsplit("-", 1)[0]   # <profile>-w<seed>
    for stale in cache.dir.parent.glob(f"{world}-*"):
        if stale != cache.dir:
            shutil.rmtree(stale)
    cache.dir.mkdir(parents=True, exist_ok=True)
    base = [sys.executable, str(HERE / "run.py"), "--workload", "build",
            "--profile", cache.profile.name,
            "--cache-root", str(cache.dir.parent)]
    if cache.world_seed is not None:
        base += ["--world-seed", str(cache.world_seed)]
    start = time.perf_counter()
    print(f"# building {cache.dir} (runs once per source tree)", flush=True)
    subprocess.run(base + ["--build-part", "dataset"], check=True)
    children = [subprocess.Popen(base + ["--build-part", m])
                for m in harness.MAPS]
    codes = [c.wait() for c in children]
    if any(codes):
        raise RuntimeError(f"map build failed with exit codes {codes}")
    cache.write_json("done.json", {"build_s": time.perf_counter() - start})


def result_json(out, trace: bool) -> dict:
    """The result line; its metrics must be exactly those BENCHMARK.json
    declares for the mode."""
    metrics = out.layer if trace else out.metrics
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (REPO / "src" / "voxloc" / "__init__.py").is_file():
        print(f"error: no voxloc sources under {REPO / 'src'}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    # Pin the floating-point environment before NumPy loads: the BLAS
    # thread count changes reduction order, and with it the trained map's
    # accuracy. Build children inherit the pin.
    if "numpy" in sys.modules:
        print("error: NumPy loaded before the BLAS thread pin",
              file=sys.stderr)
        return 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(REPO / "src"))
    import harness

    profile = harness.PROFILES.get(args.profile)
    if profile is None:
        print(f"error: unknown profile {args.profile!r}", file=sys.stderr)
        return 1
    cache = harness.cache_for(args.cache_root, REPO, profile, args.world_seed)
    if args.build_part:
        harness.build_part(cache, args.build_part)
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    ensure_built(harness, cache)

    out = harness.run_workload(cache, args.workload, args.seed,
                               args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} world={cache.dir.name}")
    env = harness.environment()
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit in out.report:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:24s} {shown:>16s}  {unit}")
    if args.trace:
        for line in harness.span_table(out.spans, out.busy):
            print(line)
        for name, value in sorted(out.layer.items()):
            print(f"{name:40s} {value:.6g}")
        spans_dir = cache.path("spans")
        spans_dir.mkdir(exist_ok=True)
        out.spans.write(spans_dir / f"{args.workload}-seed{args.seed}.tsv")
    for p in out.problems:
        print(f"# problem: {p}")
    print(json.dumps(result_json(out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

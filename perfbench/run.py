"""Benchmark of the cqpolar CLI, run in-process from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: hybrid-scan, classical-scan, decode-sim, verify (see
``interactions.json`` for why each exists and which layer metric should move
where).  One run imports cqpolar from ``src/`` and sets up its inputs several
times (``setup_s`` is the median), makes one untimed warm-up pass, then repeats
passes over the workload's CLI calls for ``--seconds`` and probes the largest
depth each probed channel family reaches.  Every output is checked.

Times are scaled to a fixed machine speed by ``gauge.py``: on a shared VM the
same code runs up to twice as slowly for minutes at a time, and a reference
kernel timed between the calls tracks that.  Over ten seeds of each workload
on a 2-vCPU VM, the spread (quartile distance over median) of the pass time
was 19-29% as measured and 3-11% scaled.  Each call's scaled time is its
median over the passes; ``pass_s`` sums them.  Set-up times are scaled by the
kernel's mean over all set-ups.  The unscaled times are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans, with
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  The process uses one thread: BLAS is
pinned to a single thread before numpy loads.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from gauge import KERNEL_REF_S, Gauge, scaled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up repeats: at least SETUP_REPEATS, and more until SETUP_SECONDS have gone.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
MIN_PASSES = 3

#: Per-command wall-time metrics, reported for the workloads that run them.
COMMAND_METRICS = {
    "polarize": "polarize_s",
    "construct": "construct_s",
    "decode-sim": "decode_sim_s",
    "verify": "verify_s",
    "mac-region": "mac_region_s",
}


def _metric_specs():
    """Units of the result-line metrics by mode, and of the printed-only ones.

    ``BENCHMARK.json`` names the metrics of the result line and their units;
    ``interactions.json`` adds the units of the metrics only printed.  A name
    given two units, or a layer map that differs from ``per_layer``, stops the run.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}
    notes = json.loads((HERE / "interactions.json").read_text())
    printed = {name: spec["unit"] for name, spec in notes["end_to_end"].items()}
    for name, unit in printed.items():
        if mode["end_to_end"].get(name, unit) != unit:
            raise SystemExit(f"error: {name} has unit {unit} in interactions.json, "
                             f"{mode['end_to_end'][name]} in BENCHMARK.json")
    mapped = {name for layer in notes["layers"] for name in layer["metrics"]}
    if mapped != set(mode["per_layer"]):
        raise SystemExit("error: interactions.json layers and BENCHMARK.json per_layer differ: "
                         f"{sorted(mapped ^ set(mode['per_layer']))}")
    return mode, printed


def _environment() -> str:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')}-{blas.get('version')} blas_threads={_blas_threads()}"
    )


def _blas_threads() -> str:
    """The thread count OpenBLAS reports, when its library can be found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"pinned-{BLAS_THREADS}"


def _import_and_setup(workload, workloads_mod):
    """Import cqpolar afresh and set up the workload; returns (cli, seconds)."""
    for name in [m for m in sys.modules if m == "cqpolar" or m.startswith("cqpolar.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("cqpolar.cli")
    workloads_mod.setup(workload, cli)
    return cli, perf_counter() - start


def _median(values) -> float:
    return float(statistics.median(values))


def _op_scaled(passes) -> dict:
    """Median over the passes of each op's time scaled to the gauge's machine speed."""
    keys = [r.key for r in passes[0]]
    return {k: _median([scaled(p[i].seconds, p[i].kernel_s) for p in passes])
            for i, k in enumerate(keys)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    specs, printed = _metric_specs()

    if not (SRC / "cqpolar" / "__init__.py").is_file():
        print(f"error: no cqpolar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import outputs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, OUT / args.workload)
    schemas = outputs.Schemas(SRC / "cqpolar" / "schemas")

    gauge = Gauge()
    setup_times, samples = [], []
    started = perf_counter()
    while len(setup_times) < SETUP_REPEATS or perf_counter() - started < SETUP_SECONDS:
        samples.append(gauge.between("setup"))
        cli, seconds = _import_and_setup(workload, workloads)
        gauge.last["setup"] = seconds
        setup_times.append(seconds)
    samples.append(gauge.between("setup"))
    setup_kernel_s = sum(t for t, _ in samples) / sum(n for _, n in samples)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: cqpolar was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reference = {}
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    runner = workloads.Runner(cli, workload, schemas, reference)
    # warm-up, untimed: first in-process calls run several times slower
    for result in runner.run_pass():
        gauge.last[result.key] = result.seconds

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    while True:
        if tracer is None or len(plain) <= len(traced):
            plain.append(runner.run_pass(gauge))
        else:
            tracing.install(tracer)
            tracer.begin_pass()
            try:
                traced.append(runner.run_pass(gauge))
            finally:
                tracer.end_pass()
                tracer.uninstall()
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    frontier = {p.family: runner.frontier(p) for p in workload.probes}
    violations = _median(
        [sum(r.bound_holds is False for r in results) for results in plain]
    )

    op_s = _op_scaled(plain)
    commands = {r.key: r.command for r in plain[0]}
    per_command = {}
    for key, seconds in op_s.items():
        name = COMMAND_METRICS[commands[key]]
        per_command[name] = per_command.get(name, 0.0) + seconds
    fail_ratio = runner.failed / runner.attempted

    print(f"# env {_environment()}")
    print(f"# workload {args.workload} seed={args.seed} passes={len(plain)}"
          f"{f' traced_passes={len(traced)}' if tracer else ''} ops_attempted={runner.attempted}"
          f" ops_failed={runner.failed}")
    for key, message in runner.errors:
        print(f"# failure {key}: {message}")

    if tracer is None:
        metrics = {
            "setup_s": scaled(_median(setup_times), setup_kernel_s),
            "pass_s": sum(op_s.values()),
            "peak_rss_mb": peak_rss_mb,
        }
        kernel = [r.kernel_s for p in plain for r in p]
        shown = dict(metrics, **per_command, fail_ratio=fail_ratio,
                     setup_wall_s=_median(setup_times),
                     pass_wall_s=_median([sum(r.seconds for r in p) for p in plain]),
                     slowdown=_median(kernel) / KERNEL_REF_S)
        if any(op.command == "decode-sim" for op in workload.ops):
            shown["bound_violations"] = violations
        if frontier:
            shown["frontier_n"] = sum(frontier.values())
    else:
        metrics = tracing.layer_metrics(tracer)
        plain_s = sum(op_s.values())
        traced_s = sum(_op_scaled(traced).values())
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        metrics["cli.frontier_n"] = sum(frontier.values())
        metrics["cli.fail_ratio"] = fail_ratio
        metrics["decoder.bound_violations"] = violations
        shown = metrics
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")

    expected = specs["per_layer" if tracer else "end_to_end"]
    if set(metrics) != set(expected):
        print(f"error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    units = {**printed, **expected}
    for name, value in shown.items():
        print(f"{args.workload:<15} {name:<34} {value:>14.6g} {units[name]}")
    if frontier:
        print(f"# frontier {' '.join(f'{k}={v}' for k, v in frontier.items())}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

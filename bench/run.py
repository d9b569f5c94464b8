"""End-to-end benchmark of the gpkrige CLI, with an optional per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload predict-grid --seed 1 --seconds 25 --trace 0

The benchmark generates its inputs from ``--seed`` (see ``workloads.py``),
imports gpkrige from ``src/`` and calls ``gpkrige.cli.main`` in-process,
one job after another (a closed loop with one client), repeating the
workload's cycle of jobs until ``--seconds`` have passed.  Every job's
output is checked outside the timed window; a job fails when it exits
nonzero, its output does not parse, or the check rejects it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics of the traced
ones (see ``tracing.py``) together with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable table and the machine description.  The full record, including
the per-span table, is written to ``bench/results/``.

BLAS is pinned to one thread before numpy loads: on a 2-core machine two
OpenBLAS threads made the per-target Kriging loop both slower and noisier.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import SMALL_ORDER, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COMMANDS = ("predict", "verify", "study", "variogram")
SETUP_PROBES = 7
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    found[pkg.__name__] = int(fn())
                    break
    return found


def machine():
    def blas_version(config):
        deps = config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("openblas configuration") or deps.get("blas", {}).get("name")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np.show_config),
        "scipy_blas": blas_version(scipy.show_config),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def import_cli():
    if not (SRC / "gpkrige" / "__init__.py").is_file():
        raise BenchError(f"gpkrige sources not found under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    from gpkrige import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported gpkrige from {cli.__file__}, not from the checkout")
    return cli


def run_job(cli, job, tol):
    """Run one CLI job; only the ``main`` call is timed, the check runs after."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    error = None
    try:
        job.check(code, tol)
    except (wl.CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        error = f"{job.command}: {exc} {stderr.getvalue().strip()[-300:]}".strip()
    nbytes = len(stdout.getvalue().encode())
    if job.out_path is not None and job.out_path.exists():
        nbytes += job.out_path.stat().st_size
    return {"command": job.command, "wall": wall, "targets": job.targets,
            "bytes_out": nbytes, "error": error}


def run_cycle(cli, jobs, tol, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        return [run_job(cli, job, tol) for job in jobs]
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure_setup(warmup_jobs, workdir, probes):
    """Times from a fresh interpreter to gpkrige imported and warmed up."""
    jobs_path = workdir / "warmup.json"
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump([job.argv for job in warmup_jobs], fh)
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), str(jobs_path)]
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(cycles, setup_times):
    metrics, samples = {}, {}
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    samples["setup_s"] = len(setup_times)
    jobs = [j for cycle in cycles for j in cycle]
    delivering = [j for j in jobs if j["targets"] > 0]
    metrics["targets_per_s"] = (sum(j["targets"] for j in delivering)
                                / sum(j["wall"] for j in delivering), "targets/s")
    samples["targets_per_s"] = len(delivering)
    for command in COMMANDS:
        # per cycle, the mean over the command's jobs; then the median over cycles
        per_cycle = [statistics.fmean(j["wall"] for j in cycle if j["command"] == command)
                     for cycle in cycles]
        metrics[f"{command}_s_p50"] = (statistics.median(per_cycle), "s")
        samples[f"{command}_s_p50"] = len(per_cycle)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples["peak_rss_mb"] = 1
    return metrics, samples


def per_layer(tracer, traced, untraced):
    groups, (kriging_s, kriging_targets), root_s = tracer.summary()
    k = len(traced)
    n_jobs = sum(len(cycle) for cycle in traced)
    empty = {"self_s": 0.0, "calls": 0, "work": []}

    def g(name):
        return groups.get(name, empty)

    def per_cycle(value):
        return value / k

    factors = g("linalg.factor")["work"]
    full = [order for order, _ in factors if order > SMALL_ORDER]
    solves = g("linalg.solve")["work"]
    solve_calls = g("linalg.solve")["calls"]
    traced_wall = sum(j["wall"] for cycle in traced for j in cycle)
    cycle_wall = [sum(j["wall"] for j in cycle) for cycle in traced]
    base_wall = [sum(j["wall"] for j in cycle) for cycle in untraced]
    m = {
        "kernels.basis.s": (per_cycle(g("kernels.basis")["self_s"]), "s"),
        "kernels.basis.calls": (per_cycle(g("kernels.basis")["calls"]), "count"),
        "kernels.basis.rows": (per_cycle(sum(g("kernels.basis")["work"])), "count"),
        "kernels.mean.calls": (per_cycle(tracer.counts["kernels.mean.calls"]), "count"),
        "kernels.gram.s": (per_cycle(g("kernels.gram")["self_s"]), "s"),
        "kernels.gram.calls": (per_cycle(g("kernels.gram")["calls"]), "count"),
        "kernels.gram.bytes": (per_cycle(8 * sum(g("kernels.gram")["work"])), "B"),
        "kernels.variogram.s": (per_cycle(g("kernels.variogram")["self_s"]), "s"),
        "kernels.variogram.pairs": (per_cycle(sum(g("kernels.variogram")["work"])), "count"),
        "linalg.factor.s": (per_cycle(g("linalg.factor")["self_s"]), "s"),
        "linalg.factor.calls_full": (per_cycle(len(full)), "count"),
        "linalg.factor.calls_small": (per_cycle(len(factors) - len(full)), "count"),
        "linalg.factor.flops": (per_cycle(sum(o ** 3 / 3.0 for o, _ in factors)), "flop"),
        "linalg.factor.jittered": (per_cycle(sum(1 for _, j in factors if j)), "count"),
        "linalg.factor.full_per_job": (len(full) / n_jobs, "ratio"),
        "linalg.saddle.s": (per_cycle(g("linalg.saddle")["self_s"]), "s"),
        "linalg.solve.s": (per_cycle(g("linalg.solve")["self_s"]), "s"),
        "linalg.solve.calls": (per_cycle(solve_calls), "count"),
        "linalg.solve.rhs_per_call": (sum(r for _, r in solves) / max(solve_calls, 1),
                                      "rhs/call"),
        "linalg.solve.flops": (per_cycle(sum(2.0 * n * n * r for n, r in solves)), "flop"),
        "kriging.self.s": (per_cycle(g("kriging.self")["self_s"]), "s"),
        "kriging.s_per_target": (kriging_s / max(kriging_targets, 1), "s"),
        "gpr.self.s": (per_cycle(g("gpr.self")["self_s"]), "s"),
        "gpr.cov_bytes": (per_cycle(sum(g("gpr.self")["work"])), "B"),
        "simulate.sample.s": (per_cycle(g("simulate.sample")["self_s"]), "s"),
        "simulate.sample.n": (per_cycle(sum(g("simulate.sample")["work"])), "count"),
        "simulate.self.s": (per_cycle(g("simulate.self")["self_s"]), "s"),
        "cli.read.s": (per_cycle(g("cli.read")["self_s"]), "s"),
        "cli.self.s": (per_cycle(g("cli.self")["self_s"]), "s"),
        "cli.bytes_out": (per_cycle(sum(j["bytes_out"] for c in traced for j in c)), "B"),
        "trace.overhead_frac": (statistics.median(cycle_wall) / statistics.median(base_wall)
                                - 1.0, "ratio"),
        "trace.unaccounted_frac": ((traced_wall - root_s) / traced_wall, "ratio"),
    }
    table = {name: {"self_s": per_cycle(v["self_s"]), "calls": per_cycle(v["calls"])}
             for name, v in sorted(groups.items())}
    return m, table


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def measure(args, workdir):
    cli = import_cli()
    tol = cli.VERIFY_TOL
    shape = wl.WORKLOADS[args.workload]
    if args.toy:
        shape = wl.toy(shape)
    jobs = wl.build_jobs(shape, args.seed, workdir / "inputs")
    warmup = wl.build_jobs(wl.toy(shape), args.seed, workdir / "warmup")
    setup_times = measure_setup(warmup, workdir, 1 if args.toy else SETUP_PROBES)

    run_cycle(cli, warmup, tol)  # untimed; failures show again in the timed cycles

    min_cycles = MIN_CYCLES + (1 if args.trace else 0)
    tracer = Tracer() if args.trace else None
    traced, untraced = [], []
    start = perf_counter()
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        cycle = run_cycle(cli, jobs, tol, tracer if trace_this else None)
        (traced if trace_this else untraced).append(cycle)
        done = len(traced) + len(untraced)
        elapsed = perf_counter() - start
        if done >= min_cycles and elapsed + 0.5 * elapsed / done >= args.seconds:
            break

    cycles = traced + untraced
    attempted = sum(len(c) for c in cycles)
    errors = [j["error"] for c in cycles for j in c if j["error"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": elapsed, "toy": args.toy,
        "machine": machine(), "shape": shape.__dict__,
        "cycles": len(cycles), "attempted": attempted, "failed": len(errors),
        "fail_frac": len(errors) / attempted, "errors": errors[:20],
        "setup_samples_s": setup_times,
        "cycle_walls_s": [{c: [j["wall"] for j in cycle if j["command"] == c] for c in COMMANDS}
                          for cycle in untraced],
    }
    if args.trace:
        metrics, record["spans_per_cycle"] = per_layer(tracer, traced, untraced)
        samples = {name: len(traced) for name in metrics}
    else:
        metrics, samples = end_to_end(untraced, setup_times)
    record["metrics"] = {name: {"value": v, "unit": u, "samples": samples[name]}
                         for name, (v, u) in metrics.items()}
    return record


def report(record):
    print(f"# gpkrige benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} cycles={record['cycles']} "
          f"measured={record['measured_s']:.1f}s")
    print("# machine: " + json.dumps(record["machine"], sort_keys=True))
    print("# shape: " + json.dumps(record["shape"]))
    if record["trace"]:
        print("# per-cycle counts of flops, bytes and pairs are computed from array shapes")
    width = max(len(name) for name in record["metrics"])
    for name, m in record["metrics"].items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']:<10} n={m['samples']}")
    print(f"{'fail_frac':<{width}}  {record['fail_frac']:>14.6g}  {'ratio':<10} "
          f"n={record['attempted']}")
    for error in record["errors"]:
        print(f"# failed: {error}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="run the cycle at toy size (smoke test)")
    args = parser.parse_args(argv)

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        record = measure(args, workdir)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

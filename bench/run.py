"""bcinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli-jobs,exact-algebra,float-analytic}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; bcinv is imported from ./src.
With --trace 0 it prints the end-to-end metrics (setup_s, ops_per_s,
op_ms, peak_rss_mb); with --trace 1 the per-layer metrics of a separate
traced run and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record, with the machine and library versions, goes to
bench/results/<workload>-seed<N>-trace<T>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("cli-jobs", "exact-algebra", "float-analytic")

# Set-up is sampled this many times per run: the measuring worker plus
# set-up-only workers.  setup_s is their median.
SETUP_SAMPLES = 5
BARE_STARTS = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("BCINV_TOL", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(var, None)
    return env


def spawn_worker(args, seconds: float, deadline: float, report_dir: Path, log,
                 setup_only: bool = False, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--root", str(ROOT),
           "--report-dir", str(report_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned_at = perf_counter()
    # Own process group, so a worker that overruns is stopped with its CLI jobs.
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=log, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} worker ran past the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def bare_interpreter_ms(deadline: float) -> list[float]:
    """Wall time of `python3 -c pass` with the same environment: the floor."""
    samples = []
    for _ in range(BARE_STARTS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                       timeout=max(1.0, deadline - perf_counter()), check=True)
        samples.append((perf_counter() - start) * 1000.0)
    return samples


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def end_to_end(main: dict, setups: list[float]) -> dict:
    op_ms = [s * 1000.0 for s in main["op_s"]]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "p90": p90(setups), "samples": len(setups)},
        "ops_per_s": {"value": main["passed"] / main["loop_s"], "unit": "1/s",
                      "samples": 1},
        "op_ms": {"value": statistics.median(op_ms), "unit": "ms",
                  "p90": p90(op_ms), "samples": len(op_ms)},
        "peak_rss_mb": {"value": main["peak_rss_kb"] / 1024.0, "unit": "MB", "samples": 1},
    }


# Per-layer metrics from the traced worker's aggregates.  Times are self
# times (span duration minus child spans); counts and times are per operation.
def _names(agg, field, names):
    return sum(agg[field].get(n, 0) for n in names)


def _prefixed(agg, field, prefix):
    return sum(v for k, v in agg[field].items() if k.startswith(prefix))


INNER_INVERSE = ("rings.canonical_inner_inverse", "rings.inner_inverses",
                 "rings.normalized_inner_inverse")
FRAME = ("inverses.CornerFrame.make", "inverses.CornerFrame.from_idempotents",
         "inverses.CornerFrame.__post_init__")
LAB_SUITE_FNS = ("lab.verify_equivalence_suite", "lab.verify_set_decomposition",
                 "lab.verify_bott_duffin_section", "lab.verify_reverse_order")

PER_OP_MS = {
    "rings.mul_ms": ("rings.RingValue.__mul__",),
    "rings.inner_inverse_ms": INNER_INVERSE,
    "rings.rank_factorization_ms": ("rings.rank_factorization",),
    "inverses.frame_ms": FRAME,
    "inverses.bc_inverse_ms": ("inverses.bc_inverse",),
    "inverses.verify_ms": ("inverses.verify_bc_inverse",),
    "analytic.bound_ms": ("analytic.perturbation_bound",),
    "analytic.build_H_ms": ("analytic.build_H", "analytic.build_H_right"),
    "analytic.limit_ms": ("analytic.limit_representation",),
    "analytic.series_ms": ("analytic.series_representation",),
    "analytic.choose_beta_ms": ("analytic.choose_beta",),
    "analytic.integral_ms": ("analytic.integral_representation",),
    "lab.table_ms": ("lab.RingTable.__init__",),
    "lab.equivalences_ms": ("lab.verify_equivalence_suite",),
    "lab.sets_ms": ("lab.verify_set_decomposition",),
    "lab.bottduffin_ms": ("lab.verify_bott_duffin_section",),
    "lab.rol_ms": ("lab.verify_reverse_order",),
}
PER_OP_CALLS = {
    "rings.mul_calls": ("rings.RingValue.__mul__",),
    "rings.rank_factorization_calls": ("rings.rank_factorization",),
    "inverses.bc_inverse_calls": ("inverses.bc_inverse",),
    "inverses.verify_calls": ("inverses.verify_bc_inverse",),
    "inverses.group_inverse_calls": ("inverses.group_inverse",),
}
PER_OP_COUNTERS = {
    "rings.elements_enumerated": "rings.elements",
    "rings.svd_calls": "numpy.svd",
    "rings.spectral_norm_calls": "numpy.norm2",
}


def per_layer(traced: dict, untraced: dict, interp_ms: list[float]) -> dict:
    agg = traced["trace"]
    ops = max(agg["ops"], 1)
    cli_jobs = traced.get("jobs")
    if cli_jobs:
        import_ms = statistics.fmean(cli_jobs["import_s"]) * 1000.0
        modules = statistics.fmean(cli_jobs["modules_loaded"])
        scipy_share = statistics.fmean(cli_jobs["scipy_loaded"])
    else:
        import_ms = traced["import_s"] * 1000.0
        modules = traced["modules_loaded"]
        scipy_share = 1.0 if traced["scipy_loaded"] else 0.0
    traced_ms = statistics.median(traced["op_s"]) * 1000.0
    untraced_ms = statistics.median(untraced["op_s"]) * 1000.0
    bound_calls = agg["calls"].get("analytic.perturbation_bound", 0)
    suite_s = _names(agg, "incl_s", LAB_SUITE_FNS)
    values = {
        "cli.interp_ms": (statistics.median(interp_ms), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.modules_loaded": (modules, "count"),
        "cli.scipy_jobs": (scipy_share, "share"),
        "cli.parse_ms": (agg["phase_s"].get("parse", 0.0) * 1000.0 / ops, "ms"),
        "cli.run_ms": (agg["phase_s"].get("run", 0.0) * 1000.0 / ops, "ms"),
        "cli.serialize_ms": (agg["phase_s"].get("serialize", 0.0) * 1000.0 / ops, "ms"),
        "exactla.calls": (_prefixed(agg, "calls", "_exactla.") / ops, "count"),
        "exactla.ms": (_prefixed(agg, "self_s", "_exactla.") * 1000.0 / ops, "ms"),
        "analytic.bc_inverse_per_bound": (
            agg["counters"].get("inverses.bc_inverse@analytic.perturbation_bound", 0)
            / bound_calls if bound_calls else 0.0, "count"),
        "lab.tuples_per_s": (agg["counters"].get("lab.tuples", 0) / suite_s if suite_s else 0.0,
                             "1/s"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        "trace.overhead_pct": (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%"),
    }
    for name, fns in PER_OP_MS.items():
        values[name] = (_names(agg, "self_s", fns) * 1000.0 / ops, "ms")
    for name, fns in PER_OP_CALLS.items():
        values[name] = (_names(agg, "calls", fns) / ops, "count")
    for name, key in PER_OP_COUNTERS.items():
        values[name] = (agg["counters"].get(key, 0) / ops, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(values.items())}


def environment() -> dict:
    from importlib import metadata

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"machine": platform.machine(), "processor": platform.processor(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "blas": blas, "blas_threads_per_process": 1, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": version("scipy")}


def run(args) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_dir = RESULTS / f"tmp-{stem}-{os.getpid()}"
    report_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        with open(RESULTS / f"{stem}.log", "w", encoding="utf-8") as log:
            if args.trace:
                half = args.seconds / 2.0
                untraced = spawn_worker(args, half, deadline, report_dir, log)
                traced = spawn_worker(args, half, deadline, report_dir, log,
                                      trace_out=RESULTS / f"spans-{stem}.json")
                interp = bare_interpreter_ms(deadline)
                metrics = per_layer(traced, untraced, interp)
                runs = [untraced, traced]
                record["traced_op_ms"] = statistics.median(traced["op_s"]) * 1000.0
            else:
                main = spawn_worker(args, args.seconds, deadline, report_dir, log)
                setups = [main["setup_s"]] + [
                    spawn_worker(args, args.seconds, deadline, report_dir, log,
                                 setup_only=True)["setup_s"]
                    for _ in range(SETUP_SAMPLES - 1)]
                metrics = end_to_end(main, setups)
                runs = [main]
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)
    from selftest import self_test

    selftest_failures = self_test()
    unexpected = [u for r in runs for u in r["unexpected"]]
    warmup = [w for r in runs for w in r["warmup_failures"]]
    record.update({
        "environment": environment(),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failed_known": [r["failed_known"] for r in runs],
        "unexpected": unexpected,
        "warmup_failures": warmup,
        "selftest_failures": selftest_failures,
        "rounds": [r["rounds"] for r in runs],
        "ops_per_round": runs[0]["ops_per_round"],
        "by_kind_ms": {k: v * 1000.0 for k, v in runs[-1]["by_kind_s"].items()},
        "metrics": metrics,
    })
    record["correct"] = not (unexpected or warmup or selftest_failures)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {record['rounds']} x {record['ops_per_round']} operations")
    for name, m in record["metrics"].items():
        line = f"  {name:<32} {m['value']:>14.6g} {m['unit']}"
        if "p90" in m:
            line += f"   (median; p90 {m['p90']:.6g}, {m['samples']} samples)"
        print(line)
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"known faults {record['failed_known']}  unexpected {len(record['unexpected'])}")
    if record["selftest_failures"]:
        print(f"  oracle self-test failed: {record['selftest_failures']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bcinv" / "__init__.py").is_file():
        print(f"bench: no bcinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc} (log in {RESULTS})", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

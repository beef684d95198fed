"""One workload in one fresh process: set up, warm up, then timed rounds.

Run by ``run.py``; not meant to be started by hand.  The process is a
single closed-loop client: it starts the next operation only when the
previous one has returned.  Set-up (importing bcinv, generating the seeded
inputs, the untimed warm-up) ends when the first timed operation is about
to start; the worker reports it against the spawn time the parent passes
in (``time.perf_counter`` is CLOCK_MONOTONIC, shared by all processes on
Linux).  Then it runs whole rounds until the timed loop has lasted
``--seconds``, checking each round's answers untimed after the round, and
prints one JSON line with the raw figures.
"""

from __future__ import annotations

import sys
from time import perf_counter

IN_PROCESS = ("exact-algebra", "float-analytic")

# A run must end within 180 s; no round is started after this much loop time.
LOOP_WALL_LIMIT_S = 120.0


def _import_bcinv() -> tuple[float, int]:
    before = len(sys.modules)
    start = perf_counter()
    import bcinv  # noqa: F401

    return perf_counter() - start, len(sys.modules) - before


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--report-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="record spans and write them here")
    args = parser.parse_args(argv)

    import_s = modules_loaded = None
    if args.workload in IN_PROCESS:
        import_s, modules_loaded = _import_bcinv()

    import json
    import resource
    import warnings
    from pathlib import Path

    import workloads

    # The Q fault overflows int64 numerators; numpy warns on every step.
    warnings.simplefilter("ignore")
    traced = args.trace_out is not None
    workload = workloads.build(args.workload, args.seed, Path(args.root),
                               Path(args.report_dir), traced)
    warmup_failures = [op.kind for op in workload.warmup if not _passes(op)]
    setup_s = perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_failures": warmup_failures}))
        return 0

    tracer = None
    if traced and workload.in_process:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = _JobTraces() if traced and not workload.in_process else None

    result = _timed_rounds(workload, args.seconds, tracer, jobs)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result.update({
        "setup_s": setup_s,
        "warmup_failures": warmup_failures,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "import_s": import_s,
        "modules_loaded": modules_loaded,
        "scipy_loaded": "scipy" in sys.modules,
    })
    if tracer is not None:
        result["trace"] = tracer.aggregates()
        spans = tracer.span_records()
    elif jobs is not None:
        result["trace"] = jobs.aggregates
        result["jobs"] = jobs.summary()
        spans = jobs.spans
    if traced:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "aggregates": result["trace"], "spans": spans}, handle)
    print(json.dumps(result))
    return 0


def _outcome(op) -> tuple[object, BaseException | None]:
    try:
        return op.run(), None
    except Exception as exc:        # the program's failure is the outcome
        return None, exc


def _checked(op, out, err) -> bool:
    try:
        return bool(op.check(out, err))
    except Exception:               # a malformed answer fails its check
        return False


def _passes(op) -> bool:
    return _checked(op, *_outcome(op))


def _timed_rounds(workload, seconds: float, tracer, jobs) -> dict:
    from collections import Counter, defaultdict

    ops = workload.ops
    durations: list[float] = []
    by_kind: defaultdict = defaultdict(list)
    passed = failed = rounds = 0
    known: Counter = Counter()
    unexpected: list[dict] = []
    loop_s = 0.0
    tuples = 0
    while True:
        outcomes = []
        round_start = perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            start = perf_counter()
            out, err = _outcome(op)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            outcomes.append((out, err))
            durations.append(elapsed)
            by_kind[op.kind].append(elapsed)
        loop_s += perf_counter() - round_start
        rounds += 1
        for op, (out, err) in zip(ops, outcomes):
            ok = _checked(op, out, err)
            tuples += op.tuples
            if jobs is not None:
                jobs.collect(op)
            if ok:
                passed += 1
                continue
            failed += 1
            if op.known_fault:
                known[op.known_fault] += 1
            elif len(unexpected) < 20:
                unexpected.append({"kind": op.kind, "error": repr(err)})
        if loop_s >= seconds or loop_s >= LOOP_WALL_LIMIT_S:
            break
    if tracer is not None:
        tracer.counters["lab.tuples"] += tuples
    elif jobs is not None:
        jobs.aggregates["counters"]["lab.tuples"] = tuples
    return {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "passed": passed,
        "failed": failed,
        "failed_known": dict(known),
        "unexpected": unexpected,
        "loop_s": loop_s,
        "op_s": durations,
        "by_kind_s": {kind: sorted(v)[len(v) // 2] for kind, v in sorted(by_kind.items())},
    }


class _JobTraces:
    """Merges the span files that traced CLI jobs write, one per job."""

    SPAN_CAP = 200_000

    def __init__(self):
        self.aggregates = {"ops": 0, "calls": {}, "incl_s": {}, "self_s": {},
                           "phase_s": {}, "counters": {}, "spans_kept": 0, "spans_dropped": 0}
        self.import_s: list[float] = []
        self.modules: list[int] = []
        self.scipy: list[bool] = []
        self.spans: list[dict] = []

    def collect(self, op) -> None:
        import json

        if op.trace_file is None or not op.trace_file.is_file():
            return
        data = json.loads(op.trace_file.read_text())
        op.trace_file.unlink()
        self.import_s.append(data["import_s"])
        self.modules.append(data["modules_loaded"])
        self.scipy.append(data["scipy_loaded"])
        agg = self.aggregates
        agg["ops"] += 1
        for field in ("calls", "incl_s", "self_s", "phase_s", "counters"):
            for key, value in data["aggregates"][field].items():
                agg[field][key] = agg[field].get(key, 0) + value
        agg["spans_dropped"] += data["aggregates"]["spans_dropped"]
        job = agg["ops"]
        for span in data["spans"]:
            if len(self.spans) >= self.SPAN_CAP:
                agg["spans_dropped"] += 1
                continue
            span["op"] = job
            self.spans.append(span)
        agg["spans_kept"] = len(self.spans)

    def summary(self) -> dict:
        return {"import_s": self.import_s, "modules_loaded": self.modules,
                "scipy_loaded": self.scipy}


if __name__ == "__main__":
    sys.exit(main())

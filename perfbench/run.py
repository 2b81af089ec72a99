"""Closed-loop benchmark of deformcs: one client, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lax_flow --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck            # every workload at tiny size
    python3 perfbench/run.py --record-reference     # rewrite reference.json

Each op calls the package from outside, through ``deformcs.cli.main`` or a
public residual function, on inputs generated from ``--seed``
(``workloads.py``).  Every op goes through the correctness gate
(``gate.py``).  ``--trace 0`` reports the end-to-end metrics of one
workload; ``--trace 1`` runs all four workloads, alternating untraced and
traced rounds, and reports every per-layer metric (``tracing.py``).  The
end-to-end times are CPU seconds at a fixed reference host speed (see
``host_calibration``); the wall-clock values are in the details.  The last line of standard output is
the result object; the line before it holds the details (seeds, tail
percentile, environment), which also go to ``.perfbench_run/``.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, here and in every child process.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import copy
import gzip
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path("src")
RUN_DIR = Path(".perfbench_run")
WORK = RUN_DIR / "work"
SETUP_REPEATS = 9       # timed set-ups, spread over the measured rounds
TAIL_BEYOND = 10        # ops required beyond the reported tail percentile
# host_calibration() on the shared 2-core Xeon VM where the benchmark was defined;
# times are reported in seconds at the speed where it takes this long.
CALIBRATION_REFERENCE_S = 0.004


def _load_program():
    """Put the checkout's sources first on the path; fail if there are none."""
    if not (SRC / "deformcs" / "cli.py").is_file():
        sys.exit(f"perfbench: no deformcs sources under {SRC.resolve()}; "
                 "run from the root of a deformcs checkout")
    sys.path.insert(0, str(SRC.resolve()))
    os.environ["PYTHONPATH"] = str(SRC.resolve())


class Stats:
    """Latencies, units and gate outcomes of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []    # wall seconds, measured rounds only
        self.scaled: list[float] = []       # CPU seconds at the reference host speed
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op, seconds: float, scaled: float, problems: list[str], measured: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.id}: {'; '.join(problems)}")
        if measured:
            self.latencies.append(seconds)
            self.scaled.append(scaled)
            if not problems:
                self.units += op.units


class Bench:
    def __init__(self, seed: int, scale: str):
        from deformcs import cli, dda_registry, discrete_flows

        import gate
        import tracing
        import workloads
        self.cli, self.gate, self.tracing, self.workloads = cli, gate, tracing, workloads
        self.modules = {"dda_registry": dda_registry, "discrete_flows": discrete_flows}
        self.seed, self.scale = seed, scale

    def setup(self, workload: str) -> list:
        ops = self.workloads.generate(workload, self.seed, WORK, self.scale)
        self.workloads.validate(ops)
        return ops

    def prepare(self, workload: str, ops: list):
        """Untimed: oracle norms for direct calls and the recorded reference, if any."""
        for op in ops:
            if op.call:
                op.expect_norms = self.gate.expected_norms(op)
        if self.scale != "full":
            return None
        return self.gate.load_reference(self.seed, workload)

    def fresh_inputs(self, op):
        """Untimed, before every op: no output or argument object survives from an earlier round.

        The previous report and CSVs are deleted, so the gate reads only what
        this call wrote; direct calls get copies of their arguments, equal in
        value but new objects.
        """
        if op.argv:
            shutil.rmtree(op.out, ignore_errors=True)
            return None
        return copy.deepcopy(op.call[2])

    def execute(self, op, args):
        if op.argv:
            return self.cli.main(op.argv)
        module, function, _ = op.call
        return getattr(self.modules[module], function)(*args)

    def round(self, ops, stats: Stats, reference, measured: bool,
              tracer=None) -> tuple[float, list[float]]:
        """Run every op once, closed loop; returns (summed op latency, calibration seconds).

        An op's latency is its CPU time, scaled by the mean of the two
        calibration loops bracketing it (``host_speed``): the loop runs
        before the first op and right after each op.
        """
        calibrations = [host_calibration()]
        busy = 0.0
        for op in ops:
            if tracer is not None:
                tracer.trace_id += 1
            args = self.fresh_inputs(op)
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = self.execute(op, args)
                problems = None
            except (Exception, SystemExit) as exc:   # a crash is a failed op, not a dead run
                result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            calibrations.append(host_calibration())
            scaled = cpu * host_speed(calibrations[-2:])
            busy += scaled
            if problems is None:
                problems = self.gate.check(op, result, reference)
            stats.add(op, seconds, scaled, problems, measured)
        return busy, calibrations


def host_calibration() -> float:
    """CPU seconds a fixed loop takes now (about 3 ms).

    The loop mixes interpreter work and small numpy calls as the ops do, and
    shares no code with deformcs, so only the host's speed can move it.  The
    host is shared: it switches between speed states within a second, which
    moves an op's CPU time by up to 2x, and it stops the process for tens of
    milliseconds at a time, which CPU time leaves out but wall time does not.
    So ops are timed in CPU seconds and every op is bracketed by this loop;
    see ``host_speed``.
    """
    import numpy as np
    m = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
    y, acc = np.array([0.1, 0.2, 0.3]), 0.0
    t0 = time.process_time()
    for _ in range(1000):
        y = m @ y + 1e-3
        d = {"a": float(y[0]), "b": float(y[1])}
        acc += d["a"] * d["b"] - acc * 1e-3
    return time.process_time() - t0


def host_speed(calibrations: list[float]) -> float:
    """Factor taking CPU times to the reference host speed.

    CALIBRATION_REFERENCE_S over the mean of the calibration loops taken
    around the timed work: the two bracketing one op for its latency, all of
    a run's for its set-up and per-layer times.
    """
    return CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)


IMPORT_TIMER = ("import time; t0, cpu0 = time.perf_counter(), time.process_time(); "
                "import deformcs.cli; "
                "print(time.perf_counter() - t0, time.process_time() - cpu0)")


def timed_setup(bench: Bench, workload: str) -> tuple[float, float]:
    """Seconds for a fresh process to import deformcs.cli, plus generating and validating inputs.

    The import is timed inside the child, so process start-up and exit,
    which deformcs cannot change, stay out of the figure.  Returns the wall
    seconds and the CPU seconds at the reference host speed, from
    calibration loops bracketing the set-up.
    """
    before = host_calibration()
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], check=True,
                           capture_output=True, text=True)
    wall, cpu = (float(v) for v in child.stdout.split())
    t0, cpu0 = time.perf_counter(), time.process_time()
    bench.setup(workload)
    wall += time.perf_counter() - t0
    cpu += time.process_time() - cpu0
    return wall, cpu * host_speed([before, host_calibration()])


def _tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with TAIL_BEYOND ops beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, workload: str, seconds: float) -> tuple[dict, dict, Stats]:
    # The first set-up is untimed: it screens the inputs (workloads.py keeps
    # the outcome), which is the benchmark's own work.
    ops = bench.setup(workload)
    reference = bench.prepare(workload, ops)

    stats = Stats()
    bench.round(ops, stats, reference, measured=False)        # warm-up
    # The timed set-ups are spread over the measured rounds, one before the
    # first round past each SETUP_REPEATS-th of the time, so they see the same
    # mix of host states as the rounds; each is scaled by its own calibration.
    # Wall time spent in set-ups does not count against the measuring time.
    setup_times, calibrations = [], []
    start, in_setup = time.perf_counter(), 0.0
    while not calibrations or time.perf_counter() - start - in_setup < seconds:
        if len(setup_times) * seconds <= SETUP_REPEATS * (time.perf_counter() - start - in_setup):
            t0 = time.perf_counter()
            setup_times.append(timed_setup(bench, workload))
            in_setup += time.perf_counter() - t0
        calibrations.append(bench.round(ops, stats, reference, measured=True)[1])
    rounds = len(calibrations)
    calibrations = [c for per_round in calibrations for c in per_round]
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(bench, workload))
    speed = host_speed(calibrations)

    wall, scaled = stats.latencies, stats.scaled
    tail, pct = _tail(scaled)
    wall_metrics = {"units_per_s": stats.units / sum(wall),
                    "op_ms_p50": 1e3 * statistics.median(wall),
                    "op_ms_tail": 1e3 * _tail(wall)[0],
                    "setup_s": statistics.median(w for w, _ in setup_times)}
    metrics = {
        "units_per_s": _metric(stats.units / sum(scaled), "units/s"),
        "op_ms_p50": _metric(1e3 * statistics.median(scaled), "ms"),
        "op_ms_tail": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_op_ratio": _metric((stats.attempted - stats.failed) / stats.attempted, "ratio"),
        "setup_s": _metric(statistics.median(scaled for _, scaled in setup_times), "s"),
    }
    detail = {"ops_per_round": len(ops), "rounds": rounds, "ops_measured": len(wall),
              "setup_s_each": [w for w, _ in setup_times],
              "tail_percentile": pct, "units_per_op_kind": {op.id: op.units for op in ops},
              "reference_checked": reference is not None,
              "failed_op_ratio": stats.failed / stats.attempted,
              "host_speed": speed, "calibration_s": [min(calibrations), max(calibrations)],
              "wall_clock": wall_metrics}
    return metrics, detail, stats


def traced(bench: Bench, seconds: float) -> tuple[dict, dict, Stats]:
    """Per-layer metrics of all four workloads, each given a quarter of the time."""
    tracing = bench.tracing
    stats = Stats()
    tracer = tracing.Tracer()
    owner: dict[int, tuple[str, str]] = {}
    values, detail = {}, {}
    for workload in tracing.ALL:
        ops = bench.setup(workload)
        reference = bench.prepare(workload, ops)
        bench.round(ops, stats, reference, measured=False)    # warm-up
        plain, timed, calibrations, per_round = [], [], [], []
        deadline = time.perf_counter() + seconds / len(tracing.ALL)
        while not timed or time.perf_counter() < deadline:
            busy, loops = bench.round(ops, stats, reference, measured=False)
            plain.append(busy)
            calibrations.extend(loops)
            first_id, first_span = tracer.trace_id + 1, len(tracer.spans)
            with tracer.installed():
                busy, loops = bench.round(ops, stats, reference, measured=False, tracer=tracer)
            timed.append(busy)
            calibrations.extend(loops)
            for k, op in enumerate(ops):
                owner[first_id + k] = (workload, op.id)
            per_round.append({**tracing.layer_metrics(tracer.spans, first_span,
                                                      sum(op.units for op in ops)),
                              **tracing.csv_output(ops)})
        rounds = len(per_round)
        speed = host_speed(calibrations)
        mine = [m for m in tracing.PER_LAYER if workload in m[3]]
        for metric, unit, *_ in mine:
            if unit in ("count", "bytes"):
                values[f"{metric}.{workload}"] = per_round[0][metric]
            elif unit == "s":
                values[f"{metric}.{workload}"] = speed * statistics.median(r[metric] for r in per_round)
            elif metric != "trace.overhead_ratio":
                values[f"{metric}.{workload}"] = statistics.median(r[metric] for r in per_round)
        values[f"trace.overhead_ratio.{workload}"] = statistics.median(timed) / statistics.median(plain)
        repeat = all(r[m] == per_round[0][m] for r in per_round for m in tracing.COUNTS)
        detail[workload] = {"traced_rounds": rounds, "counts_repeat_across_rounds": repeat,
                            "host_speed": speed}
        if not repeat:
            stats.problems.append(f"{workload}: per-round counts differ between traced rounds")
            stats.failed += 1
    shares_ids = {tid for tid, (w, op) in owner.items() if (w, op) == ("lax_flow", "L2a_3x3/stride1")}
    detail["lax_flow_L2a_3x3_stride1_shares"] = tracing.roadmap_shares(tracer.spans, shares_ids)
    detail["spans_file"] = str(_write_spans(bench.seed, tracer, owner))
    units = {name: unit for name, unit, *_ in tracing.per_layer_names()}
    return {k: _metric(v, units[k]) for k, v in values.items()}, detail, stats


def _write_spans(seed: int, tracer, owner) -> Path:
    path = RUN_DIR / f"spans-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"trace_ids": {str(k): v for k, v in owner.items()},
                             "fields": ["name", "start_ns", "end_ns", "parent", "trace_id", "attrs"]}))
        fh.write("\n")
        for span in tracer.spans:
            fh.write(json.dumps(span))
            fh.write("\n")
    return path


def environment() -> dict:
    """Machine facts, read from sysfs and procfs without changing anything."""
    import numpy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size + " per core" if level in ("1", "2") else size
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS,
            "host": "shared with other tenants; timings carry their load"}


def selfcheck() -> int:
    """Every workload and the gate at tiny sizes, plus a traced pass; exit 0 if sound."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bench = Bench(0, "tiny")
    ok = True
    for workload in bench.workloads.WORKLOADS:
        metrics, _, stats = end_to_end(bench, workload, 0.2)
        missing = {m["name"] for m in spec["end_to_end"]} ^ set(metrics)
        good = stats.failed == 0 and not missing
        ok &= good
        print(f"selfcheck {workload}: {'ok' if good else 'FAILED'} "
              f"({stats.attempted} ops, {stats.problems or missing or 'no problems'})")
    metrics, detail, stats = traced(bench, 0.4)
    missing = {m["name"] for m in spec["per_layer"]} ^ set(metrics)
    good = stats.failed == 0 and not missing
    ok &= good
    print(f"selfcheck trace: {'ok' if good else 'FAILED'} "
          f"({stats.problems or sorted(missing) or 'all per-layer metrics reported'})")
    # The recorded reference must still describe what the generators produce.
    full = Bench(0, "full")
    recorded = json.loads(full.gate.REFERENCE_FILE.read_text())["seeds"]["0"]
    for workload in full.workloads.WORKLOADS:
        ops = full.setup(workload)
        same = [op.id for op in ops] == list(recorded[workload]) and all(
            recorded[workload][op.id]["report"]["config"] == json.loads(Path(op.argv[1]).read_text())
            for op in ops if op.argv)
        ok &= same
        print(f"selfcheck reference {workload}: {'ok' if same else 'FAILED: generator drifted'}")
    return 0 if ok else 1


def record_reference() -> int:
    seeds = {}
    for seed in (0, 1):
        bench = Bench(seed, "full")
        gate = bench.gate
        seeds[str(seed)] = {}
        for workload in bench.workloads.WORKLOADS:
            ops = bench.setup(workload)
            bench.prepare(workload, ops)
            kept = {}
            for op in ops:
                result = bench.execute(op, bench.fresh_inputs(op))
                problems = gate.check(op, result, None)
                if problems:
                    print(f"seed {seed} {op.id}: {problems}", file=sys.stderr)
                    return 1
                kept[op.id] = gate.record(op, result)
            seeds[str(seed)][workload] = kept
    doc = {"about": "outputs of one round per workload at full size, recorded at the "
                    "seed commit; gate.py compares runs on these seeds against them",
           "seeds": seeds}
    gate.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {gate.REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("lax_flow", "lattice_map",
                                               "scalar_reduction", "residual_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    _load_program()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        bench = Bench(args.seed, "full")
        if args.trace:
            metrics, detail, stats = traced(bench, args.seconds)
        else:
            metrics, detail, stats = end_to_end(bench, args.workload, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    detail.update({"workload": list(bench.tracing.ALL) if args.trace else args.workload,
                   "seed": args.seed,
                   "default_seed": bench.gate.DEFAULT_SEED,
                   "held_out_seed": bench.gate.HELD_OUT_SEED,
                   "trace": args.trace, "seconds": args.seconds,
                   "tolerances": bench.gate.TOLERANCES, "problems": stats.problems,
                   "environment": environment()})
    if args.trace:
        detail["per_layer_moves"] = {name: moves for name, _, _, moves
                                     in bench.tracing.per_layer_names()}
    result = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    name = "traced" if args.trace else args.workload
    out = RUN_DIR / f"result-{name}-seed{args.seed}.json"
    out.write_text(json.dumps({"detail": detail, **result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

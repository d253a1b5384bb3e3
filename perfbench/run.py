"""Benchmark of the akltmqc pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload

One process drives ``akltmqc.cli.main`` in a closed loop, one call after
another: a fixed number of checked cycles, then repeats of them until
``--seconds`` have passed (see ``measure``).
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every cycle
twice, untraced and then traced with spans around the layer boundaries,
prints the per-layer metrics and the tracing overhead, and writes the spans
to ``perfbench/out/``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json``. The program is imported from
``src/`` of the checkout this file sits in, never from an installed copy.
"""

import os
import sys
import time

T0 = time.perf_counter()

# Fix the BLAS pool before numpy loads; jobs stay at 1 everywhere.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import RETRIES_EXHAUSTED, WORKLOADS, Op, RoutingScale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 900
# The calibration loop's length, how often it runs during untraced
# operations, and its median wall time on the reference machine (2 cores,
# Python 3.11; see METRICS.md).
CAL_ITERS = 50_000
CAL_PERIOD_S = 0.25
CAL_REF_S = 0.0039


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


@dataclass
class Record:
    op: Op
    seconds: float
    failure: str | None
    attempts: int | None
    key: tuple[int, int] = (0, 0)  # (checked cycle, position in it)


# -- program and machine ---------------------------------------------------------


def import_program():
    package = SRC / "akltmqc"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no akltmqc sources at {package}")
    sys.path.insert(0, str(SRC))
    import akltmqc.cli  # noqa: F401

    loaded = Path(sys.modules["akltmqc"].__file__).resolve().parent
    if loaded != package.resolve():
        raise BenchError(f"akltmqc imported from {loaded}, not {package}")


def git_commit() -> str | None:
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


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_stamp() -> dict:
    import numpy
    from akltmqc import router

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "spanning_backend": getattr(router, "SPANNING_BACKEND", "none"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the closed loop -------------------------------------------------------------


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that never touches akltmqc.
    Its working set is a few small objects, so the program's own memory
    use hardly touches its time."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERS):
        total += i * i
    return time.perf_counter() - start


class Calibrator:
    """Samples the machine's speed while the untraced operations run.

    The shared host's speed drifts by up to 50% over seconds, and the
    calibration loop drifts with it. While ``on``, a SIGALRM handler times
    the loop every CAL_PERIOD_S of wall time, in the middle of whatever
    operation is running, so the samples cover a run evenly in time. The
    handler's own time is taken out of the operations' times.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def on(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def run_op(
    op: Op, digests: dict, key: tuple[int, int], cal: Calibrator | None = None
) -> Record:
    """Call the CLI once; repeated (argv) calls must give identical bytes.
    Time spent in ``cal``'s handler does not count."""
    import akltmqc.cli as cli

    out, err = io.StringIO(), io.StringIO()
    spent = cal.spent if cal else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is None:
                rc, text = 0, json.dumps(cli.check_end_to_end())
            else:
                rc = cli.main(list(op.argv))
                text = out.getvalue() if rc == 0 else err.getvalue()
    except Exception:  # noqa: BLE001 - record the failure, keep measuring
        seconds = time.perf_counter() - start - _spent_since(cal, spent)
        traceback.print_exc()
        return Record(op, seconds, "exception", None, key)
    seconds = time.perf_counter() - start - _spent_since(cal, spent)
    digest = hashlib.sha256(text.encode()).hexdigest()
    failure, attempts = op.check(rc, text)
    if op.argv is not None and digests.setdefault(op.argv, digest) != digest:
        failure = "digest-mismatch"
    return Record(op, seconds, failure, attempts, key)


def _spent_since(cal: Calibrator | None, spent: float) -> float:
    return cal.spent - spent if cal else 0.0


def measure(workload, seconds: float, tracer: Tracer | None):
    """Run the checked cycles, then repeat them until ``seconds`` have passed.

    The checked cycles 0 .. n - 1, n = ``workload.checked_cycles(seconds)``,
    are the operations a run attempts. Their number depends on ``seconds``
    alone, never on the machine's speed, so one seed always gives the same
    attempted and failed counts. Cycle 0 ends with a repeat of its first op.
    Once the checked cycles are done, whole cycles are repeated from cycle 0
    on until ``seconds`` have passed; every repeat must give the artifact of
    the first run, byte for byte. With a tracer every cycle runs twice,
    untraced then traced; the calibrator runs during untraced ones only.
    Returns the untraced records, the traced ones, the number of cycles run
    and the calibrator.
    """
    cal = Calibrator()
    digests: dict = {}
    plain: list[Record] = []
    traced: list[Record] = []
    n = workload.checked_cycles(seconds)
    start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - start < seconds:
        ops = list(enumerate(workload.cycle(k % n)))
        if k == 0:
            ops.append(ops[0])
        with cal.on():
            for i, op in ops:
                plain.append(run_op(op, digests, (k % n, i), cal))
        if tracer is not None:
            tracer.install()
            try:
                for i, op in ops:
                    tracer.cell = op.cell
                    with tracer.span("bench.op", {"cell": op.cell}):
                        traced.append(run_op(op, digests, (k % n, i)))
            finally:
                tracer.uninstall()
        k += 1
    return plain, traced, k, cal


def distinct(records: list[Record]) -> list[Record]:
    """One record per checked operation: the first failed run of it, else
    its first run."""
    out: dict[tuple[int, int], Record] = {}
    for r in records:
        if r.key not in out or (r.failure and not out[r.key].failure):
            out[r.key] = r
    return list(out.values())


def cell_table(records: list[Record]) -> dict[str, dict]:
    """Per cell: checked ops, completed ones and their stage-1 attempts, and
    the seconds of every run, repeats included."""
    cells: dict[str, dict] = {}
    for r in records:
        cells.setdefault(
            r.op.cell, {"ops": 0, "completed": 0, "attempts": 0, "seconds": []}
        )["seconds"].append(r.seconds)
    for r in distinct(records):
        c = cells[r.op.cell]
        c["ops"] += 1
        c["completed"] += r.failure is None
        c["attempts"] += r.attempts or 0
    return cells


def op_seconds(records) -> float:
    """Wall seconds per unit of work, as measured."""
    return sum(r.seconds for r in records) / sum(r.op.units for r in records)


def end_to_end(records, cal: Calibrator, setup_s, setup_cal_s) -> dict:
    """Both times are rescaled to the reference machine's speed."""
    return {
        "setup_s": setup_s * CAL_REF_S / setup_cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ref_s": op_seconds(records) * CAL_REF_S / cal.mean(),
    }


def per_layer(tracer, traced, plain, cycles) -> dict[str, float]:
    values = tracer.per_layer(cycles)
    cells = cell_table(traced)
    for name, c in cells.items():
        if c["attempts"]:
            values[f"logic.attempts_per_run.{name}"] = c["attempts"] / c["ops"]
            values[f"logic.success_frac.{name}"] = c["completed"] / c["attempts"]
    routing = [cells[n] for n in RoutingScale.cells() if n in cells]
    attempts = sum(c["attempts"] for c in routing)
    if attempts:
        values["logic.embed_success_frac"] = (
            sum(c["completed"] for c in routing) / attempts
        )
    values["trace.overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    )
    return values


# -- reporting -------------------------------------------------------------------


def select(spec_metrics: list[dict], values: dict) -> dict:
    """Exactly the declared metrics, each with its declared unit; a metric
    the workload never touched reads 0."""
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec_metrics
    }


def print_report(name, args, stamp, records, figures, metrics, tracer):
    checked = distinct(records)
    failures = {}
    for r in checked:
        if r.failure:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(stamp, sort_keys=True))
    print(f"ops attempted {len(checked)}  runs {len(records)}  failed "
          f"{sum(failures.values())} {json.dumps(failures, sort_keys=True)}")
    for key, (value, unit) in figures.items():
        print(f"  {key:<44} {value:.6g} {unit}")
    for key, m in metrics.items():
        if m["value"]:
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    print("cells (ops, completed, attempts, median s, max s)")
    for cell, c in cell_table(records).items():
        print(f"  {cell:<16} {c['ops']:5d} {c['completed']:5d} "
              f"{c['attempts']:6d} {statistics.median(c['seconds']):9.4f} "
              f"{max(c['seconds']):9.4f}")
    if tracer is None:
        return
    print("spans (calls, total s, self s)")
    for span, (calls, total, own) in sorted(
        tracer.self_times().items(), key=lambda kv: -kv[1][2]
    ):
        print(f"  {span:<34} {calls:8d} {total:10.4f} {own:10.4f}")
    for cell, hist in sorted(tracer.cell_failures.items()):
        print(f"failures {cell}: {json.dumps(dict(hist), sort_keys=True)}")


def setup_probe(name: str, seed: int) -> float:
    """Import plus input generation, timed from the first line of run.py."""
    import_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        WORKLOADS[name](seed, Path(work))
        return time.perf_counter() - T0


def more_setups(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, and calibration samples timed
    before, between and after them."""
    out, cals = [], []
    for _ in range(SETUP_REPEATS - 1):
        cals.extend(calibrate() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError("setup probe failed: " + proc.stderr[-500:])
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    cals.extend(calibrate() for _ in range(3))
    return out, cals


def run_workload(args) -> dict:
    spec = benchmark_spec()
    import_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        workload = WORKLOADS[args.workload](args.seed, Path(work))
        setup_s = time.perf_counter() - T0
        tracer = Tracer() if args.trace else None
        plain, traced, cycles, cal = measure(workload, args.seconds, tracer)
    setups, setup_cals = more_setups(args)
    setups.append(setup_s)
    records = plain + traced
    figures = {
        "op_s": (op_seconds(plain), "s"),
        "cal_ms": (1e3 * cal.mean(), "ms"),
        "cal_samples": (len(cal.samples), "count"),
        "setup_raw_s": (statistics.median(setups), "s"),
        "setup_cal_ms": (1e3 * statistics.median(setup_cals), "ms"),
        **workload.figures(plain),
    }
    if tracer is None:
        values = end_to_end(
            plain, cal, statistics.median(setups), statistics.median(setup_cals)
        )
        metrics = select(spec["end_to_end"], values)
    else:
        metrics = select(
            spec["per_layer"], per_layer(tracer, traced, plain, cycles)
        )
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print_report(args.workload, args, machine_stamp(), records, figures,
                 metrics, tracer)
    checked = distinct(records)
    failed = [r for r in checked if r.failure]
    return {
        "correct": all(r.failure in (None, RETRIES_EXHAUSTED) for r in checked),
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    import_program()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
        print(f"== {name}: failed {result['failed']}/{result['attempted']}, "
              f"correct {result['correct']}")
        print()
    return total


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_probe and not args.workload:
        ap.error("--setup-probe needs --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
            return 0
        result = run_workload(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop of ``akltmqc.cli`` calls made in-process.
``cycle(k)`` returns the k-th batch of operations; its seeds derive from
the workload seed and ``k`` alone, so one seed always yields the same
inputs. Each operation carries a check that turns the CLI's exit code and
text into a failure reason, or None when the output is correct.

Failure reasons: ``retries-exhausted`` (exit code 2 from ``run``) is an
honest protocol outcome and leaves the run ``correct``; every other reason
(wrong readout, failed check, malformed output, differing digests, an
exception) marks the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RETRIES_EXHAUSTED = "retries-exhausted"

IDENTITY = {
    "format_version": 1,
    "wires": 1,
    "gates": [{"gate": "init", "wire": 0}, {"gate": "readout", "wire": 0}],
}
CNOT = {
    "format_version": 1,
    "wires": 2,
    "gates": [
        {"gate": "init", "wire": 0},
        {"gate": "init", "wire": 1},
        {"gate": "cnot", "control": 0, "target": 1},
        {"gate": "readout", "wire": 0},
        {"gate": "readout", "wire": 1},
    ],
}
CIRCUITS = {"identity": IDENTITY, "cnot": CNOT}

# Criterion 8's grid.
PERCOLATION_PS = tuple(f"{0.60 + 0.01 * k:.2f}" for k in range(11))
PERCOLATION_SIZES = ((12, 24), (24, 48))
PERCOLATION_TRIALS = 200

# The 2x6 exact run always uses this seed. Its stage-1 attempt count, and so
# its cost, depends on the seed (seeds 0, 1, 2 need 1, 2 and 8 attempts:
# 13 s, 22 s and 71 s), which no run-to-run bound could absorb. Seed 1
# needs two attempts, so every run still pays for one rejected pattern.
EXACT_2X6_SEED = 1


# Share of a run's seconds that its checked cycles fill on the reference
# machine (2 cores, see METRICS.md); repeats of them fill the rest.
CHECKED_SHARE = 0.8


def derive_seed(*parts) -> int:
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass(frozen=True)
class Op:
    """One closed-loop call: ``cli.main(argv)``, or criterion 6 when argv is
    None. ``units`` is the work it adds to the workload's ``op_s``."""

    cell: str
    argv: tuple[str, ...] | None
    units: float
    check: Callable[[int, str], tuple[str | None, int | None]]


# -- output checks ---------------------------------------------------------------


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _exhausted(text: str) -> tuple[str | None, int | None]:
    body = _json(text)
    if not isinstance(body, dict) or body.get("error") != "protocol":
        return "malformed", None
    found = re.search(r"in (\d+) attempts", body.get("detail", ""))
    return RETRIES_EXHAUSTED, int(found.group(1)) if found else None


def check_run(rows, cols, circuit: dict, mode: str):
    """Checks a ``run`` artifact. Exact runs must read out a bit string the
    reference simulator gives nonzero probability."""
    from akltmqc.logic import CircuitSpec
    from akltmqc.oracle import reference_circuit_sim

    reference = reference_circuit_sim(CircuitSpec.from_json(circuit))
    wires = circuit["wires"]

    def check(rc: int, text: str):
        if rc == 2:
            return _exhausted(text)
        art = _json(text)
        if rc != 0 or not isinstance(art, dict):
            return "malformed", None
        attempts = art.get("attempts")
        corrected = art.get("corrected")
        if (
            art.get("kind") != "run"
            or art.get("mode") != mode
            or (art.get("rows"), art.get("cols")) != (rows, cols)
            or not isinstance(attempts, int)
            or attempts < 1
            or not isinstance(corrected, list)
            or len(corrected) != wires
            or any(b not in (0, 1) for b in corrected)
        ):
            return "malformed", None
        if mode == "exact" and reference.get(tuple(corrected), 0.0) < 1e-9:
            return "wrong-readout", attempts
        return None, attempts

    return check


def _matched_pairs(axes: list[str]) -> set[tuple[tuple[int, int], ...]]:
    """Equal-axis bonds of the brick wall: all row neighbours, and (r, c) to
    (r + 1, c) when r + c is even."""
    rows, cols = len(axes), len(axes[0])
    out = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols and axes[r][c] == axes[r][c + 1]:
                out.add(((r, c), (r, c + 1)))
            if r + 1 < rows and (r + c) % 2 == 0 and axes[r][c] == axes[r + 1][c]:
                out.add(((r, c), (r + 1, c)))
    return out


def check_sample(rows, cols):
    def check(rc: int, text: str):
        art = _json(text)
        if rc != 0 or not isinstance(art, dict):
            return "malformed", None
        samples = art.get("samples")
        if (
            art.get("kind") != "sample"
            or (art.get("rows"), art.get("cols")) != (rows, cols)
            or not isinstance(samples, list)
            or len(samples) != 1
        ):
            return "malformed", None
        axes = samples[0].get("axes")
        if (
            not isinstance(axes, list)
            or len(axes) != rows
            or any(len(row) != cols or set(row) - set("xyz") for row in axes)
        ):
            return "malformed", None
        try:
            matched = {tuple(tuple(s) for s in b) for b in samples[0]["matched"]}
        except (KeyError, TypeError):
            return "malformed", None
        if matched != _matched_pairs(axes):
            return "malformed", None
        return None, None

    return check


def check_percolate(trials: int):
    header = "p,rows,cols,trials,fraction,stderr,format_version"
    expected = [
        (p, r, c) for r, c in PERCOLATION_SIZES for p in PERCOLATION_PS
    ]

    def check(rc: int, text: str):
        lines = text.splitlines()
        if rc != 0 or not lines or lines[0] != header:
            return "malformed", None
        if len(lines) - 1 != len(expected):
            return "malformed", None
        for line, (p, r, c) in zip(lines[1:], expected):
            try:
                fp, fr, fc, fn, ff, fe, fv = line.split(",")
                frac, err = float(ff), float(fe)
            except ValueError:
                return "malformed", None
            hits = frac * trials
            if (
                float(fp) != float(p)
                or (int(fr), int(fc), int(fn), fv) != (r, c, trials, "1")
                or abs(hits - round(hits)) > 1e-6
                or abs(err - math.sqrt(frac * (1.0 - frac) / trials)) > 1e-12
            ):
                return "malformed", None
        return None, None

    return check


def check_criterion6(_rc: int, text: str):
    result = _json(text)
    if not isinstance(result, dict) or result.get("criterion") != 6:
        return "malformed", None
    return (None if result.get("passed") is True else "check-failed"), None


# -- workloads -------------------------------------------------------------------


def _write_circuits(workdir: Path) -> dict[str, str]:
    paths = {}
    for name, spec in CIRCUITS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path)
    return paths


def _run_argv(rows, cols, circuit_path, seed, mode):
    return (
        "run", "--lattice", f"{rows}x{cols}", "--circuit", circuit_path,
        "--seed", str(seed), "--mode", mode,
    )


def _seconds(records) -> float:
    return sum(r.seconds for r in records)


class Workload:
    """``cycle_s`` is one cycle's wall time on the reference machine. It
    fixes how many distinct cycles a run of given seconds checks, so that
    number never depends on the speed of the machine or of the code."""

    cycle_s: float

    def checked_cycles(self, seconds: float) -> int:
        return max(1, int(CHECKED_SHARE * seconds / self.cycle_s))


class ExactProtocol(Workload):
    """Dense pinned path: one exact 2x6 identity run (x pin) plus the
    criterion-6 branch enumeration, checked by ``check_end_to_end``. A 2x4
    exact run from the workload seed is repeated in the first cycle to
    check byte-identical artifacts, since the 12-site run is too slow to
    run twice."""

    name = "exact_protocol"
    cycle_s = 32.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = _write_circuits(workdir)["identity"]
        self.large = _run_argv(2, 6, self.path, EXACT_2X6_SEED, "exact")
        self.check_small = check_run(2, 4, IDENTITY, "exact")
        self.check_large = check_run(2, 6, IDENTITY, "exact")

    def cycle(self, k: int) -> list[Op]:
        seed = derive_seed(self.seed, k, 0)
        small = _run_argv(2, 4, self.path, seed, "exact")
        return [
            Op("2x4.identity", small, 0.0, self.check_small),
            Op("2x6.identity", self.large, 1.0, self.check_large),
            Op("e2e_fixtures", None, 0.0, check_criterion6),
        ]

    def figures(self, records) -> dict[str, tuple[float, str]]:
        return {
            "exact_run_s": (statistics.median(
                r.seconds for r in records if r.op.cell == "2x6.identity"
            ), "s"),
            "branch_enum_s": (statistics.median(
                r.seconds for r in records if r.op.cell == "e2e_fixtures"
            ), "s"),
        }


class TracedStrip(Workload):
    """Exact traced stage-1 ``sample`` on a 4x16 and a 4x32 strip."""

    name = "traced_strip"
    cycle_s = 3.2
    sizes = ((4, 16), (4, 32))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.checks = {size: check_sample(*size) for size in self.sizes}

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for i, (rows, cols) in enumerate(self.sizes):
            argv = (
                "sample", "--lattice", f"{rows}x{cols}", "--mode", "exact",
                "--seed", str(derive_seed(self.seed, k, i)), "--trials", "1",
            )
            ops.append(
                Op(f"{rows}x{cols}", argv, rows * cols,
                   self.checks[(rows, cols)])
            )
        return ops

    def figures(self, records) -> dict[str, tuple[float, str]]:
        sites = sum(r.op.units for r in records)
        return {"traced_sites_per_s": (sites / _seconds(records), "1/s")}


class Percolation(Workload):
    """``percolate`` over criterion 8's grid, p = 0.60..0.70 at 12x24 and
    24x48, with PERCOLATION_TRIALS trials per point."""

    name = "percolation"
    cycle_s = 1.2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.check = check_percolate(PERCOLATION_TRIALS)
        self.points = (
            len(PERCOLATION_PS) * len(PERCOLATION_SIZES) * PERCOLATION_TRIALS
        )

    def cycle(self, k: int) -> list[Op]:
        argv = (
            "percolate", "--p", ",".join(PERCOLATION_PS),
            "--size", ",".join(f"{r}x{c}" for r, c in PERCOLATION_SIZES),
            "--trials", str(PERCOLATION_TRIALS),
            "--seed", str(derive_seed(self.seed, k, 0)),
        )
        return [Op("grid", argv, self.points, self.check)]

    def figures(self, records) -> dict[str, tuple[float, str]]:
        points = sum(r.op.units for r in records)
        return {"span_trials_per_s": (points / _seconds(records), "1/s")}


class RoutingScale(Workload):
    """iid ``run`` on 4x8, 8x16 and 20x40, identity and one-CNOT circuits:
    stage 1 is free, no contraction runs, and the time goes to clustering,
    routing, compiling and frame tracking."""

    name = "routing_scale"
    cycle_s = 3.0
    sizes = ((4, 8), (8, 16), (20, 40))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.paths = _write_circuits(workdir)
        self.checks = {
            (size, name): check_run(*size, CIRCUITS[name], "iid")
            for size in self.sizes
            for name in CIRCUITS
        }

    @staticmethod
    def cells() -> list[str]:
        return [
            f"{r}x{c}.{name}" for r, c in RoutingScale.sizes for name in CIRCUITS
        ]

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for size in self.sizes:
            for name in CIRCUITS:
                seed = derive_seed(self.seed, k, len(ops))
                argv = _run_argv(*size, self.paths[name], seed, "iid")
                ops.append(
                    Op(f"{size[0]}x{size[1]}.{name}", argv, 1.0,
                       self.checks[(size, name)])
                )
        return ops

    def figures(self, records) -> dict[str, tuple[float, str]]:
        checked = {r.key: r for r in records}.values()
        completed = sum(r.failure is None for r in checked)
        attempts = sum(r.attempts or 0 for r in checked)
        return {
            "iid_run_s": (_seconds(records) / len(records), "s"),
            "embed_success_frac": (completed / attempts, "ratio"),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ExactProtocol, TracedStrip, Percolation, RoutingScale)
}

"""In-memory span tracer that wraps akltmqc's public functions from outside.

Each wrapper replaces a function where its caller looks it up (a module
global such as ``akltmqc.logic.route_backbone``, or a method on its class),
records one span (name, start, end, parent, attributes) per call and
restores the original on ``uninstall``. Nothing under ``src/`` changes.

``lattice``, ``tensors`` and ``oracle`` get no spans: their calls are too
short and too frequent to wrap, so their time shows in the callers' self
time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

DENSE_METHODS = (
    "weight",
    "effect_weight",
    "effect_weights",
    "apply_op",
    "project",
    "branch",
)


def _size(lattice) -> str:
    return f"{lattice.rows}x{lattice.cols}"


class Tracer:
    """Spans and counters of one traced stretch of the benchmark."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.cell_failures: dict[str, Counter] = defaultdict(Counter)
        self.cell = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict):
        """A span opened by the benchmark itself, around one operation."""
        idx = self._open(name)
        self.spans[idx][4] = attrs
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``describe(bound_args, result)`` returns extra span attributes and
        may bump counters; it runs after the call returns.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        sig = inspect.signature(orig) if describe else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][4] = describe(bound.arguments, result) or {}
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- akltmqc wiring --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import akltmqc.cli as cli
        import akltmqc.contraction as contraction
        import akltmqc.logic as logic
        import akltmqc.router as router
        import akltmqc.sampler as sampler

        def stage1(a, _result):
            term = "traced" if a["term"] is None else "pinned"
            mode = getattr(a["mode"], "value", a["mode"])
            return {"size": _size(a["lattice"]), "mode": mode, "term": term}

        def routed(_a, result):
            if isinstance(result, router.RoutingFailure):
                self._fail("router.route_fail", result.reason)

        def compiled(_a, result):
            if isinstance(result, logic.CompileFailure):
                self._fail("logic.compile_fail", result.reason)

        def branches(_a, result):
            self.counters["logic.branches"] += len(result)

        def dense_init(a, _result):
            amps = 4 ** len(a["self"].live_sites)
            peak = "contraction.dense_peak_amplitudes"
            self.counters[peak] = max(self.counters[peak], amps)

        def op_weight(a, _result):
            return {"size": _size(a["self"].lattice)}

        def spanning(a, _result):
            self.counters["router.spanning_trials"] += a["trials"]

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "check_end_to_end", "cli.check_end_to_end")
        self.wrap(cli, "run_protocol", "logic.run_protocol")
        self.wrap(cli, "prepare_protocol", "logic.prepare_protocol")
        self.wrap(cli, "protocol_branches", "logic.protocol_branches", branches)
        self.wrap(cli, "stage1_sample", "sampler.stage1_sample", stage1)
        self.wrap(logic, "stage1_sample", "sampler.stage1_sample", stage1)
        self.wrap(logic, "prepare_protocol", "logic.prepare_protocol")
        self.wrap(logic, "find_clusters", "router.cluster")
        self.wrap(logic, "flag_off_limits", "router.cluster")
        self.wrap(logic, "route_backbone", "router.route_backbone", routed)
        self.wrap(logic, "compile_plan", "logic.compile_plan", compiled)
        self.wrap(sampler, "chain_rule_sample", "sampler.chain_rule_sample")
        self.wrap(contraction, "build_state", "contraction.build_state")
        self.wrap(
            contraction.DenseEngine, "__init__", "contraction.dense.init",
            dense_init,
        )
        for method in DENSE_METHODS:
            self.wrap(
                contraction.DenseEngine, method, f"contraction.dense.{method}"
            )
        self.wrap(
            contraction.TracedEngine, "op_weight",
            "contraction.traced.op_weight", op_weight,
        )
        self.wrap(
            router, "spanning_probability", "router.spanning_probability",
            spanning,
        )

    def _fail(self, prefix: str, reason: str) -> None:
        self.counters[f"{prefix}.{reason}"] += 1
        self.cell_failures[self.cell][f"{prefix}.{reason}"] += 1

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def per_layer(self, cycles: int) -> dict[str, float]:
        """The per-layer metrics; names match BENCHMARK.json's per_layer."""
        spans = self.spans
        selfs = self.self_times()

        def named(name):
            return [s for s in spans if s[0] == name]

        def total(name):
            return sum(s[2] - s[1] for s in named(name))

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        def dur(s):
            return s[2] - s[1]

        dense = [
            s for s in spans
            if s[0].startswith("contraction.dense.")
            and s[0] != "contraction.dense.init"
            and not (s[3] >= 0 and spans[s[3]][0].startswith("contraction.dense."))
        ]
        stage1 = named("sampler.stage1_sample")
        attempts = len(named("logic.prepare_protocol")) or 1
        compiles = named("logic.compile_plan")
        weights = named("contraction.traced.op_weight")
        out = {
            "contraction.build_state_s": total("contraction.build_state") / cycles,
            "contraction.dense_s": sum(map(dur, dense)) / cycles,
            "contraction.dense_calls": len(dense) / cycles,
            "contraction.dense_peak_amplitudes": float(
                self.counters["contraction.dense_peak_amplitudes"]
            ),
            "contraction.traced_weight_calls": len(weights) / cycles,
            "sampler.stage1_pinned_s": sum(
                dur(s) for s in stage1
                if s[4].get("mode") == "exact" and s[4].get("term") == "pinned"
            ) / cycles,
            "sampler.stage1_iid_ms": 1e3 * mean(
                [dur(s) for s in stage1 if s[4].get("mode") == "iid"]
            ),
            "router.cluster_ms": 1e3 * total("router.cluster") / attempts,
            "router.route_ms": 1e3 * total("router.route_backbone") / attempts,
            "router.spanning_s": total("router.spanning_probability") / cycles,
            "router.spanning_us_per_trial": (
                1e6 * total("router.spanning_probability")
                / max(self.counters["router.spanning_trials"], 1)
            ),
            "logic.compile_ms": 1e3 * mean([dur(s) for s in compiles]),
            "logic.run_self_s": selfs.get("logic.run_protocol", [0, 0, 0])[2] / cycles,
            "logic.branches": self.counters["logic.branches"] / cycles,
            "logic.branch_enum_s": total("logic.protocol_branches") / cycles,
            "cli.self_ms": (
                1e3 * selfs.get("cli.main", [0, 0, 0])[2]
                / max(len(named("cli.main")), 1)
            ),
        }
        for size in ("4x16", "4x32"):
            out[f"contraction.traced_weight_ms.{size}"] = 1e3 * (
                statistics.median(
                    [dur(s) for s in weights if s[4].get("size") == size]
                    or [0.0]
                )
            )
            out[f"sampler.stage1_traced_s.{size}"] = mean(
                [dur(s) for s in stage1
                 if s[4].get("term") == "traced" and s[4].get("size") == size]
            )
        for key, count in self.counters.items():
            if key.startswith(("router.route_fail.", "logic.compile_fail.")):
                out[key] = count / cycles
        return out

    def dump(self, path) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, **attrs}
                ) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters),
                                 "cell_failures": self.cell_failures}) + "\n")


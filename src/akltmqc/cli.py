"""Command-line driver: sampling, routing, protocol runs, sweeps, checks.

Artifacts are JSON objects or CSV tables, every format stamped with a
format_version field; identical (config, seed) pairs produce byte-identical
output. Exit codes: 0 success, 1 validation error, 2 routing or protocol
failure (including failing verify checks).
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .contraction import (
    BoundaryTermination,
    LatticeSizeError,
    pattern_probability,
    reduced_density,
)
from .lattice import MAX_SITES, HexLattice, Leg, SiteKind, build_lattice
from .logic import (
    CNOT,
    CircuitSpec,
    CompileFailure,
    Init,
    ProtocolError,
    Readout,
    Rx,
    Rz,
    _running_flip,
    auto_spacing,
    byproduct_indices,
    conditional_logical_table,
    prepare_protocol,
    protocol_branches,
    run_protocol,
)
from .oracle import (
    affine_constants,
    hamiltonian_pair_check,
    reference_circuit_sim,
    two_point_correlation,
)
from .router import (
    RoutingFailure,
    crossing_estimate,
    disabled_ids,
    find_clusters,
    flag_off_limits,
    route_backbone,
    spanning_probability,
    spanning_sweep,
)
from .sampler import AxisAssignment, matched_bonds, stage1_sample
from .tensors import (
    AXES,
    comp_covector,
    measured_tensor,
    pauli_xz,
    povm_element,
    residual_up_to_scale,
    rotation,
    virtual_bra,
    virtual_ket,
)

FORMAT_VERSION = 1
OUT_DIR_ENV = "AKLT_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2


class UsageError(Exception):
    """Bad arguments or inputs; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); our 2 means protocol failure, so reroute
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated arguments of one invocation."""

    subcommand: str
    rows: int = 0
    cols: int = 0
    circuit_path: str | None = None
    seed: int | None = None
    mode: str = "exact"
    trials: int = 1
    out: str | None = None
    term: str = "x"
    spacing: int | None = None
    ps: tuple[float, ...] = ()
    sizes: tuple[tuple[int, int], ...] = ()
    level: str = "full"

    def validate(self) -> None:
        """Range checks; argparse has already enforced required options
        and choices."""
        if self.seed is not None and self.seed < 0:
            raise UsageError(f"seed {self.seed} is negative")
        sizes = list(self.sizes)
        if self.subcommand in {"sample", "route", "run"}:
            sizes.append((self.rows, self.cols))
        for rows, cols in sizes:
            if rows < 1 or cols < 1:
                raise UsageError("lattice dimensions must be positive")
            if rows * cols > MAX_SITES:
                raise UsageError(
                    f"lattice {rows}x{cols} exceeds {MAX_SITES} sites"
                )
        if self.trials < 1:
            raise UsageError("trials must be positive")
        if self.spacing is not None and self.spacing < 1:
            raise UsageError("spacing must be positive")
        if self.subcommand == "percolate":
            if not self.ps or not self.sizes:
                raise UsageError("percolate requires --p and --size")
            for p in self.ps:
                if not 0.0 <= p <= 1.0:
                    raise UsageError(f"occupation {p} outside [0, 1]")


# -- parsing helpers ----------------------------------------------------------


def _parse_size(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise UsageError(f"expected ROWSxCOLS, got {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from None


def _term_object(name: str) -> BoundaryTermination | None:
    return None if name == "traced" else BoundaryTermination(axis=name)


def _load_circuit(path: str) -> CircuitSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return CircuitSpec.from_json(data)
    except OSError as exc:
        raise UsageError(f"cannot read circuit file: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad circuit file {path}: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = out
    if not os.path.isabs(path):
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            path = os.path.join(base, path)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fail(kind: str, reason: str, detail: str = "") -> int:
    body = {
        "format_version": FORMAT_VERSION,
        "error": kind,
        "reason": reason,
        "detail": detail,
    }
    sys.stderr.write(_json_text(body))
    return EXIT_USAGE if kind == "validation" else EXIT_PROTOCOL


def _axes_grid(lattice: HexLattice, assignment: AxisAssignment) -> list[str]:
    return [
        "".join(assignment[(r, c)] for c in range(lattice.cols))
        for r in range(lattice.rows)
    ]


# -- subcommands ----------------------------------------------------------------


def cmd_sample(cfg: RunConfig) -> int:
    lattice = build_lattice(cfg.rows, cfg.cols)
    term = _term_object(cfg.term)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    samples = []
    for idx, child in enumerate(children):
        assignment = stage1_sample(lattice, term, cfg.mode, child)
        bonds = sorted(
            [list(b.a), list(b.b)] for b in matched_bonds(lattice, assignment)
        )
        samples.append(
            {
                "trial": idx,
                "axes": _axes_grid(lattice, assignment),
                "matched": bonds,
            }
        )
    artifact = {
        "format_version": FORMAT_VERSION,
        "kind": "sample",
        "rows": cfg.rows,
        "cols": cfg.cols,
        "mode": cfg.mode,
        "term": cfg.term,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "samples": samples,
    }
    _write_out(_json_text(artifact), cfg.out)
    return EXIT_OK


def cmd_route(cfg: RunConfig) -> int:
    lattice = build_lattice(cfg.rows, cfg.cols)
    term = _term_object(cfg.term)
    circuit = _load_circuit(cfg.circuit_path)
    assignment = stage1_sample(lattice, term, cfg.mode, cfg.seed)
    clusters = find_clusters(lattice, assignment)
    pairs = flag_off_limits(lattice, clusters)
    disabled = disabled_ids(pairs)
    spacing = cfg.spacing if cfg.spacing is not None else auto_spacing(
        lattice, circuit
    )
    backbone = route_backbone(
        lattice, assignment, clusters, disabled, circuit, spacing=spacing
    )
    if isinstance(backbone, RoutingFailure):
        return _fail("routing", backbone.reason, backbone.detail)
    artifact = {
        "format_version": FORMAT_VERSION,
        "kind": "route",
        "rows": cfg.rows,
        "cols": cfg.cols,
        "mode": cfg.mode,
        "term": cfg.term,
        "seed": cfg.seed,
        "axes": _axes_grid(lattice, assignment),
        "clusters": [
            {"id": cid, "axis": AXES[axis], "sites": size}
            for cid, (axis, size) in enumerate(
                zip(clusters.axes.tolist(), clusters.sizes.tolist())
            )
        ],
        "off_limits": [
            {
                "first": p.first,
                "second": p.second,
                "joining_bonds": len(p.joins),
                "disabled": p.disabled,
            }
            for p in pairs
        ],
        "backbone": backbone.to_json(lattice),
    }
    _write_out(_json_text(artifact), cfg.out)
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    lattice = build_lattice(cfg.rows, cfg.cols)
    term = _term_object(cfg.term)
    circuit = _load_circuit(cfg.circuit_path)
    try:
        result = run_protocol(
            lattice,
            term,
            circuit,
            rng_seed=cfg.seed,
            mode=cfg.mode,
            spacing=cfg.spacing,
        )
    except ProtocolError as exc:
        return _fail("protocol", "no-embedding", str(exc))
    artifact = {"kind": "run", "term": cfg.term, **result.to_json(lattice)}
    _write_out(_json_text(artifact), cfg.out)
    return EXIT_OK


def cmd_percolate(cfg: RunConfig) -> int:
    rows = spanning_sweep(list(cfg.sizes), list(cfg.ps), cfg.trials, cfg.seed)
    lines = ["p,rows,cols,trials,fraction,stderr,format_version"]
    for row in rows:
        lines.append(
            f"{row['p']!r},{row['rows']},{row['cols']},{row['trials']},"
            f"{row['fraction']!r},{row['stderr']!r},{FORMAT_VERSION}"
        )
    _write_out("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    lines = []
    failures = 0
    for criterion, name, fn in ACCEPTANCE_CHECKS:
        if cfg.level == "fast" and criterion in SLOW_CRITERIA:
            lines.append(f"SKIP {criterion:2d} {name}")
            continue
        result = fn()
        flag = "PASS" if result["passed"] else "FAIL"
        failures += not result["passed"]
        lines.append(f"{flag} {criterion:2d} {name}: {result['detail']}")
    checked = sum(
        1 for c, _, _ in ACCEPTANCE_CHECKS
        if not (cfg.level == "fast" and c in SLOW_CRITERIA)
    )
    lines.append(f"passed {checked - failures}/{checked} ({cfg.level} level)")
    _write_out("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if failures == 0 else EXIT_PROTOCOL


# -- acceptance checks ----------------------------------------------------------
#
# Each check returns {"criterion", "passed", "detail"} with deterministic
# detail text (fixed seeds, no timings) so verify output is reproducible.
# Wall-clock budgets are enforced as part of the pass condition; an overrun
# appends to the detail, so only failing output varies.


def check_povm_completeness() -> dict:
    total = np.zeros((4, 4), dtype=complex)
    for axis in AXES:
        m = povm_element(axis)
        total += m.conj().T @ m
    dev = float(np.abs(total - np.eye(4)).max())
    return {
        "criterion": 1,
        "passed": dev < 1e-12,
        "detail": f"sum of effects vs identity, max dev {dev:.3e}",
    }


def check_reduced_density() -> dict:
    lattice = build_lattice(2, 3)
    worst = 0.0
    for site in lattice.sites():
        rho = reduced_density(lattice, None, site)
        worst = max(worst, float(np.abs(rho - np.eye(4) / 4.0).max()))
    return {
        "criterion": 2,
        "passed": worst < 1e-10,
        "detail": f"traced 2x3 single-site density vs 1/4, max dev {worst:.3e}",
    }


@functools.lru_cache(maxsize=None)
def _widget_matrix(kind, mu, nu, theta, b, c):
    t = measured_tensor(kind, comp_covector(mu, nu, theta, b))
    if kind is SiteKind.TOP:
        vec = virtual_ket(nu, c).vector
    else:
        vec = virtual_bra(nu, c ^ 1).vector
    out = np.einsum("lrv,v->lr", t, vec)
    out.setflags(write=False)  # cached: shared by every caller
    return out


def check_widget_identities() -> dict:
    budget = 10.0
    start = time.monotonic()
    angles = [k * math.pi / 4.0 + 0.1 for k in range(8)]
    worst = 0.0
    for kind in (SiteKind.TOP, SiteKind.BOT):
        for mu in ("x", "z"):
            for nu in AXES:
                if nu == mu:
                    continue
                for theta in angles:
                    for b, c in itertools.product((0, 1), repeat=2):
                        ax, az = byproduct_indices(mu, b, c)
                        got = _widget_matrix(kind, mu, nu, theta, b, c)
                        want = pauli_xz(ax, az) @ rotation(mu, theta)
                        worst = max(worst, residual_up_to_scale(got, want))
    elapsed = time.monotonic() - start
    passed = worst < 1e-10 and elapsed < budget
    detail = f"256 widget maps vs byproduct*rotation, worst residual {worst:.3e}"
    if elapsed >= budget:
        detail += f"; overran {budget:.0f}s budget ({elapsed:.1f}s)"
    return {"criterion": 3, "passed": passed, "detail": detail}


_CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


_BOT_TOP = (SiteKind.BOT, SiteKind.TOP)  # site kinds alternate along a chain
_ID2 = np.eye(2, dtype=complex)
_ID2.setflags(write=False)


def _fold_chain(chain):
    """(product, sx, sz) of a chain of (kind, mu, nu, b, c) widgets: their
    angle-0 widget matrices multiplied in chain order, and the xor of their
    byproduct exponents."""
    prod, sx, sz = _ID2, 0, 0
    for kind, mu, nu, b, c in chain:
        ax, az = byproduct_indices(mu, b, c)
        sx ^= ax
        sz ^= az
        prod = prod @ _widget_matrix(kind, mu, nu, 0.0, b, c)
    return prod, sx, sz


def _assemble_junction(b_top, b_bot, cmat):
    jt = measured_tensor(SiteKind.TOP, comp_covector("z", "x", 0.0, b_top))
    jb = measured_tensor(SiteKind.BOT, comp_covector("x", "z", 0.0, b_bot))
    return np.einsum("lri,ij,LRj->lLrR", jt, cmat, jb).reshape(4, 4)


def _expected_cnot(b_top, b_bot, sx, sz):
    ups = np.kron(
        pauli_xz(1, b_top ^ sz ^ 1), pauli_xz(b_bot ^ sx ^ 1, 1)
    )
    return ups @ _CNOT4


def check_cnot_assembly() -> dict:
    profiles = [("z", "x"), ("x", "z"), ("y", "x"), ("z", "y")]
    worst = 0.0
    cases = 0
    for n in range(4):
        for combo in itertools.product(range(len(profiles)), repeat=n):
            for bits in itertools.product((0, 1), repeat=2 + 2 * n):
                b_top, b_bot = bits[0], bits[1]
                links = zip(combo, bits[2::2], bits[3::2])
                cmat, sx, sz = _fold_chain(
                    (_BOT_TOP[i % 2], *profiles[p], b, c)
                    for i, (p, b, c) in enumerate(links)
                )
                got = _assemble_junction(b_top, b_bot, cmat)
                want = _expected_cnot(b_top, b_bot, sx, sz)
                worst = max(worst, residual_up_to_scale(got, want))
                cases += 1
    return {
        "criterion": 4,
        "passed": worst < 1e-10,
        "detail": (
            f"{cases} junction assemblies (chains 0-3) vs byproduct*CNOT, "
            f"worst residual {worst:.3e}"
        ),
    }


def check_renormalization() -> dict:
    worst = 0.0
    # chains of 1..4 widgets against the folded-label formula, both the
    # delivered-ket and delivered-bra orientation
    for mu in AXES:
        others = [a for a in AXES if a != mu]
        for n in range(1, 5):
            for nus in itertools.product(others, repeat=n):
                kinds = [
                    SiteKind.TOP if i % 2 == 0 else SiteKind.BOT
                    for i in range(n)
                ]
                for nu0 in others:
                    for bits in itertools.product((0, 1), repeat=2 * n + 1):
                        c0 = bits[-1]
                        prod, sx, sz = _fold_chain(
                            (kinds[i], mu, nus[i], *bits[2 * i : 2 * i + 2])
                            for i in range(n)
                        )
                        cb = c0 ^ _running_flip(nu0, sx, sz)
                        got = prod @ virtual_ket(nu0, c0).vector
                        worst = max(
                            worst,
                            residual_up_to_scale(
                                got, virtual_ket(nu0, cb).vector
                            ),
                        )
                        gotb = virtual_bra(nu0, c0 ^ 1).vector @ prod
                        worst = max(
                            worst,
                            residual_up_to_scale(
                                gotb, virtual_bra(nu0, cb ^ 1).vector
                            ),
                        )
    # one-bifurcation tree: side branch folds first, then feeds the main line
    for mu in ("z", "x"):
        others = [a for a in AXES if a != mu]
        nu1, nu3, nu4 = others[0], others[1], others[0]
        nu_t1, nu_t2 = others[1], others[0]
        nu0, nu_s0 = others[1], others[0]
        for bits in itertools.product((0, 1), repeat=13):
            (b1, c1, b2, b3, c3, b4, c4, c0, bt1, ct1, bt2, ct2, cs0) = bits
            side, sxs, szs = _fold_chain(
                [
                    (SiteKind.BOT, mu, nu_t1, bt1, ct1),
                    (SiteKind.TOP, mu, nu_t2, bt2, ct2),
                ]
            )
            side_vec = side @ virtual_ket(nu_s0, cs0).vector
            cbar_side = cs0 ^ _running_flip(nu_s0, sxs, szs)
            t2m = np.einsum(
                "lrv,v->lr",
                measured_tensor(
                    SiteKind.TOP, comp_covector(mu, nu_s0, 0.0, b2)
                ),
                side_vec,
            )
            direct = (
                _widget_matrix(SiteKind.BOT, mu, nu1, 0.0, b1, c1)
                @ t2m
                @ _widget_matrix(SiteKind.BOT, mu, nu3, 0.0, b3, c3)
                @ _widget_matrix(SiteKind.TOP, mu, nu4, 0.0, b4, c4)
                @ virtual_ket(nu0, c0).vector
            )
            # the main line's exponents, b2 read with the side's folded bit
            _, sx, sz = _fold_chain(
                [
                    (SiteKind.BOT, mu, nu1, b1, c1),
                    (SiteKind.TOP, mu, nu_s0, b2, cbar_side),
                    (SiteKind.BOT, mu, nu3, b3, c3),
                    (SiteKind.TOP, mu, nu4, b4, c4),
                ]
            )
            want = virtual_ket(nu0, c0 ^ _running_flip(nu0, sx, sz)).vector
            worst = max(worst, residual_up_to_scale(direct, want))
    # hexagon loop: delivered label depends only on the one matching
    # byproduct sum; the other exponent cancels over the six sites
    x_exponent_max = 0
    for mu in ("z", "x"):
        others = [a for a in AXES if a != mu]
        nu0 = others[0]
        nus = [others[i % 2] for i in range(5)]
        for bits in itertools.product((0, 1), repeat=11):
            b0 = bits[0]
            t0 = measured_tensor(SiteKind.TOP, comp_covector(mu, nu0, 0.0, b0))
            cmat, sx, sz = _fold_chain(
                (_BOT_TOP[i % 2], mu, nus[i], *bits[1 + 2 * i : 3 + 2 * i])
                for i in range(5)
            )
            # the loop head's transverse exponent is identically 1
            cancel = 1 ^ (sx if mu == "z" else sz)
            out = np.einsum("lrv,rl->v", t0, cmat)
            cb = (b0 ^ sz) if mu == "z" else (b0 ^ sx)
            want = virtual_bra(nu0, cb).vector
            worst = max(worst, residual_up_to_scale(out, want))
            x_exponent_max = max(x_exponent_max, cancel)
    # off-limits pair: the doubly-joined different-axis loop is rank-1
    worst_rank = 0.0
    for bits in itertools.product((0, 1), repeat=10):
        bt, bb = bits[0], bits[1]
        t_in = measured_tensor(SiteKind.TOP, comp_covector("x", "y", 0.0, bt))
        t_out = measured_tensor(SiteKind.BOT, comp_covector("z", "x", 0.0, bb))
        widgets = [
            (_BOT_TOP[i % 2], "z", "xy"[i % 2], *bits[2 + 2 * i : 4 + 2 * i])
            for i in range(4)
        ]
        ca, cb2 = (_fold_chain(widgets[j : j + 2])[0] for j in (0, 2))
        got = np.einsum("abv,bc,cdV,da->Vv", t_in, ca, t_out, cb2)
        s = np.linalg.svd(got, compute_uv=False)
        worst_rank = max(worst_rank, float(s[1] / s[0]))
    passed = worst < 1e-10 and x_exponent_max == 0 and worst_rank < 1e-10
    return {
        "criterion": 5,
        "passed": passed,
        "detail": (
            f"chain/tree/hexagon folds worst residual {worst:.3e}; loop "
            f"leftover exponent {x_exponent_max}; off-limits second/first "
            f"singular {worst_rank:.3e}"
        ),
    }


def e2e_fixtures():
    """Pinned (lattice, axes, termination, circuit, spacing) triples used by
    the end-to-end criterion: every branch of each must match the reference
    simulator after correction."""

    def pinned(rows_axes):
        rows, cols = len(rows_axes), len(rows_axes[0])
        lattice = build_lattice(rows, cols)
        assignment = AxisAssignment.from_axes(
            lattice,
            {
                (r, c): rows_axes[r][c]
                for r in range(rows)
                for c in range(cols)
            },
        )
        return lattice, assignment

    identity = (
        "identity",
        *pinned(["yxzxz", "xyxyx"]),
        BoundaryTermination(),
        CircuitSpec(1, (Init(0), Readout(0))),
        None,
    )
    lat_rot, asg_rot = pinned(["yxzxzz", "xyxyxy"])
    rot = (
        "rot",
        lat_rot,
        asg_rot,
        # the init site (0,5) is Bot-kind: an all-z pin would annihilate
        # both of its standard outcomes, so its dangling leg pins along x
        BoundaryTermination(
            overrides={((0, 5), Leg.VERT): virtual_bra("x", 0)}
        ),
        CircuitSpec(
            1, (Init(0), Rz(0, math.pi / 4), Rx(0, math.pi / 3), Readout(0))
        ),
        None,
    )
    cnot = (
        "cnot",
        *pinned(["yzzz", "xzzx", "zxzz"]),
        BoundaryTermination(axis="x"),
        CircuitSpec(2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))),
        2,
    )
    return [identity, rot, cnot]


def check_end_to_end() -> dict:
    budget = 300.0
    start = time.monotonic()
    worst = 0.0
    parts = []
    for name, lattice, assignment, term, circuit, spacing in e2e_fixtures():
        prep = prepare_protocol(lattice, assignment, circuit, term, spacing)
        if isinstance(prep, (RoutingFailure, CompileFailure)):
            return {
                "criterion": 6,
                "passed": False,
                "detail": f"{name} fixture failed to prepare: {prep}",
            }
        _, plan = prep
        branches = protocol_branches(lattice, assignment, plan, term)
        reference = reference_circuit_sim(circuit)
        want = [reference[k] for k in np.ndindex((2,) * circuit.wires)]
        _, dist = conditional_logical_table(branches, plan)
        tv = 0.5 * np.abs(dist - want).sum(axis=1)
        total = np.cumsum(branches.probability)[-1]  # summed leaf by leaf
        fixture_worst = max(tv.max(), abs(total - 1.0))
        worst = max(worst, fixture_worst)
        parts.append(f"{name} {len(branches)}br {fixture_worst:.1e}")
    elapsed = time.monotonic() - start
    passed = worst < 1e-8 and elapsed < budget
    detail = "per-branch TV vs reference: " + ", ".join(parts)
    if elapsed >= budget:
        detail += f"; overran {budget:.0f}s budget ({elapsed:.1f}s)"
    return {"criterion": 6, "passed": passed, "detail": detail}


def check_stage1_statistics() -> dict:
    worst_marginal = 0.0
    worst_bond = 0.0
    for rows, cols in ((2, 3), (2, 4), (3, 4)):
        lattice = build_lattice(rows, cols)
        for site in lattice.sites():
            for axis in AXES:
                p = pattern_probability(lattice, None, {site: axis})
                worst_marginal = max(worst_marginal, abs(p - 1.0 / 3.0))
        for bond in lattice.bonds():
            p_match = sum(
                pattern_probability(lattice, None, {bond.a: a, bond.b: a})
                for a in AXES
            )
            worst_bond = max(worst_bond, abs(p_match - 1.0 / 3.0))
    passed = worst_marginal < 1e-10 and worst_bond < 0.01
    return {
        "criterion": 7,
        "passed": passed,
        "detail": (
            f"axis marginal max dev {worst_marginal:.3e}; matched-bond max "
            f"dev {worst_bond:.4f} (allowed 0.01)"
        ),
    }


def check_percolation() -> dict:
    budget = 120.0
    start = time.monotonic()
    trials = 2000
    p = 2.0 / 3.0
    f_small, e_small = spanning_probability(12, 24, p, trials, 1812)
    f_large, e_large = spanning_probability(24, 48, p, trials, 2448)
    sigma = math.hypot(e_small, e_large)
    gap = (f_large - f_small) / sigma if sigma > 0 else 0.0
    ps = [0.60 + 0.01 * k for k in range(11)]
    crossing = crossing_estimate((12, 24), (24, 48), ps, trials, 65)
    elapsed = time.monotonic() - start
    passed = (
        gap >= 3.0
        and crossing is not None
        and 0.62 <= crossing <= 0.68
        and elapsed < budget
    )
    cross_text = "none" if crossing is None else f"{crossing:.4f}"
    detail = (
        f"spanning at p=2/3: 12x24 {f_small:.4f} -> 24x48 {f_large:.4f} "
        f"({gap:.1f} sigma); crossing {cross_text}"
    )
    if elapsed >= budget:
        detail += f"; overran {budget:.0f}s budget ({elapsed:.1f}s)"
    return {"criterion": 8, "passed": passed, "detail": detail}


def check_hamiltonian() -> dict:
    c, d, proj_res = affine_constants()
    dev_c = abs(c - 160.0 / 27.0)
    dev_d = abs(d + 55.0 / 108.0)
    worst_pair = 0.0
    for rows, cols in ((2, 4), (3, 4)):
        lattice = build_lattice(rows, cols)
        for axis in ("z", "x"):
            worst_pair = max(
                worst_pair,
                hamiltonian_pair_check(lattice, BoundaryTermination(axis=axis)),
            )
    passed = (
        dev_c < 1e-10
        and dev_d < 1e-10
        and proj_res < 1e-10
        and worst_pair < 1e-10
    )
    return {
        "criterion": 9,
        "passed": passed,
        "detail": (
            f"affine constants dev ({dev_c:.1e}, {dev_d:.1e}), projector "
            f"residual {proj_res:.1e}; frustration residual {worst_pair:.1e} "
            f"over 2 lattices x 2 terminations"
        ),
    }


def check_correlation_decay() -> dict:
    lattice = build_lattice(2, 6)
    values = []
    for dist in (1, 2, 3):
        corr = sum(
            two_point_correlation(lattice, None, (0, 1), (0, 1 + dist), axis)
            for axis in AXES
        )
        values.append(corr)
    mags = [abs(v) for v in values]
    passed = mags[0] > mags[1] > mags[2]
    return {
        "criterion": 10,
        "passed": passed,
        "detail": (
            "traced 2x6 spin-spin correlation at distance 1,2,3: "
            + ", ".join(f"{v:+.4f}" for v in values)
        ),
    }


ACCEPTANCE_CHECKS = [
    (1, "povm-completeness", check_povm_completeness),
    (2, "reduced-density", check_reduced_density),
    (3, "widget-identities", check_widget_identities),
    (4, "cnot-assembly", check_cnot_assembly),
    (5, "cluster-renormalization", check_renormalization),
    (6, "end-to-end-decoupling", check_end_to_end),
    (7, "stage1-statistics", check_stage1_statistics),
    (8, "percolation", check_percolation),
    (9, "hamiltonian", check_hamiltonian),
    (10, "correlation-decay", check_correlation_decay),
]

SLOW_CRITERIA = frozenset({8})


# -- entry point ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built by the first main call
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="akltmqc",
        description="Measurement-driven computation on the spin-3/2 "
        "valence-bond lattice: sampling, routing, protocol runs, checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, circuit=False):
        p.add_argument("--lattice", required=True, help="ROWSxCOLS")
        if circuit:
            p.add_argument("--circuit", required=True, help="circuit JSON file")
        p.add_argument("--seed", required=True, type=int)
        p.add_argument("--mode", choices=("exact", "iid"), default="exact")
        p.add_argument("--out", help="output path (joined with $AKLT_OUT_DIR)")

    p = sub.add_parser("sample", help="stage-1 axes and matched-bond map")
    common(p)
    p.add_argument(
        "--term", choices=("x", "y", "z", "traced"), default="traced"
    )
    p.add_argument("--trials", type=int, default=1)

    p = sub.add_parser("route", help="backbone embedding for a circuit")
    common(p, circuit=True)
    p.add_argument("--term", choices=("x", "y", "z", "traced"), default="x")
    p.add_argument("--spacing", type=int)

    p = sub.add_parser("run", help="full protocol run, transcript JSON")
    common(p, circuit=True)
    p.add_argument("--term", choices=("x", "y", "z"), default="x")
    p.add_argument("--spacing", type=int)

    p = sub.add_parser("percolate", help="spanning-fraction CSV sweep")
    p.add_argument("--p", required=True, help="comma-separated occupations")
    p.add_argument("--size", required=True, help="comma-separated ROWSxCOLS")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--level", choices=("fast", "full"), default="full")
    p.add_argument("--out")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    if hasattr(args, "lattice"):
        cfg.rows, cfg.cols = _parse_size(args.lattice)
    for field_name in (
        "seed",
        "mode",
        "trials",
        "out",
        "term",
        "spacing",
        "level",
    ):
        if hasattr(args, field_name):
            setattr(cfg, field_name, getattr(args, field_name))
    if hasattr(args, "circuit"):
        cfg.circuit_path = args.circuit
    if hasattr(args, "p"):
        cfg.ps = _parse_float_list(args.p)
    if hasattr(args, "size"):
        cfg.sizes = tuple(
            _parse_size(tok) for tok in args.size.split(",") if tok
        )
    cfg.validate()
    return cfg


_DISPATCH = {
    "sample": cmd_sample,
    "route": cmd_route,
    "run": cmd_run,
    "percolate": cmd_percolate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except UsageError as exc:
        return _fail("validation", "bad-arguments", str(exc))
    except LatticeSizeError as exc:
        return _fail("validation", "lattice-size", str(exc))


if __name__ == "__main__":
    sys.exit(main())

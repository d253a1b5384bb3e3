"""Circuit layer: gates, byproduct frames, plan compilation, protocol runs.

A routed backbone fixes where the logical wires live; this module turns a
circuit into a concrete measurement plan on that backbone, then drives the
two measurement stages and the mod-2 byproduct bookkeeping. Every interior
widget contributes X/Z exponents determined by its own outcome and by the
reference bit arriving on its third leg (a standard neighbour, the pinned
boundary, or a renormalized matched cluster). Logical readout is the frame-
corrected boundary bit at the left end of each wire.

Compilation failures, like routing failures, are values: the caller's
remedy is a fresh stage-one sample.

A widget whose third leg enters a matched cluster reads the cluster's
renormalized bit. ``compile_plan`` folds each such hanging branch once, on
GF(2) forms, so every reference in a plan is a parity: a constant bit xor
the outcomes of a fixed tuple of sites. The fold handles trees only; the
routing audit rejects every backbone whose hanging branch closes a
matched loop, so a tree is all it ever sees.

The Pauli frame is compiled too: ``compile_plan`` applies the frame rules
once, on the same forms, so stage 2 knows no byproduct rule and reads
every frame bit as a stored parity; the plan keeps no other record of
the frame. ``_drive`` samples one path on the pinned layer engine with
every site polarized (:class:`TracedEngine`, as in stage 1): ``_step``
turns one site's two effect weights into outcome probabilities. Only
``protocol_branches`` builds the qubit state (:class:`DenseEngine`): it
enumerates every path level by level, the live branches stacked in the
engine's one amplitude array, each plan site is one batched step, and
outcomes are bit rows over the branches; :class:`ProtocolBranches` holds
the leaves as arrays.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .contraction import (
    BoundaryTermination,
    DenseEngine,
    StepOutcome,
    TracedEngine,
    _sweep_lines,
)
from .lattice import HexLattice, Leg, Site
from .router import (
    DEFAULT_SPACING,
    Backbone,
    RoutingFailure,
    analyse_patterns,
    chain_adjacency,
    route_backbone,
    spacing_failure,
)
# the benchmark tracer wraps these by name, here
from .router import find_clusters, flag_off_limits  # noqa: F401
from .sampler import AxisAssignment, SampleMode, stage1_sample
from .tensors import AXES, comp_covector, povm_element, standard_covector

FORMAT_VERSION = 1
MAX_ROUTE_ATTEMPTS = 256
# Most sites one block of iid routing attempts analyses at once.
BLOCK_SITES = 4096
# Branches lighter than this are dropped by protocol_branches.
MIN_BRANCH_PROBABILITY = 1e-12


class ProtocolError(RuntimeError):
    """The protocol cannot proceed (exhausted retries, broken reference)."""


# -- circuits -----------------------------------------------------------------


@dataclass(frozen=True)
class Init:
    wire: int


@dataclass(frozen=True)
class Rz:
    wire: int
    theta: float


@dataclass(frozen=True)
class Rx:
    wire: int
    theta: float


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class Readout:
    wire: int


Gate = Init | Rz | Rx | CNOT | Readout


def _gate_wires(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, CNOT):
        return (gate.control, gate.target)
    return (gate.wire,)


@dataclass(frozen=True)
class CircuitSpec:
    """Wire count plus the ordered gate list.

    Every wire starts with its Init and ends with its Readout. CNOT wants
    control strictly above target (smaller wire index) because the control
    junction is Top-kind and hangs its stem downward.
    """

    wires: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def validate(self) -> None:
        if self.wires < 1:
            raise ValueError("circuit needs at least one wire")
        seqs: dict[int, list[Gate]] = {}  # each wire's gates, in order
        for g in self.gates:
            touched = _gate_wires(g)
            for w in touched:
                if not 0 <= w < self.wires:
                    raise ValueError(f"gate {g} touches missing wire {w}")
            if isinstance(g, (Rz, Rx)) and not math.isfinite(g.theta):
                raise ValueError(f"gate {g} has a non-finite angle")
            if isinstance(g, CNOT) and g.control >= g.target:
                raise ValueError(
                    "CNOT control must ride the wire above its target"
                )
            for w in touched:
                seqs.setdefault(w, []).append(g)
        for w in range(self.wires):
            seq = seqs.get(w)
            if not seq or not isinstance(seq[0], Init):
                raise ValueError(f"wire {w} must open with Init")
            if not isinstance(seq[-1], Readout):
                raise ValueError(f"wire {w} must close with Readout")
            if sum(isinstance(g, Init) for g in seq) != 1:
                raise ValueError(f"wire {w} has a stray Init")
            if sum(isinstance(g, Readout) for g in seq) != 1:
                raise ValueError(f"wire {w} has a stray Readout")

    @staticmethod
    def from_json(data: dict) -> "CircuitSpec":
        """The circuit of a parsed JSON file. ``wires``, ``wire``,
        ``control`` and ``target`` must be JSON integers and ``theta`` a
        JSON number; a bool, a string or a fraction is refused, not cast.
        ``format_version``, when present, must be the integer 1, and a key
        the format does not define, at the top level or in a gate, is
        refused."""

        def integer(entry: dict, key: str) -> int:
            value = entry[key]
            if type(value) is not int:  # bool subclasses int
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        def number(entry: dict, key: str) -> float:
            value = entry[key]
            if type(value) not in (int, float):
                raise ValueError(f"{key} must be a number, got {value!r}")
            return float(value)

        def known(entry: dict, keys: tuple[str, ...]) -> None:
            unknown = sorted(set(entry) - set(keys))
            if unknown:
                raise ValueError(f"unknown keys {unknown}")

        version = data["format_version"] if "format_version" in data else 1
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        known(data, ("format_version", "wires", "gates"))
        gates: list[Gate] = []
        for entry in data["gates"]:
            name = entry["gate"]
            if name not in _GATE_FIELDS:
                raise ValueError(f"unknown gate {name!r}")
            kind, keys = _GATE_FIELDS[name]
            known(entry, ("gate", *keys))
            gates.append(
                kind(*(
                    number(entry, key) if key == "theta"
                    else integer(entry, key)
                    for key in keys
                ))
            )
        spec = CircuitSpec(integer(data, "wires"), tuple(gates))
        spec.validate()
        return spec


# Each gate name of the circuit format, its class and its fields in order:
# the one definition the format has, read by from_json.
_GATE_FIELDS = {
    "init": (Init, ("wire",)),
    "rz": (Rz, ("wire", "theta")),
    "rx": (Rx, ("wire", "theta")),
    "cnot": (CNOT, ("control", "target")),
    "readout": (Readout, ("wire",)),
}


# -- byproduct frame ----------------------------------------------------------


@dataclass
class ByproductFrame:
    """Per-wire X and Z byproduct exponents, mod 2. Phase is not tracked."""

    ax: list[int]
    az: list[int]


def byproduct_indices(mu: str, b: int, c: int) -> tuple[int, int]:
    """X and Z exponents contributed by one interior widget.

    ``b`` is the widget's own outcome, ``c`` the reference bit delivered on
    its third leg. The exponents depend only on b xor c and the widget axis.
    Bits may also be GF(2) forms held as ints (see ``compile_plan``): xor
    then adds forms, and a constant 1 flips their bit 0.
    """
    s = b ^ c
    if mu == "x":
        return s, 1
    if mu == "y":
        return s, s ^ 1
    if mu == "z":
        return 1, s
    raise ValueError(f"unknown axis {mu!r}")


# -- cluster renormalization ----------------------------------------------------


def _termination_reference(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site: Site,
    leg: Leg,
) -> tuple[str, int]:
    """The reference (axis, bit) the pinned boundary feeds a widget leg.

    A ket put on a bra-role leg labels the bit directly; a bra put on a
    ket-role leg labels its complement.
    """
    if term is None:
        raise ProtocolError(
            f"interior site {site} leans on an unpinned boundary"
        )
    vec = term.vec_for(lattice, site, leg)
    bit = vec.bit ^ (1 if vec.role == "bra" else 0)
    return vec.axis, bit


def _running_flip(nu: str, dax: int, daz: int) -> int:
    """How one widget's exponents move a bit carried in the ``nu`` frame."""
    if nu == "x":
        return daz
    if nu == "y":
        return dax ^ daz
    return dax


def _fold_branch(
    lattice: HexLattice,
    assignment: AxisAssignment,
    first: int,
    root: int,
    term: BoundaryTermination | None,
    bit_of,
) -> tuple[str, int, list[int], list[int], dict[int, str]]:
    """Fold the hanging branch entered at site ``first`` from widget ``root``.

    Sites are indices and a matched neighbour is one with the same axis
    code. The branch is a tree: the routing audit rejects every backbone
    whose hanging branch closes a matched loop. Each tree site consumes
    exactly two inputs, its folded children (smaller site first) and the
    standard stems on its unmatched legs (in leg order): one acts as the
    reference for its own exponent contribution, the other keeps running
    toward the root. ``bit_of`` gives each outcome: a 0/1 bit, or a GF(2)
    form held as an int.

    Returns the frame and bit the branch delivers to ``root``, the branch
    sites in the order they are entered, their associates, and each
    branch site's partner frame.
    """
    table = lattice.neighbor_table()
    codes = assignment.codes(lattice)
    mu = AXES[codes[first]]
    members: list[int] = []
    assocs: list[int] = []
    nu_map: dict[int, str] = {}

    def fold(i: int, parent: int) -> tuple[str, int]:
        members.append(i)
        site = divmod(i, lattice.cols)
        children, stems = [], []
        for leg, n in zip(Leg, table[i]):
            if n < 0:
                axis, bit = _termination_reference(lattice, term, site, leg)
                if axis == mu:
                    raise ProtocolError(
                        f"boundary frame at {site} matches the cluster axis"
                    )
                stems.append((axis, bit, n))
            elif codes[n] != codes[i]:
                stems.append((AXES[codes[n]], bit_of(n), n))
            elif n != parent:
                children.append(n)
        inputs = [fold(n, i) for n in sorted(children)]
        inputs += [(axis, bit) for axis, bit, _ in stems]
        assocs.extend(n for _, _, n in stems if n >= 0)
        # reference versus running input, by a fixed structural rule: a lone
        # stem is the reference; otherwise the first input (first-leg stem at
        # a leaf, smaller-site child at a bifurcation) takes that part
        partner, running = inputs[::-1] if len(stems) == 1 else inputs
        nu_p, c_p = partner
        nu_map[i] = nu_p
        dax, daz = byproduct_indices(mu, bit_of(i), c_p)
        nu_r, c_r = running
        return nu_r, c_r ^ _running_flip(nu_r, dax, daz)

    nu, bit = fold(first, root)
    return nu, bit, members, assocs, nu_map


# -- measurement plans ----------------------------------------------------------


@dataclass(frozen=True)
class PlanSite:
    site: Site
    kind: str  # "standard" | "complementary"
    axis: str
    partner_axis: str | None = None
    theta: float = 0.0
    wire: int | None = None


@dataclass(frozen=True)
class CompileFailure:
    reason: str
    detail: str = ""


@dataclass
class MeasurementPlan:
    """Ordered per-site bases plus the Pauli frame, compiled.

    ``order`` covers every lattice site exactly once; ``finalize[i]`` names
    the frame event completed by measuring ``order[i]``, and ``events[e]``
    is that event's kind: "init", "widget", "cnot" or "readout".
    ``readout_sites`` maps each wire to the site its readout measures.

    Frame bits are GF(2) forms (see ``compile_plan``): ``frames[e]`` holds
    each wire's (X, Z) exponents once event ``e`` completes, and
    ``flips[i]`` the bit the rotation at ``order[i]`` changes sign with (X
    for z, Z for x), which reads only sites measured before it. Every
    widget's reference bit is folded into these forms; the plan keeps no
    separate record of it.
    """

    order: tuple[PlanSite, ...]
    finalize: tuple[int | None, ...]
    events: tuple[str, ...]
    readout_sites: dict[int, Site]
    frames: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    flips: dict[int, int]


def compile_plan(
    lattice: HexLattice,
    backbone: Backbone,
    assignment: AxisAssignment,
    circuit: CircuitSpec,
    term: BoundaryTermination | None,
) -> MeasurementPlan | CompileFailure:
    """Lay the circuit's gates onto the routed backbone, site by site.

    Walks every wire right to left in gate order: the first z-axis site
    takes the input, matching-axis sites take the rotations, junction pairs
    take the CNOTs with their fixed complementary bases, and the next
    z-axis site past the last gate takes the readout. Everything between
    becomes a fiducial identity widget; everything off the protocol stays
    standard. Failures are values, the caller resamples.

    The walk runs on site indices, ``lattice.neighbor_table()``, the axis
    codes, the backbone's wire paths and junction chains and their
    ``chain_adjacency``; sites become ``Site`` tuples only for the plan's
    sites and readouts, a pinned boundary leg and a failure's detail. Every
    site is measured along its sampled axis (the audit holds the junctions
    to z and x).

    A hanging branch is folded here, once, on GF(2) forms: site index
    ``i``'s outcome is the int ``2 << i`` and bit 0 holds the constant, so
    the fold's xors return the widget's reference as one parity. The fold
    walks the branch as a tree: the audited backbone guarantees that no
    hanging branch closes a matched loop.

    The frame rules (init, widget, CNOT propagation) run here too, on the
    same forms, as each event is laid down; the plan stores the frame after
    every event and each rotation's flip, taken before its own event.
    """
    try:
        circuit.validate()
    except ValueError as exc:
        return CompileFailure("bad-circuit", str(exc))

    cols = lattice.cols
    table = lattice.neighbor_table()
    code = assignment.codes(lattice).tolist()
    paths, links = backbone.wires, backbone.junctions
    adj = chain_adjacency(paths, links)
    junctions = {i for top, _, bot in links for i in (top, bot)}

    placed: set[int] = set()
    emitted: list[PlanSite] = []
    finalize: list[int | None] = []
    events: list[str] = []
    readout_sites: dict[int, Site] = {}
    # each wire's X and Z exponents as forms, the frame after each event,
    # and each rotation's flip form keyed by its position in ``emitted``
    fax, faz = [0] * circuit.wires, [0] * circuit.wires
    frames: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    flips: dict[int, int] = {}

    def site_at(i: int) -> Site:
        return divmod(i, cols)

    def emit(
        i: int,
        kind: str = "standard",
        partner_axis: str | None = None,
        theta: float = 0.0,
        wire: int | None = None,
        fin: int | None = None,
    ) -> None:
        if i in placed:
            if fin is not None:
                raise ProtocolError(f"{site_at(i)} measured twice")
            return
        placed.add(i)
        axis = AXES[code[i]]
        emitted.append(
            PlanSite(site_at(i), kind, axis, partner_axis, theta, wire)
        )
        finalize.append(fin)

    def form_bit(i: int) -> int:
        return 2 << i

    def complete(kind: str) -> int:
        """Record an event of ``kind`` (the forms hold its rule); its index."""
        events.append(kind)
        frames.append((tuple(fax), tuple(faz)))
        return len(events) - 1

    def resolve(i: int) -> tuple[str, int, int] | CompileFailure:
        """Emit the sources of the reference feeding widget ``i``; return
        its frame axis and the widget's X and Z exponent forms."""
        on_path = adj.get(i, ())
        free = [(leg, n) for leg, n in zip(Leg, table[i]) if n not in on_path]
        if len(free) != 1:
            return CompileFailure(
                "widget-legs", f"{site_at(i)} has {len(free)} free legs"
            )
        leg, n = free[0]
        mu = AXES[code[i]]
        if n < 0:
            s = site_at(i)
            if term is None:
                return CompileFailure(
                    "unpinned-boundary", f"{s} needs a pinned boundary"
                )
            axis, form = _termination_reference(lattice, term, s, leg)
            if axis == mu:
                return CompileFailure(
                    "rank-deficient",
                    f"boundary frame at {s} matches its axis {mu}",
                )
        elif code[n] != code[i]:
            emit(n)
            axis, form = AXES[code[n]], form_bit(n)
        else:
            try:
                axis, form, members, assocs, nu_map = _fold_branch(
                    lattice, assignment, n, i, term, form_bit
                )
            except ProtocolError as exc:
                return CompileFailure("branch-fold", str(exc))
            for a in assocs:
                emit(a)
            for e in members:
                emit(e, "complementary", nu_map[e])
        return (axis, *byproduct_indices(mu, form_bit(i), form))

    def emit_widget(
        i: int, w: int, theta: float = 0.0
    ) -> CompileFailure | None:
        found = resolve(i)
        if isinstance(found, CompileFailure):
            return found
        axis, dax, daz = found
        if theta:  # the rotation adapts to the frame before its own event
            flips[len(emitted)] = fax[w] if AXES[code[i]] == "z" else faz[w]
        fax[w] ^= dax
        faz[w] ^= daz
        emit(i, "complementary", axis, theta, w, fin=complete("widget"))
        return None

    pos = [0] * circuit.wires

    def walk(
        w: int, stop, missing: CompileFailure, fill=None
    ) -> int | CompileFailure:
        """Advance wire ``w`` past its next site where ``stop`` holds.

        Every site passed on the way is handed to ``fill`` (a fiducial
        identity widget by default). Passing a junction fails: the wire
        meets it before the gate that the walk serves, out of circuit
        order. Returns the stop site's position on the wire.
        """
        path = paths[w]
        for k in range(pos[w], len(path)):
            i = path[k]
            if stop(i):
                pos[w] = k + 1
                return k
            if i in junctions:
                return CompileFailure(
                    "junction-misordered",
                    f"wire {w} meets junction {site_at(i)} out of "
                    "circuit order",
                )
            bad = emit_widget(i, w) if fill is None else fill(i)
            if bad is not None:
                return bad
        return missing

    def axis_site(axis: str):
        want = AXES.index(axis)
        return lambda i: i not in junctions and code[i] == want

    jcount = 0
    for gate in circuit.gates:
        if isinstance(gate, Init):
            w = gate.wire
            found = walk(
                w,
                axis_site("z"),
                CompileFailure("no-input-site", f"wire {w}"),
                fill=emit,
            )
            if isinstance(found, CompileFailure):
                return found
            i = paths[w][found]
            fax[w], faz[w] = form_bit(i), 0
            emit(i, fin=complete("init"))
        elif isinstance(gate, (Rz, Rx)):
            w = gate.wire
            axis = "z" if isinstance(gate, Rz) else "x"
            found = walk(
                w,
                axis_site(axis),
                CompileFailure(
                    "wire-exhausted", f"wire {w} lacks a free {axis} site"
                ),
            )
            if isinstance(found, CompileFailure):
                return found
            bad = emit_widget(paths[w][found], w, theta=gate.theta)
            if bad is not None:
                return bad
        elif isinstance(gate, CNOT):
            top, link, bot = links[jcount]
            jcount += 1
            for w, stop in ((gate.control, top), (gate.target, bot)):
                found = walk(
                    w,
                    lambda i: i == stop,
                    CompileFailure(
                        "junction-misordered",
                        f"junction {site_at(stop)} not ahead on wire {w}",
                    ),
                )
                if isinstance(found, CompileFailure):
                    return found
            partners: list[str] = []
            sx = sz = 0
            for k in link:
                found = resolve(k)
                if isinstance(found, CompileFailure):
                    return found
                axis, dax, daz = found
                partners.append(axis)
                sx ^= dax
                sz ^= daz
            c, t = gate.control, gate.target
            # propagate the running frame through the new CNOT, then compose
            # the junction's own byproduct
            faz[c] ^= faz[t]
            fax[t] ^= fax[c]
            fax[c] ^= 1
            faz[c] ^= form_bit(top) ^ sz ^ 1
            fax[t] ^= form_bit(bot) ^ sx ^ 1
            faz[t] ^= 1
            ev = complete("cnot")
            emit(top, "complementary", "x")
            for k, partner in zip(link, partners):
                emit(k, "complementary", partner)
            emit(bot, "complementary", "z", fin=ev)
        else:  # Readout
            w, path = gate.wire, paths[gate.wire]
            found = walk(
                w,
                axis_site("z"),
                CompileFailure("no-readout-site", f"wire {w}"),
            )
            if isinstance(found, CompileFailure):
                return found
            i, s = path[found], site_at(path[found])
            # the readout outcome must stay free: a z-axis neighbour or a
            # z-pinned dangling leg copies or forces it, collapsing the
            # conditional readout distribution
            prev = path[found - 1]
            for leg, n in zip(Leg, table[i]):
                if n == prev:
                    continue
                if n < 0:
                    if term is None or term.vec_for(lattice, s, leg).axis == "z":
                        return CompileFailure(
                            "readout-pinned",
                            f"wire {w} readout {s} pinned through {leg.value}",
                        )
                elif AXES[code[n]] == "z":
                    return CompileFailure(
                        "readout-pinned",
                        f"wire {w} readout {s} copies into {site_at(n)}",
                    )
            emit(i, fin=complete("readout"))
            readout_sites[w] = s
            for t in path[found + 1 :]:
                emit(t)

    sea = [
        PlanSite(site_at(i), "standard", AXES[code[i]])
        for i in range(lattice.n_sites)
        if i not in placed
    ]
    return MeasurementPlan(
        order=tuple(sea) + tuple(emitted),
        finalize=tuple([None] * len(sea)) + tuple(finalize),
        events=tuple(events),
        readout_sites=readout_sites,
        frames=tuple(frames),
        flips={len(sea) + k: form for k, form in flips.items()},
    )


# -- protocol runtime -----------------------------------------------------------


@dataclass(frozen=True)
class LogicalOutcome:
    """Boundary bits per wire, before and after frame correction."""

    raw: tuple[int, ...]
    corrected: tuple[int, ...]


@dataclass
class RunRecord:
    """Per-site outcomes of one protocol run plus the raw readouts."""

    steps: list[StepOutcome]
    readouts: dict[int, int]


def interpret_readout(
    readouts: dict[int, int], frame: ByproductFrame
) -> LogicalOutcome:
    """Boundary bit per wire is the flipped readout; X exponent corrects it."""
    raw = []
    corrected = []
    for w in sorted(readouts):
        c = readouts[w] ^ 1
        raw.append(c)
        corrected.append(c ^ frame.ax[w])
    return LogicalOutcome(tuple(raw), tuple(corrected))


def _parity(form: int, mask: int) -> int:
    """The value of GF(2) ``form`` on the outcomes ``mask``, whose bit
    i + 1 is site index i's outcome (bit 0 clear)."""
    return (form ^ (form & mask).bit_count()) & 1


def _rows(ps: PlanSite, flip):
    """The two outcome rows of ``ps``; a rotation's angle changes sign
    where ``flip`` is set.

    A column of flips over branches (:func:`protocol_branches`) that differ
    gives a (B, 2, 4) stack: the two adapted pairs, indexed by each
    branch's bit.
    """
    if ps.kind == "standard":
        return [standard_covector(ps.axis, b) for b in (0, 1)]
    if np.ndim(flip):
        if flip.min() != flip.max():
            pairs = [_comp_rows(ps, a) for a in (ps.theta, -ps.theta)]
            return np.array(pairs)[flip]
        flip = flip[0]
    return _comp_rows(ps, -ps.theta if flip else ps.theta or 0.0)


def _comp_rows(ps: PlanSite, angle: float) -> list[np.ndarray]:
    return [comp_covector(ps.axis, ps.partner_axis, angle, b) for b in (0, 1)]


def _step(
    engine: TracedEngine, site: Site, rows: list[np.ndarray]
) -> tuple[float, float]:
    """Outcome probabilities (p0, p1) of measuring ``site`` in ``rows``.

    After polarization both rows span the site's +-3/2 subspace, so their
    two effect weights, read up to one power of two, sum to the weight.
    """
    e0, e1 = (max(e, 0.0) for e in engine.relative_weights(site, rows))
    total = e0 + e1
    if not total > 0.0 or not math.isfinite(total):
        raise ProtocolError(f"degenerate weights at {site}")
    p0 = e0 / total
    return p0, 1.0 - p0


def _drive(
    assignment: AxisAssignment,
    plan: MeasurementPlan,
    engine: TracedEngine | None,
    rng: np.random.Generator,
) -> tuple[RunRecord, ByproductFrame, list[dict]]:
    """Measure every site in plan order, reading the frame off its forms.

    With an ``engine`` (exact mode: ``assignment``'s polarized state) each
    outcome is drawn from the true conditional distribution, so the
    corrected readouts follow the logical circuit. Without one (iid mode)
    fair coins decide instead: they exercise the full control flow at any
    lattice size, but carry no circuit information, so only the
    bookkeeping, not the logical statistics, is faithful. The outcomes are
    one int mask, bit i + 1 for site index i, on which every stored form
    (flips, frames) is one parity.
    """
    cols = assignment.cols
    mask = 0
    steps: list[StepOutcome] = []
    snapshots: list[dict] = []

    def frame(forms) -> ByproductFrame:
        ax, az = ([_parity(f, mask) for f in fs] for fs in forms)
        return ByproductFrame(ax, az)

    for idx, ps in enumerate(plan.order):
        if engine is None:
            b, p = int(rng.integers(0, 2)), 0.5
        else:
            rows = _rows(ps, _parity(plan.flips.get(idx, 0), mask))
            probs = _step(engine, ps.site, rows)
            b = 0 if rng.random() < probs[0] else 1
            p = probs[b]
            engine.project(ps.site, rows[b])
        r, c = ps.site
        mask |= b << (1 + r * cols + c)
        steps.append(StepOutcome(ps.site, ps.kind, b, p))
        fin = plan.finalize[idx]
        if fin is not None:
            now = frame(plan.frames[fin])
            kind = plan.events[fin]
            snapshots.append(
                {"event": fin, "kind": kind, "ax": now.ax, "az": now.az}
            )
    readouts = {
        w: (mask >> (1 + r * cols + c)) & 1
        for w, (r, c) in plan.readout_sites.items()
    }
    return RunRecord(steps, readouts), frame(plan.frames[-1]), snapshots


@dataclass(frozen=True)
class ProtocolBranches:
    """Every projective branch of an exact protocol run, one row per leaf.

    ``outcomes[i, j]`` is leaf i's outcome at ``sites[j]`` (sites sorted);
    ``ax``, ``az`` and ``corrected`` hold its final frame and its
    frame-corrected readout per wire. All bits are uint8.
    """

    sites: tuple[Site, ...]
    outcomes: np.ndarray  # (B, sites)
    probability: np.ndarray  # (B,)
    ax: np.ndarray  # (B, wires)
    az: np.ndarray  # (B, wires)
    corrected: np.ndarray  # (B, wires)

    def __len__(self) -> int:
        return len(self.probability)


def _bit_columns(columns, n: int) -> np.ndarray:
    """(n, len(columns)) uint8, one column per entry; scalars broadcast."""
    return np.array([np.broadcast_to(c, n) for c in columns], np.uint8).T


def protocol_branches(
    lattice: HexLattice,
    assignment: AxisAssignment,
    plan: MeasurementPlan,
    term: BoundaryTermination,
) -> ProtocolBranches:
    """Enumerate every outcome branch of the plan with exact probabilities.

    Probabilities are conditioned on the given axis assignment. Branches
    lighter than ``MIN_BRANCH_PROBABILITY`` are dropped; the survivors'
    weights still sum to 1 up to that cutoff.

    The walk goes level by level: every live branch is stacked in one
    :class:`DenseEngine` and each site of ``plan.order`` is one batched
    step (``split``, then ``keep``). Children keep (branch, outcome)
    order, so the leaves come out in depth-first order. Outcomes are bit
    rows over the live branches, one per site index, reindexed once a
    level; a stored form (a flip, the final frame) is the xor of its
    sites' rows.
    """
    engine = DenseEngine(lattice, assignment, term)
    probs = np.ones(1)
    bits = np.zeros((lattice.n_sites, 1), np.uint8)  # row i: site index i

    def column(form: int):
        """``form`` on every live branch; a scalar if it reads no site."""
        value, form = form & 1, form >> 1
        while form:
            low = form & -form
            value = value ^ bits[low.bit_length() - 1]
            form ^= low
        return value

    for idx, ps in enumerate(plan.order):
        rows = _rows(ps, column(plan.flips.get(idx, 0)))
        weights = engine.split(ps.site, rows)
        total = weights.sum(axis=1)
        if not np.all((total > 0.0) & np.isfinite(total)):
            raise ProtocolError(f"degenerate weights at {ps.site}")
        p0 = weights[:, 0] / total
        child = (probs[:, np.newaxis] * np.stack([p0, 1.0 - p0], 1)).ravel()
        picks = np.flatnonzero(child > MIN_BRANCH_PROBABILITY)
        engine.keep(picks)
        probs = child[picks]
        bits = bits[:, picks >> 1]
        bits[lattice.site_index(ps.site)] = picks & 1
        if not picks.size:
            break
    ax, az = ([column(f) for f in fs] for fs in plan.frames[-1])
    readouts = {
        w: bits[lattice.site_index(s)] for w, s in plan.readout_sites.items()
    }
    corrected = interpret_readout(readouts, ByproductFrame(ax, az)).corrected
    n = len(probs)
    return ProtocolBranches(
        tuple(lattice.sites()),
        bits.T,
        probs,
        _bit_columns(ax, n),
        _bit_columns(az, n),
        _bit_columns(corrected, n),
    )


def conditional_logical_table(
    branches: ProtocolBranches, plan: MeasurementPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Group branches by every outcome except the readouts.

    Returns the (G,) group weights and the (G, 2^wires) corrected-outcome
    distribution of each group, groups in ascending order of their
    outcomes. Column k of a distribution is the corrected outcome with
    wire 0 as the most significant bit of k, the order of ``np.ndindex``.
    If the protocol decouples, every group shows the same distribution.
    """
    readouts = set(plan.readout_sites.values())
    kept = [j for j, s in enumerate(branches.sites) if s not in readouts]
    # each leaf's kept outcomes as one integer, first site most significant,
    # so integer order is row order; the qubit cap keeps it under 2^24
    key = branches.outcomes[:, kept] @ (1 << np.arange(len(kept))[::-1])
    keys, group = np.unique(key, return_inverse=True)
    weight = np.bincount(group, branches.probability, minlength=len(keys))
    wires = branches.corrected.shape[1]
    cell = group << wires | branches.corrected @ (1 << np.arange(wires)[::-1])
    dist = np.bincount(
        cell, branches.probability / weight[group], minlength=len(keys) << wires
    )
    return weight, dist.reshape(-1, 1 << wires)


# -- full protocol --------------------------------------------------------------


def auto_spacing(lattice: HexLattice, circuit: CircuitSpec) -> int:
    """Widest wire band that still fits every wire on the patch."""
    if circuit.wires == 1:
        return max(1, min(DEFAULT_SPACING, lattice.rows))
    fit = (lattice.rows - 1) // (circuit.wires - 1)
    return max(1, min(DEFAULT_SPACING, fit))


@dataclass
class ProtocolResult:
    """Everything one protocol run produced, replayable from the seed."""

    outcome: LogicalOutcome
    record: RunRecord
    frames: list[dict]
    frame: ByproductFrame
    assignment: AxisAssignment
    backbone: Backbone
    plan: MeasurementPlan
    attempts: int
    attempt_failures: dict[str, int]
    seed: int
    mode: SampleMode

    def to_json(self, lattice: HexLattice) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "seed": self.seed,
            "mode": self.mode.value,
            "attempts": self.attempts,
            "attempt_failures": dict(sorted(self.attempt_failures.items())),
            "rows": lattice.rows,
            "cols": lattice.cols,
            "assignment": self.assignment.to_json(lattice),
            "backbone": self.backbone.to_json(lattice),
            "steps": [
                {
                    "site": list(s.site),
                    "kind": s.kind,
                    "outcome": s.outcome,
                    "probability": s.probability,
                }
                for s in self.record.steps
            ],
            "frames": self.frames,
            "readouts": {
                str(w): m for w, m in sorted(self.record.readouts.items())
            },
            "raw": list(self.outcome.raw),
            "corrected": list(self.outcome.corrected),
        }


def prepare_protocol(
    lattice: HexLattice,
    assignment: AxisAssignment,
    circuit: CircuitSpec,
    term: BoundaryTermination,
    spacing: int | None = None,
):
    """Cluster, route and compile one axis pattern.

    Returns (backbone, plan) or the failure value from whichever stage
    declined.
    """
    if spacing is None:
        spacing = auto_spacing(lattice, circuit)
    (analysed,) = analyse_patterns(lattice, assignment.codes(lattice)[None])
    return _route_and_compile(
        lattice, assignment, analysed, circuit, term, spacing
    )


def _route_and_compile(lattice, assignment, analysed, circuit, term, spacing):
    """Route and compile one pattern, given its (clusters, disabled ids):
    (backbone, plan) or the failure value of the stage that declined."""
    backbone = route_backbone(lattice, assignment, *analysed, circuit, spacing)
    if isinstance(backbone, RoutingFailure):
        return backbone
    plan = compile_plan(lattice, backbone, assignment, circuit, term)
    if isinstance(plan, CompileFailure):
        return plan
    return backbone, plan


def _child_seed(ss: np.random.SeedSequence) -> int:
    """The seed of the next child spawned from ``ss``."""
    (child,) = ss.spawn(1)
    return int(child.generate_state(1, np.uint64)[0])


def run_protocol(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    circuit: CircuitSpec,
    rng_seed: int,
    mode: SampleMode | str = SampleMode.EXACT,
    spacing: int | None = None,
) -> ProtocolResult:
    """Sample axis patterns until one routes, then run the full protocol.

    Each attempt draws a fresh stage-one sample from its own child seed, so
    results are reproducible from ``rng_seed`` alone; every rejected
    attempt counts its failure reason, up to ``MAX_ROUTE_ATTEMPTS``
    attempts. Each block of patterns is analysed at once
    (``analyse_patterns``), then routed in order up to the first success:
    iid blocks hold 1, 2, 4, ... attempts, up to ``BLOCK_SITES // n_sites``
    and the attempts left; an exact pattern costs milliseconds, so exact
    blocks hold one. In exact mode both stages run on the pinned double
    layer: stage 2 on the routed axes, every site polarized. A ``term`` of
    None pins the boundary to the default z frame. An exact run over the
    strip cap, and wires that cannot fit the patch at ``spacing``, fail
    before any sample is drawn.
    """
    mode = SampleMode(mode)
    circuit.validate()
    if mode is SampleMode.EXACT:
        _sweep_lines(lattice)  # the strip cap
    if term is None:
        term = BoundaryTermination()
    if spacing is None:
        spacing = auto_spacing(lattice, circuit)
    unfit = spacing_failure(lattice, circuit.wires, spacing)
    if unfit is not None:
        raise ProtocolError(
            f"no embedding fits the patch: {unfit.reason}: {unfit.detail}"
        )
    iid = mode is SampleMode.IID
    cap = max(1, BLOCK_SITES // lattice.n_sites) if iid else 1
    root_ss = np.random.SeedSequence(rng_seed)
    last = "no attempt ran"
    failures: Counter[str] = Counter()
    attempt, block = 0, 1
    while attempt < MAX_ROUTE_ATTEMPTS:
        # Spawning a block's children at once yields the same children as
        # spawning them one at a time, so every attempt keeps its stage-1
        # seed (its child's first spawn) and a routed attempt its stage-2
        # seed (the second).
        children = root_ss.spawn(min(block, cap, MAX_ROUTE_ATTEMPTS - attempt))
        block *= 2
        assignments = [
            stage1_sample(lattice, term, mode, _child_seed(child))
            for child in children
        ]
        analysed = analyse_patterns(
            lattice, np.stack([asg.code_array for asg in assignments])
        )
        for child, assignment, pattern in zip(children, assignments, analysed):
            attempt += 1
            prepared = _route_and_compile(
                lattice, assignment, pattern, circuit, term, spacing
            )
            if isinstance(prepared, (RoutingFailure, CompileFailure)):
                last = f"{prepared.reason}: {prepared.detail}"
                failures[prepared.reason] += 1
                continue
            backbone, plan = prepared
            engine = None
            if mode is SampleMode.EXACT:  # stage 2 on the polarized layers
                engine = TracedEngine(lattice, term)
                for site in lattice.sites():
                    engine.apply_op(site, povm_element(assignment[site]))
            rng = np.random.default_rng(_child_seed(child))
            record, frame, snaps = _drive(assignment, plan, engine, rng)
            return ProtocolResult(
                outcome=interpret_readout(record.readouts, frame),
                record=record,
                frames=snaps,
                frame=frame,
                assignment=assignment,
                backbone=backbone,
                plan=plan,
                attempts=attempt,
                attempt_failures=dict(failures),
                seed=rng_seed,
                mode=mode,
            )
    histogram = ", ".join(f"{r} {n}" for r, n in sorted(failures.items()))
    histogram = histogram or "none"
    raise ProtocolError(
        f"no working embedding in {MAX_ROUTE_ATTEMPTS} attempts; last failure "
        f"{last}; failures by reason: {histogram}"
    )

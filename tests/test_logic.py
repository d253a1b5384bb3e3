import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest

from akltmqc import contraction, logic, router
from akltmqc.cli import e2e_fixtures
from akltmqc.contraction import (
    DENSE_SITE_CAP,
    QUBIT_SITE_CAP,
    BoundaryTermination,
    DenseEngine,
    LatticeSizeError,
    build_state,
    chain_rule_sample,
)
from akltmqc.lattice import Leg, build_lattice
from akltmqc.logic import (
    CNOT,
    ByproductFrame,
    CircuitSpec,
    CompileFailure,
    Init,
    ProtocolError,
    Readout,
    Rx,
    Rz,
    _fold_branch,
    auto_spacing,
    byproduct_indices,
    compile_plan,
    conditional_logical_table,
    prepare_protocol,
    protocol_branches,
    run_protocol,
)
from akltmqc.oracle import reference_circuit_sim
from akltmqc.router import (
    ClusterExtension,
    RoutingFailure,
    chain_adjacency,
    disabled_ids,
    find_clusters,
    flag_off_limits,
    route_backbone,
)
from akltmqc.sampler import AxisAssignment, stage1_sample
from akltmqc.tensors import (
    physical_basis,
    povm_element,
    standard_covector,
    virtual_bra,
)

from reference import tv_distance


def _fixture(rows_axes):
    rows, cols = len(rows_axes), len(rows_axes[0])
    lat = build_lattice(rows, cols)
    asg = AxisAssignment.from_axes(
        lat,
        {(r, c): rows_axes[r][c] for r in range(rows) for c in range(cols)},
    )
    return lat, asg


IDENTITY = CircuitSpec(1, (Init(0), Readout(0)))


@pytest.mark.parametrize(
    "mu,b,c,want",
    [
        ("z", 1, 0, (1, 1)),
        ("z", 0, 0, (1, 0)),
        ("x", 0, 0, (0, 1)),
        ("x", 1, 0, (1, 1)),
        ("y", 1, 1, (0, 1)),
        ("y", 1, 0, (1, 0)),
    ],
)
def test_byproduct_indices(mu, b, c, want):
    assert byproduct_indices(mu, b, c) == want


def test_byproduct_depends_only_on_xor():
    for mu in ("x", "y", "z"):
        assert byproduct_indices(mu, 0, 1) == byproduct_indices(mu, 1, 0)
        assert byproduct_indices(mu, 0, 0) == byproduct_indices(mu, 1, 1)


def test_circuit_validation():
    with pytest.raises(ValueError):
        CircuitSpec(1, (Init(0), Readout(0), Init(0))).validate()
    with pytest.raises(ValueError):
        CircuitSpec(1, (Readout(0),)).validate()
    with pytest.raises(ValueError):
        CircuitSpec(2, (Init(0), Init(1), CNOT(1, 0), Readout(0), Readout(1))).validate()
    with pytest.raises(ValueError):
        CircuitSpec(1, (Init(0), Rz(0, math.nan), Readout(0))).validate()
    with pytest.raises(ValueError):
        CircuitSpec(1, (Init(0), Rz(5, 0.1), Readout(0))).validate()


def _quadratic_validate(circuit):
    """The wire-by-wire scan ``CircuitSpec.validate`` replaced: the first
    problem's message, or None."""
    for g in circuit.gates:
        for w in logic._gate_wires(g):
            if not 0 <= w < circuit.wires:
                return f"gate {g} touches missing wire {w}"
        if isinstance(g, (Rz, Rx)) and not math.isfinite(g.theta):
            return f"gate {g} has a non-finite angle"
        if isinstance(g, CNOT) and g.control >= g.target:
            return "CNOT control must ride the wire above its target"
    for w in range(circuit.wires):
        seq = [g for g in circuit.gates if w in logic._gate_wires(g)]
        if not seq or not isinstance(seq[0], Init):
            return f"wire {w} must open with Init"
        if not isinstance(seq[-1], Readout):
            return f"wire {w} must close with Readout"
        if sum(isinstance(g, Init) for g in seq) != 1:
            return f"wire {w} has a stray Init"
        if sum(isinstance(g, Readout) for g in seq) != 1:
            return f"wire {w} has a stray Readout"
    return None


def test_circuit_validation_messages_match_the_wire_scan():
    # the one-pass check finds the same first problem, message and all:
    # valid circuits with up to two extra gates, one gate moved at times
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        wires = int(rng.integers(1, 4))
        pool = [
            Init(0), Readout(wires - 1), Rz(0, 0.5), Rx(wires - 1, math.inf),
            Init(wires), Readout(-1),
            *(CNOT(a, b) for a in range(wires) for b in range(wires)),
        ]
        middle = rng.integers(0, len(pool), int(rng.integers(0, 3)))
        gates = [
            *map(Init, range(wires)),
            *(pool[k] for k in middle),
            *map(Readout, range(wires)),
        ]
        if rng.random() < 0.3:
            gates.insert(int(rng.integers(0, len(gates))), gates.pop())
        circuit = CircuitSpec(wires, tuple(gates))
        want = _quadratic_validate(circuit)
        try:
            circuit.validate()
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, circuit
        seen.add(want and re.sub(r"\(.*\)|-?\d+", "", want))
    assert len(seen) == 9  # every message, and valid circuits


def test_circuit_validation_reads_each_gate_once(monkeypatch):
    wires = 2000
    gates = (
        [Init(w) for w in range(wires)]
        + [CNOT(w, w + 1) for w in range(0, wires, 2)]
        + [Readout(w) for w in range(wires)]
    )
    calls = 0
    gate_wires = logic._gate_wires

    def counted(gate):
        nonlocal calls
        calls += 1
        return gate_wires(gate)

    monkeypatch.setattr(logic, "_gate_wires", counted)
    CircuitSpec(wires, tuple(gates)).validate()
    assert 0 < calls <= 2 * len(gates)


def test_circuit_json_reader():
    # every gate kind of the format, read from the text of a circuit file
    text = """{"format_version": 1, "wires": 2, "gates": [
        {"gate": "init", "wire": 0}, {"gate": "init", "wire": 1},
        {"gate": "rz", "wire": 0, "theta": 0.25},
        {"gate": "rx", "wire": 1, "theta": -1.5},
        {"gate": "cnot", "control": 0, "target": 1},
        {"gate": "readout", "wire": 0}, {"gate": "readout", "wire": 1}]}"""
    circ = CircuitSpec.from_json(json.loads(text))
    assert circ == CircuitSpec(
        2,
        (
            Init(0),
            Init(1),
            Rz(0, 0.25),
            Rx(1, -1.5),
            CNOT(0, 1),
            Readout(0),
            Readout(1),
        ),
    )
    # an integral angle is a JSON number too, read as a float
    data = json.loads(text)
    data["gates"][2]["theta"] = 1
    theta = CircuitSpec.from_json(data).gates[2].theta
    assert type(theta) is float and theta == 1.0


def test_auto_spacing():
    assert auto_spacing(build_lattice(2, 5), IDENTITY) >= 1
    two = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    assert auto_spacing(build_lattice(3, 4), two) == 2


def test_compile_rejects_pinned_readout():
    # a z neighbour away from the wire would copy the readout outcome and
    # post-select the logical bit
    lat, asg = _fixture(["yzzxz", "xyxyx"])
    prep = prepare_protocol(lat, asg, IDENTITY, BoundaryTermination())
    assert isinstance(prep, CompileFailure)
    assert prep.reason == "readout-pinned"


ROTATIONS = CircuitSpec(1, (Init(0), Rz(0, 0.3), Rx(0, 0.5), Readout(0)))


@pytest.mark.parametrize(
    "reason,seed,pin,circuit,detail",
    [
        # the first iid 2x6 patterns (seeds 0-99) that fail with each reason
        ("rank-deficient", 2, "x", IDENTITY,
         "boundary frame at (0, 3) matches its axis x"),
        ("branch-fold", 69, "z", ROTATIONS,
         "boundary frame at (1, 5) matches the cluster axis"),
        ("no-input-site", 43, "z", IDENTITY, "wire 0"),
        ("no-readout-site", 0, "z", IDENTITY, "wire 0"),
        ("widget-legs", 1, "z", ROTATIONS, "(0, 0) has 2 free legs"),
        ("wire-exhausted", 0, "z", ROTATIONS, "wire 0 lacks a free z site"),
        ("readout-pinned", 2, "z", IDENTITY,
         "wire 0 readout (0, 0) pinned through left"),
        ("readout-pinned", 5, "z", IDENTITY,
         "wire 0 readout (0, 1) copies into (0, 0)"),
    ],
)
def test_compile_failure_reasons_are_reached(
    reason, seed, pin, circuit, detail
):
    lat = build_lattice(2, 6)
    asg = stage1_sample(lat, None, "iid", seed)
    prep = prepare_protocol(lat, asg, circuit, BoundaryTermination(axis=pin))
    assert prep == CompileFailure(reason, detail)


def test_compile_rejects_bad_input():
    lat, asg = _fixture(["yxzxz", "xyxyx"])
    backbone, _ = prepare_protocol(lat, asg, IDENTITY, BoundaryTermination())
    no_readout = CircuitSpec(1, (Init(0),))
    bad = compile_plan(lat, backbone, asg, no_readout, BoundaryTermination())
    assert bad == CompileFailure(
        "bad-circuit", "wire 0 must close with Readout"
    )
    # the fiducial widget (0, 3) takes its bit from its dangling stem
    bare = compile_plan(lat, backbone, asg, IDENTITY, None)
    assert bare == CompileFailure(
        "unpinned-boundary", "(0, 3) needs a pinned boundary"
    )


def test_compile_rejects_a_junction_out_of_circuit_order():
    # criterion 6's CNOT fixture with an Rx between the input and the CNOT:
    # wire 0 runs (0, 3) z, (0, 2) z control junction, (0, 1) z, (0, 0) y,
    # so the walk to the rotation's x site meets the junction first
    _, lat, asg, term, _, spacing = e2e_fixtures()[2]
    circuit = CircuitSpec(
        2,
        (Init(0), Init(1), Rx(0, 0.5), CNOT(0, 1), Readout(0), Readout(1)),
    )
    prep = prepare_protocol(lat, asg, circuit, term, spacing)
    assert prep == CompileFailure(
        "junction-misordered",
        "wire 0 meets junction (0, 2) out of circuit order",
    )


def test_compile_fails_on_a_link_widget():
    # criterion 6's CNOT fixture with the link cut to its second site,
    # (1, 1): the chain then runs (0, 2), (1, 1), (2, 1), and (1, 1) keeps
    # two of its three legs free, so resolving the link fails
    _, lat, asg, term, circuit, spacing = e2e_fixtures()[2]
    backbone, _ = prepare_protocol(lat, asg, circuit, term, spacing)
    [(top, link, bot)] = backbone.junctions
    assert [divmod(k, lat.cols) for k in link] == [(1, 2), (1, 1)]
    cut = dataclasses.replace(backbone, junctions=((top, link[1:], bot),))
    assert compile_plan(lat, cut, asg, circuit, term) == CompileFailure(
        "widget-legs", "(1, 1) has 2 free legs"
    )


CNOT_CIRCUIT = CircuitSpec(
    2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
)


@functools.cache
def _census():
    """(lattice, assignment, term, backbone, plan, ``_ref_plan``) of every
    routed plan in a census: iid seeds 0-79 on 2x6 to 20x40 with z and x
    pins, for the identity and rotation circuits; the one-CNOT 8x16 runs of
    root seeds 4, 5 and 11; and the criterion-6 fixtures."""
    out = []
    for rows, cols in ((2, 6), (3, 6), (4, 8), (8, 16), (20, 40)):
        lat = build_lattice(rows, cols)
        for pin in ("z", "x"):
            term = BoundaryTermination(axis=pin)
            for seed in range(80):
                asg = stage1_sample(lat, None, "iid", seed)
                for circuit in (IDENTITY, ROTATIONS):
                    prep = prepare_protocol(lat, asg, circuit, term)
                    if not isinstance(prep, (RoutingFailure, CompileFailure)):
                        out.append((lat, asg, term, *prep, circuit))
    lat, term = build_lattice(8, 16), BoundaryTermination(axis="x")
    for seed in (4, 5, 11):
        res = run_protocol(lat, term, CNOT_CIRCUIT, seed, mode="iid")
        prep = res.backbone, res.plan
        out.append((lat, res.assignment, term, *prep, CNOT_CIRCUIT))
    for _, lat, asg, term, circuit, spacing in e2e_fixtures():
        prep = prepare_protocol(lat, asg, circuit, term, spacing)
        out.append((lat, asg, term, *prep, circuit))
    return [(*case[:5], _ref_plan(*case)) for case in out]


def _ref_plan(lat, asg, term, backbone, plan, circuit):
    """(events, free legs, reference forms) of ``plan``, derived from the
    circuit and the backbone, not read off the plan. An event is (kind,
    wire, sites, gate): an event completed on a wire is its widget, the
    others follow the circuit's Init, CNOT and Readout gates, a CNOT's
    sites being its junction chain. Each widget (a widget event's site, a
    link site) maps to its one free leg, (leg, neighbour index or -1), and
    to its reference (axis, GF(2) form), site index i's outcome 2 << i."""
    gates = iter([g for g in circuit.gates if not isinstance(g, (Rz, Rx))])
    chains = iter(backbone.junctions)
    events, widgets = [], []
    done = [ps for ps, f in zip(plan.order, plan.finalize) if f is not None]
    for ps in done:
        gate = None if ps.wire is not None else next(gates)
        if gate is None:
            events.append(("widget", ps.wire, (ps.site,), None))
            widgets.append(ps.site)
        elif isinstance(gate, CNOT):
            top, link, bot = next(chains)
            chain = tuple(divmod(i, lat.cols) for i in (top, *link, bot))
            events.append(("cnot", None, chain, gate))
            widgets += chain[1:-1]
        else:
            kind = "init" if isinstance(gate, Init) else "readout"
            events.append((kind, gate.wire, (ps.site,), gate))
    assert tuple(ev[0] for ev in events) == plan.events
    adj = chain_adjacency(backbone.wires, backbone.junctions)
    table, free = lat.neighbor_table(), {}
    for s, i in zip(widgets, map(lat.site_index, widgets)):
        [free[s]] = [(g, n) for g, n in zip(Leg, table[i]) if n not in adj[i]]
    forms = {
        s: _ref_reference(lat, asg, term, s, leg, (2).__lshift__)
        for s, leg in free.items()
    }
    return events, free, forms


def _ref_reference(lat, asg, term, site, free, bit_of):
    """The (axis, bit) widget ``site`` reads on its free leg: the pinned
    boundary, a standard neighbour's outcome, or its hanging branch folded,
    ``bit_of`` giving each site index's outcome (a bit, or a form)."""
    (leg, n), codes, i = free, asg.codes(lat), lat.site_index(site)
    if n < 0:
        return logic._termination_reference(lat, term, site, leg)
    if codes[n] != codes[i]:
        return asg[divmod(n, lat.cols)], bit_of(n)
    return _fold_branch(lat, asg, n, i, term, bit_of)[:2]


def _fold_entries(lat, asg, free):
    """{widget: entry site} for every reference fed by a fold: the widget's
    neighbour on its free leg, when it shares the widget's axis."""
    codes = asg.codes(lat)
    return {
        s: divmod(n, lat.cols)
        for s, (_, n) in free.items()
        if n >= 0 and codes[n] == codes[lat.site_index(s)]
    }


def test_compile_invariants_held_by_routing():
    # compile_plan has no coverage, associate-clash, branch-clash, leak or
    # loop check: it trusts five facts about a routed, audited backbone.
    # - Every lattice site lands in the plan once (coverage): the sea is
    #   the complement of the placed sites, and the audit's jump and band
    #   checks keep every backbone site on the lattice.
    # - A reference reads standard sites, or sites of its own hanging
    #   branch, never another interior site (associate-clash):
    #   _assemble's backbone-adjacency (a stem onto the backbone) and its
    #   phase-two cluster-loop (a stem onto an extension) come first.
    # - A hanging branch is folded from one root only (branch-clash): a
    #   branch that reaches the backbone twice is _assemble's phase-one
    #   cluster-loop ("reattaches"), and the audit's loop rank counts it.
    #   So the root recorded on a fold's entry site is the folding widget.
    # - No stem of a hanging branch leaks onto an interior-measured site
    #   (leak): a branch site with an unmatched neighbour on the backbone
    #   or on an extension is _assemble's phase-two cluster-loop
    #   ("touches interior site").
    # - A hanging branch is a tree, so the fold needs no loop rule: the
    #   audit's loop rank rejects a branch that closes a matched loop
    #   (test_audit_rejects_looped_hanging_branches).
    # Nor has it a junction-axes check: that is the audit's "is not
    # z-axis" / "is not x-axis" (tests/test_router.py).
    plans = _census()
    folds = 0
    for lat, asg, _, backbone, plan, (_, free, forms) in plans:
        assert sorted(ps.site for ps in plan.order) == list(lat.sites())
        kind = {ps.site: ps.kind for ps in plan.order}
        entries = _fold_entries(lat, asg, free)
        folds += len(entries)
        index = lat.site_index
        for s, n in entries.items():
            assert backbone.roles[index(n)] == ClusterExtension(index(s))
        for s, (_, form) in forms.items():
            for x in _form_sites(lat, form):
                assert kind[x] == "standard" or (
                    s in entries
                    and backbone.roles[index(x)] == ClusterExtension(index(s))
                )
    assert len(plans) > 150 and folds > 50


def test_plan_sites_measure_their_sampled_axis():
    # compile_plan reads every plan site's axis off its axis code, junctions
    # included: the audit holds controls to z and targets to x
    junctions = 0
    for _, asg, _, backbone, plan, _ in _census():
        for ps in plan.order:
            assert ps.axis == asg[ps.site]
        junctions += 2 * len(backbone.junctions)
    assert junctions > 0


def test_fold_references_are_parities():
    # the fold compile_plan runs on GF(2) forms for a hanging branch is a
    # parity: for any outcomes it evaluates to the fold that stage 2 would
    # compute on the bits, in the frame the widget's partner axis names
    rng = np.random.default_rng(13)
    checked = 0
    for lat, asg, term, _, plan, (_, free, forms) in _census():
        partner = {ps.site: ps.partner_axis for ps in plan.order}
        for s in _fold_entries(lat, asg, free):
            (nu, form), leg = forms[s], free[s]
            assert nu == partner[s]
            for _ in range(8):
                bits = rng.integers(0, 2, lat.n_sites).tolist()
                mask = sum(b << (1 + i) for i, b in enumerate(bits))
                got = _ref_reference(lat, asg, term, s, leg, bits.__getitem__)
                assert (nu, logic._parity(form, mask)) == got
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("seed", [133, 185])
def test_audit_rejects_looped_hanging_branches(monkeypatch, seed):
    # compile_plan folds hanging branches as trees and has no loop guard:
    # it relies on the audit's loop rank. On these iid 4x8 patterns the
    # branch hanging at (0, 6) closes a matched hexagon, and the audit
    # rejects the backbone before any fold runs
    lat = build_lattice(4, 8)
    asg = stage1_sample(lat, None, "iid", seed)
    prep = prepare_protocol(lat, asg, IDENTITY, BoundaryTermination(axis="x"))
    assert prep == RoutingFailure(
        "audit", "interior region closes 1 loops, circuit calls for 0"
    )
    monkeypatch.setattr(router, "audit_backbone", lambda *args: [])
    clusters = find_clusters(lat, asg)
    disabled = disabled_ids(flag_off_limits(lat, clusters))
    spacing = auto_spacing(lat, IDENTITY)
    backbone = route_backbone(lat, asg, clusters, disabled, IDENTITY, spacing)
    branch = {
        divmod(x, lat.cols)
        for x, role in backbone.roles.items()
        if role == ClusterExtension(root=lat.site_index((0, 6)))
    }
    # a tree on k sites has k - 1 bonds
    bonds = sum(a in branch and b in branch for a, b in lat.bond_sites())
    assert bonds == len(branch) == 6


def _form_sites(lat, form):
    """The sites whose outcomes the GF(2) ``form`` reads."""
    return [
        divmod(i, lat.cols)
        for i in range(form.bit_length() - 1)
        if form >> (i + 1) & 1
    ]


def test_events_read_only_earlier_non_readout_sites():
    # every site an event reads (its own sites, their references' parities
    # and the frame forms it leaves) is measured no later than the site
    # completing it, each rotation's flip form reads only sites measured
    # before it, and no reference reads a readout, so the readouts can be
    # measured last. A form that read a later site would read 0 silently.
    flips = 0
    for lat, _, _, _, plan, (events, _, forms) in _census():
        position = {ps.site: i for i, ps in enumerate(plan.order)}
        readouts = set(plan.readout_sites.values())
        refs = {s: _form_sites(lat, form) for s, (_, form) in forms.items()}
        for idx, fin in enumerate(plan.finalize):
            if fin is None:
                continue
            _, _, sites, _ = events[fin]
            reads = set(sites)
            for s in sites:
                reads.update(refs.get(s, ()))
            for form in (*plan.frames[fin][0], *plan.frames[fin][1]):
                reads.update(_form_sites(lat, form))
            assert max(position[x] for x in reads) <= idx
        for idx, form in plan.flips.items():
            assert all(position[x] < idx for x in _form_sites(lat, form))
            flips += 1
        for ref in refs.values():
            assert not readouts & set(ref)
    assert flips > 50


def test_identity_plan_layout():
    lat, asg = _fixture(["yxzxz", "xyxyx"])
    term = BoundaryTermination()
    backbone, plan = prepare_protocol(lat, asg, IDENTITY, term)
    assert plan.readout_sites == {0: (0, 2)}
    events, _, _ = _ref_plan(lat, asg, term, backbone, plan, IDENTITY)
    [init] = [ev for ev in events if ev[0] == "init"]
    assert init[1:3] == (0, ((0, 4),))
    kinds = {ps.site: ps.kind for ps in plan.order}
    assert kinds[(0, 4)] == "standard"
    assert kinds[(0, 3)] == "complementary"


def _folded_identity_case(rows, cols, seed):
    """An x-pinned iid pattern whose identity plan reads a folded branch:
    2x6 seed 21 (256 branches) and 3x5 seed 18 (512 branches)."""
    lat, term = build_lattice(rows, cols), BoundaryTermination(axis="x")
    asg = stage1_sample(lat, None, "iid", seed)
    backbone, plan = prepare_protocol(lat, asg, IDENTITY, term)
    _, free, _ = _ref_plan(lat, asg, term, backbone, plan, IDENTITY)
    assert _fold_entries(lat, asg, free)
    return lat, asg, term, plan


def _group_dists(branches, plan):
    """Each group's corrected-outcome distribution, keyed like
    ``reference_circuit_sim``."""
    _, dist = conditional_logical_table(branches, plan)
    keys = list(np.ndindex((2,) * len(plan.readout_sites)))
    return [dict(zip(keys, row.tolist())) for row in dist]


def test_identity_branches_decoupled():
    lat, asg = _fixture(["yxzxz", "xyxyx"])
    term = BoundaryTermination()
    _, plan = prepare_protocol(lat, asg, IDENTITY, term)
    cases = [(lat, asg, term, plan)]
    cases += [_folded_identity_case(*c) for c in ((2, 6, 21), (3, 5, 18))]
    reference = reference_circuit_sim(IDENTITY)
    for lat, asg, term, plan in cases:
        branches = protocol_branches(lat, asg, plan, term)
        total = branches.probability.sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        for dist in _group_dists(branches, plan):
            assert tv_distance(dist, reference) < 1e-8


def test_rotation_branches_decoupled():
    lat, asg = _fixture(["yxzxzz", "xyxyxy"])
    term = BoundaryTermination(
        overrides={((0, 5), Leg.VERT): virtual_bra("x", 0)}
    )
    circ = CircuitSpec(
        1, (Init(0), Rz(0, math.pi / 4), Rx(0, math.pi / 3), Readout(0))
    )
    _, plan = prepare_protocol(lat, asg, circ, term)
    branches = protocol_branches(lat, asg, plan, term)
    reference = reference_circuit_sim(circ)
    worst = max(
        tv_distance(dist, reference)
        for dist in _group_dists(branches, plan)
    )
    assert worst < 1e-8


def test_run_protocol_identity():
    lat = build_lattice(2, 4)
    res = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=1)
    assert res.outcome.corrected == (0,)
    assert res.attempts >= 1
    assert res.seed == 1


def test_run_protocol_deterministic():
    lat = build_lattice(2, 4)
    a = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=3)
    b = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=3)
    assert a.to_json(lat) == b.to_json(lat)


def test_run_protocol_iid_any_size():
    lat = build_lattice(6, 9)
    circ = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    res = run_protocol(lat, BoundaryTermination(axis="x"), circ,
                       rng_seed=9, mode="iid", spacing=3)
    assert set(res.outcome.corrected) <= {0, 1}
    assert len(res.outcome.corrected) == 2
    assert res.attempts == 3


def test_run_protocol_exhausts_retries(monkeypatch):
    lat = build_lattice(2, 3)
    circ = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    monkeypatch.setattr(logic, "MAX_ROUTE_ATTEMPTS", 8)
    with pytest.raises(ProtocolError):
        run_protocol(lat, BoundaryTermination(axis="x"), circ,
                     rng_seed=1, mode="iid")


def test_retries_cut_the_last_block_short(monkeypatch):
    # five attempts are blocks of 1, 2 and then 2 of 4; the message was
    # recorded at commit bcf30c3, which drew one attempt at a time
    monkeypatch.setattr(logic, "MAX_ROUTE_ATTEMPTS", 5)
    with pytest.raises(ProtocolError) as err:
        run_protocol(build_lattice(4, 8), None, CNOT_CIRCUIT, rng_seed=0,
                     mode="iid")
    assert str(err.value) == (
        "no working embedding in 5 attempts; last failure no-junction-column:"
        " no junction pair for CNOT 0->1; failures by reason: "
        "no-junction-column 3, no-percolating-path 2"
    )


def test_result_json_shape():
    lat = build_lattice(2, 4)
    res = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=1)
    data = res.to_json(lat)
    for key in ("format_version", "seed", "mode", "attempts", "assignment",
                "backbone", "steps", "frames", "readouts", "raw", "corrected"):
        assert key in data
    assert data["mode"] == "exact"
    json.dumps(data)  # fully serializable


ROTATION = CircuitSpec(1, (Init(0), Rz(0, math.pi / 4), Readout(0)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("circuit", [IDENTITY, ROTATION], ids=["id", "rz"])
def test_sampled_run_is_a_branch(circuit, seed):
    # the sampling walk and the enumerating walk must agree on the path the
    # run took: its probability, frame and corrected readout
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    res = run_protocol(lat, term, circuit, rng_seed=seed)
    branches = protocol_branches(lat, res.assignment, res.plan, term)
    sites, taken = zip(*sorted((s.site, s.outcome) for s in res.record.steps))
    assert branches.sites == sites
    [i] = np.flatnonzero((branches.outcomes == taken).all(axis=1))
    want = math.prod(s.probability for s in res.record.steps)
    assert branches.probability[i] == pytest.approx(want, rel=0, abs=1e-12)
    assert branches.ax[i].tolist() == res.frame.ax
    assert branches.az[i].tolist() == res.frame.az
    corrected = branches.corrected[i]
    assert tuple(corrected.tolist()) == res.outcome.corrected
    assert tuple((corrected ^ branches.ax[i]).tolist()) == res.outcome.raw


def test_unfit_circuit_fails_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(logic, "stage1_sample", lambda *a: calls.append(a))
    three = CircuitSpec(
        3, (Init(0), Init(1), Init(2), Readout(0), Readout(1), Readout(2))
    )
    with pytest.raises(ProtocolError, match="spacing-violation"):
        run_protocol(
            build_lattice(2, 4), BoundaryTermination(axis="x"), three, rng_seed=1
        )
    assert calls == []


def test_attempt_histogram_counts_rejected_attempts():
    lat = build_lattice(2, 4)
    first = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=11)
    assert first.attempts == 1
    assert first.to_json(lat)["attempt_failures"] == {}
    res = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=4)
    hist = res.to_json(lat)["attempt_failures"]
    assert list(hist) == sorted(hist)
    assert sum(hist.values()) == res.attempts - 1 > 1


def test_exhausted_retries_report_the_histogram(monkeypatch):
    lat = build_lattice(2, 3)
    circ = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    monkeypatch.setattr(logic, "MAX_ROUTE_ATTEMPTS", 8)
    with pytest.raises(ProtocolError) as err:
        run_protocol(lat, BoundaryTermination(axis="x"), circ,
                     rng_seed=1, mode="iid")
    detail = str(err.value)
    assert detail.startswith("no working embedding in 8 attempts; last failure ")
    assert detail.endswith("; failures by reason: no-junction-column 8")


def test_exact_run_builds_no_qubit_state(monkeypatch):
    # stage 2 walks the layer engine; the qubit state serves enumeration
    builds, engines = [], []

    def counted_build(*args):
        builds.append(args)
        return build_state(*args)

    def counted_engine(*args):
        engines.append(args)
        return DenseEngine(*args)

    monkeypatch.setattr(contraction, "build_state", counted_build)
    monkeypatch.setattr(logic, "DenseEngine", counted_engine)
    lat = build_lattice(2, 4)
    res = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=3)
    assert res.attempts > 1
    assert builds == []
    assert engines == []


def test_exact_run_beyond_the_dense_cap():
    lat = build_lattice(4, 5)
    assert DENSE_SITE_CAP < lat.n_sites
    res = run_protocol(lat, BoundaryTermination(axis="x"), IDENTITY, rng_seed=3)
    assert res.attempts > 1
    assert reference_circuit_sim(IDENTITY)[res.outcome.corrected] > 0.0


ROT_RX = CircuitSpec(
    1, (Init(0), Rz(0, math.pi / 4), Rx(0, math.pi / 3), Readout(0))
)


@pytest.mark.parametrize("cols", [16, 32])
@pytest.mark.parametrize("circuit", [IDENTITY, ROT_RX], ids=["id", "rzrx"])
def test_exact_run_beyond_the_qubit_cap(circuit, cols):
    lat = build_lattice(4, cols)
    assert lat.n_sites > QUBIT_SITE_CAP
    res = run_protocol(lat, BoundaryTermination(axis="x"), circuit, rng_seed=1)
    assert len(res.record.steps) == lat.n_sites
    assert reference_circuit_sim(circuit)[res.outcome.corrected] > 0.0


def test_step_reads_weights_past_float_range():
    # a polarized 4x300 strip weighs less than the smallest float, so its
    # absolute effect weights underflow; the step reads relative weights
    lat = build_lattice(4, 300)
    asg = stage1_sample(lat, None, "iid", 0)
    engine = _polarized_layers(lat, asg, BoundaryTermination(axis="x"))
    site = (1, 150)
    rows = [standard_covector(asg[site], b) for b in (0, 1)]
    assert engine.effect_weights(site, rows) == [0.0, 0.0]
    p0, p1 = logic._step(engine, site, rows)
    assert 0.0 < p0 < 1.0 and p0 + p1 == 1.0


def test_exact_run_over_the_strip_cap_fails_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(logic, "stage1_sample", lambda *a: calls.append(a))
    with pytest.raises(LatticeSizeError):
        run_protocol(
            build_lattice(5, 5), BoundaryTermination(axis="x"), IDENTITY, 1
        )
    assert calls == []


# -- the fast engines against the 4^n reference -----------------------------


def _polarized_reference(lattice, assignment, term, keep_pair=False):
    """build_state amplitudes with povm_element applied site by site; with
    ``keep_pair`` each site is then written in its +-3/2 pair."""
    psi = build_state(lattice, term)
    for site in lattice.sites():
        ax = lattice.site_index(site)
        op = povm_element(assignment[site])
        if keep_pair:
            op = physical_basis(assignment[site])[:, [0, 3]].conj().T @ op
        psi = np.moveaxis(np.tensordot(op, psi, axes=([1], [ax])), 0, ax)
    return psi


class _DenseReference:
    """4^n engine: full 4x4 operators and rows on build_state amplitudes.

    Stands in for the layer engine, built as (lattice, term), and for the
    qubit engine, built as (lattice, assignment, term) and then polarized.
    Every construction is logged in ``built``.
    """

    built: list[str] = []

    def __init__(self, lattice, *args):
        if len(args) == 1:
            self.psi = build_state(lattice, args[0])
            self.built.append("layer")
        else:
            self.psi = _polarized_reference(lattice, *args)
            self.built.append("qubit")
        self.sites = sorted(lattice.sites(), key=lattice.site_index)

    def _acted(self, site, action):
        ax = self.sites.index(site)
        if np.ndim(action) == 1:
            psi = np.tensordot(action, self.psi, axes=([0], [ax]))
            return psi, self.sites[:ax] + self.sites[ax + 1 :]
        psi = np.tensordot(action, self.psi, axes=([1], [ax]))
        return np.moveaxis(psi, 0, ax), self.sites

    def effect_weights(self, site, actions):
        out = []
        for a in actions:
            if np.ndim(a) == 1:
                psi, _ = self._acted(site, a)
                out.append(float(np.real(np.vdot(psi, psi))))
            else:
                psi, _ = self._acted(site, a.conj().T @ a)
                out.append(float(np.real(np.vdot(self.psi, psi))))
        return out

    relative_weights = effect_weights

    def polarize(self, site, choose):
        povms, _ = contraction._polarizers()
        pick = choose(self.relative_weights(site, povms))
        self.apply_op(site, povms[pick])
        return pick

    def apply_op(self, site, op):
        self.psi, self.sites = self._acted(site, op)

    project = apply_op

    def branch(self, site, action):
        new = object.__new__(_DenseReference)
        new.psi, new.sites = self._acted(site, action)
        return new


def _use_reference(monkeypatch):
    """Route stage 1 and stage 2 through the 4^n reference; returns the log
    of reference constructions, emptied first."""
    monkeypatch.setattr(contraction, "TracedEngine", _DenseReference)
    monkeypatch.setattr(logic, "TracedEngine", _DenseReference)
    monkeypatch.setattr(_DenseReference, "built", [])
    return _DenseReference.built


def _qubit_case(name):
    """A criterion-6 fixture, or an x-pinned stage-1 sample of that size."""
    for fixture, lat, asg, term, _, _ in e2e_fixtures():
        if fixture == name:
            return lat, asg, term
    term = BoundaryTermination(axis="x")
    lat = build_lattice(*map(int, name.split("x")))
    return lat, stage1_sample(lat, term, "exact", 1), term


@pytest.mark.parametrize("name", ["identity", "rot", "cnot", "2x5", "3x4"])
def test_qubit_state_matches_polarized_dense_state(name):
    lat, asg, term = _qubit_case(name)
    engine = DenseEngine(lat, asg, term)
    want = _polarized_reference(lat, asg, term, keep_pair=True)
    want = np.transpose(want, [lat.site_index(s) for s in engine.live_sites])
    scale = np.abs(want).max()
    assert scale > 0.0
    assert np.abs(engine._amps - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_rule_matches_dense_reference(monkeypatch, seed):
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    fast = chain_rule_sample(lat, term, seed)
    built = _use_reference(monkeypatch)
    slow = chain_rule_sample(lat, term, seed)
    assert built == ["layer"]
    assert [s.outcome for s in fast] == [s.outcome for s in slow]
    for a, b in zip(fast, slow):
        assert a.probability == pytest.approx(b.probability, rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("circuit", [IDENTITY, ROTATION], ids=["id", "rz"])
def test_exact_run_matches_dense_reference(monkeypatch, circuit, seed):
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    fast = run_protocol(lat, term, circuit, rng_seed=seed)
    built = _use_reference(monkeypatch)
    slow = run_protocol(lat, term, circuit, rng_seed=seed)
    assert built == ["layer"] * (slow.attempts + 1)
    assert fast.assignment.to_json(lat) == slow.assignment.to_json(lat)
    assert fast.frames == slow.frames
    assert fast.outcome == slow.outcome
    for a, b in zip(fast.record.steps, slow.record.steps, strict=True):
        assert (a.site, a.outcome) == (b.site, b.outcome)
        assert a.probability == pytest.approx(b.probability, rel=0, abs=1e-12)


def _polarized_layers(lattice, assignment, term):
    """The layer engine as an exact run polarizes it for stage 2."""
    engine = contraction.TracedEngine(lattice, term)
    for site in lattice.sites():
        engine.apply_op(site, povm_element(assignment[site]))
    return engine


@pytest.mark.parametrize(
    "rows,cols,seed",
    [(2, 6, 1), (2, 6, 5), (2, 6, 6), (2, 6, 34), (4, 5, 3), (4, 6, 1)],
)
def test_layer_walk_matches_qubit_walk(rows, cols, seed):
    # above the 4^n cap the qubit state is the reference for stage 2
    lat = build_lattice(rows, cols)
    term = BoundaryTermination(axis="x")
    res = run_protocol(lat, term, IDENTITY, rng_seed=seed)
    asg, plan = res.assignment, res.plan
    walks = [
        logic._drive(asg, plan, engine, np.random.default_rng(seed))
        for engine in (
            DenseEngine(lat, asg, term),
            _polarized_layers(lat, asg, term),
        )
    ]
    (qubit, q_frame, q_snaps), (layer, l_frame, l_snaps) = walks
    assert (q_frame, q_snaps) == (l_frame, l_snaps)
    assert qubit.readouts == layer.readouts
    for a, b in zip(qubit.steps, layer.steps, strict=True):
        assert (a.site, a.outcome) == (b.site, b.outcome)
        assert a.probability == pytest.approx(b.probability, rel=0, abs=1e-12)


@dataclasses.dataclass(frozen=True)
class _RefBranch:
    """One leaf of the depth-first reference enumeration."""

    outcomes: tuple  # ((site, bit), ...), sites sorted
    probability: float
    frame: ByproductFrame
    logical: logic.LogicalOutcome


def _ref_rotation_flip(frame, ps):
    """The frame bit the rotation at ``ps`` changes sign with: X for z, Z
    for x; no other axis is adapted."""
    if not ps.theta:
        return 0
    if ps.axis == "z":
        return frame.ax[ps.wire]
    if ps.axis == "x":
        return frame.az[ps.wire]
    raise ValueError(f"rotations along {ps.axis!r} are not adapted")


def _ref_settler(lat, asg, term, backbone, circuit, plan):
    """``settle(idx, outcomes, frame)`` folds the event ``plan.order[idx]``
    completes into ``frame`` by the run-time frame rules, on the outcomes
    ``{site: bit}``, each reference bit folded from them, and returns its
    index (None: no event): the reference for ``compile_plan``'s forms."""
    events, free, _ = _ref_plan(lat, asg, term, backbone, plan, circuit)

    def settle(idx, outcomes, frame):
        fin = plan.finalize[idx]
        if fin is None:
            return None
        kind, wire, sites, gate = events[fin]

        def bit_of(x):
            return outcomes[divmod(x, lat.cols)]

        sx = sz = 0  # the widgets' exponents: the event's, or its link's
        for s in sites if kind == "widget" else sites[1:-1]:
            ref = _ref_reference(lat, asg, term, s, free[s], bit_of)[1]
            dax, daz = byproduct_indices(asg[s], outcomes[s], ref)
            sx, sz = sx ^ dax, sz ^ daz
        if kind == "init":
            frame.ax[wire], frame.az[wire] = outcomes[sites[0]], 0
        elif kind == "widget":
            frame.ax[wire] ^= sx
            frame.az[wire] ^= sz
        elif kind == "cnot":
            c, t = gate.control, gate.target
            # propagate the running frame through the new CNOT, then
            # compose the junction's own byproduct
            frame.az[c] ^= frame.az[t]
            frame.ax[t] ^= frame.ax[c]
            frame.ax[c] ^= 1
            frame.az[c] ^= outcomes[sites[0]] ^ sz ^ 1
            frame.ax[t] ^= outcomes[sites[-1]] ^ sx ^ 1
            frame.az[t] ^= 1
        # readout events leave the frame alone
        return fin

    return settle


def _ref_protocol_branches(
    engine_cls, circuit, backbone, lat, asg, plan, term, min_probability=1e-12
):
    """Depth-first enumeration, one engine copy per tree node and one
    record per leaf, applying the frame rules as it goes: the reference for
    the level-by-level, columnar ``protocol_branches``."""
    out = []
    settle = _ref_settler(lat, asg, term, backbone, circuit, plan)

    def descend(engine, idx, frame, outcomes, prob):
        if idx == len(plan.order):
            readouts = {w: outcomes[s] for w, s in plan.readout_sites.items()}
            out.append(
                _RefBranch(
                    tuple(sorted(outcomes.items())),
                    prob,
                    frame,
                    logic.interpret_readout(readouts, frame),
                )
            )
            return
        ps = plan.order[idx]
        rows = logic._rows(ps, _ref_rotation_flip(frame, ps))
        for b, pb in enumerate(logic._step(engine, ps.site, rows)):
            p = prob * pb
            if p <= min_probability:
                continue
            sub_out = {**outcomes, ps.site: b}
            sub_frame = ByproductFrame(list(frame.ax), list(frame.az))
            settle(idx, sub_out, sub_frame)
            descend(engine.branch(ps.site, rows[b]), idx + 1, sub_frame,
                    sub_out, p)

    zero = ByproductFrame([0] * circuit.wires, [0] * circuit.wires)
    descend(engine_cls(lat, asg, term), 0, zero, {}, 1.0)
    return out


# the root seeds among 0-39 whose x-pinned one-CNOT iid run routes within
# its 256 attempts; the others exhaust them
_CNOT_SEEDS = {
    (4, 8): (4, 6, 13, 15, 17, 21, 29, 30, 32, 34),
    (8, 16): (1, 4, 5, 9, 11, 13, 15, 16, 22, 23, 25, 29, 31, 32, 33, 34,
              36, 39),
    (20, 40): (9,),
}


@functools.cache
def _frame_cases():
    """(lattice, assignment, term, backbone, plan, circuit) of x-pinned iid
    runs at 4x8, 8x16 and 20x40: the identity and Rz Rx circuits at root
    seeds 0-39 (all route), one CNOT at ``_CNOT_SEEDS``; and the
    criterion-6 fixtures."""
    term = BoundaryTermination(axis="x")
    out = []
    for (rows, cols), cnot_seeds in _CNOT_SEEDS.items():
        lat = build_lattice(rows, cols)
        runs = [(c, seed) for c in (IDENTITY, ROT_RX) for seed in range(40)]
        runs += [(CNOT_CIRCUIT, seed) for seed in cnot_seeds]
        for circuit, seed in runs:
            res = run_protocol(lat, term, circuit, seed, mode="iid")
            prep = res.backbone, res.plan
            out.append((lat, res.assignment, term, *prep, circuit))
    for _, lat, asg, term, circuit, spacing in e2e_fixtures():
        prep = prepare_protocol(lat, asg, circuit, term, spacing)
        out.append((lat, asg, term, *prep, circuit))
    return out


def test_compiled_frame_matches_runtime_rules():
    # on random outcomes, every frame form compile_plan stores evaluates,
    # after every event, to the frame the run-time rules settle, and every
    # rotation's flip form to the bit it adapts to: X for z, Z for x
    rng = np.random.default_rng(32)
    flips = cnots = 0
    for lat, asg, term, backbone, plan, circuit in _frame_cases():
        rotations = [i for i, ps in enumerate(plan.order) if ps.theta]
        assert sorted(plan.flips) == rotations
        settle = _ref_settler(lat, asg, term, backbone, circuit, plan)
        for _ in range(4):
            bits = rng.integers(0, 2, lat.n_sites).tolist()
            outcomes = dict(zip(lat.sites(), bits))
            mask = sum(b << (1 + i) for i, b in enumerate(bits))
            frame = ByproductFrame([0] * circuit.wires, [0] * circuit.wires)
            for idx, ps in enumerate(plan.order):
                if idx in plan.flips:
                    flip = logic._parity(plan.flips[idx], mask)
                    assert flip == _ref_rotation_flip(frame, ps)
                fin = settle(idx, outcomes, frame)
                if fin is not None:
                    got = [
                        [logic._parity(f, mask) for f in forms]
                        for forms in plan.frames[fin]
                    ]
                    assert got == [frame.ax, frame.az]
        flips += len(rotations)
        cnots += plan.events.count("cnot")
    assert flips >= 240 and cnots >= 30


def _branch_cases():
    name, lat, asg, term, circuit, spacing = e2e_fixtures()[0]
    assert name == "identity"
    cases = [(lat, asg, term, circuit, spacing)]
    # a plan that reads a folded branch; 3x5 is over DENSE_SITE_CAP
    lat, asg, term, _ = _folded_identity_case(2, 6, 21)
    cases.append((lat, asg, term, IDENTITY, None))
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    for circuit in (IDENTITY, ROTATION):
        for seed in (1, 2, 3):
            asg = run_protocol(lat, term, circuit, rng_seed=seed).assignment
            cases.append((lat, asg, term, circuit, None))
    return cases


def _assert_same_branches(fast, slow):
    # the columnar record, leaf by leaf, against the reference's records
    assert len(fast) == len(slow)
    leaves = zip(
        fast.outcomes.tolist(),
        fast.probability.tolist(),
        fast.ax.tolist(),
        fast.az.tolist(),
        fast.corrected.tolist(),
    )
    for (bits, p, ax, az, corrected), b in zip(leaves, slow):
        assert tuple(zip(fast.sites, bits)) == b.outcomes
        assert p == pytest.approx(b.probability, rel=0, abs=1e-12)
        assert (ax, az) == (b.frame.ax, b.frame.az)
        assert tuple(corrected) == b.logical.corrected
        assert tuple(c ^ a for c, a in zip(corrected, ax)) == b.logical.raw


def test_branch_tables_match_dense_reference(monkeypatch):
    monkeypatch.setattr(_DenseReference, "built", [])
    cases = _branch_cases()
    for lat, asg, term, circuit, spacing in cases:
        backbone, plan = prepare_protocol(lat, asg, circuit, term, spacing)
        fast = protocol_branches(lat, asg, plan, term)
        slow = _ref_protocol_branches(
            _DenseReference, circuit, backbone, lat, asg, plan, term
        )
        _assert_same_branches(fast, slow)
    assert _DenseReference.built == ["qubit"] * len(cases)


def _rot_case():
    """criterion 6's rot fixture as its backbone and (lattice, assignment,
    plan, term); its circuit is ROT_RX."""
    name, lat, asg, term, circuit, spacing = e2e_fixtures()[1]
    assert (name, circuit) == ("rot", ROT_RX)
    backbone, plan = prepare_protocol(lat, asg, circuit, term, spacing)
    return backbone, (lat, asg, plan, term)


def test_rotation_branches_match_reference(monkeypatch):
    # the adapted angles differ across branches, so some steps stack one
    # pair of rows per branch
    ranks = []
    split = contraction.DenseEngine.split

    def logged(self, site, rows):
        ranks.append(np.ndim(rows))
        return split(self, site, rows)

    monkeypatch.setattr(contraction.DenseEngine, "split", logged)
    backbone, case = _rot_case()
    fast = protocol_branches(*case)
    assert len(fast) == 2048
    assert {2, 3} <= set(ranks)
    slow = _ref_protocol_branches(DenseEngine, ROT_RX, backbone, *case)
    _assert_same_branches(fast, slow)


@pytest.mark.parametrize("cutoff,survivors", [(5e-4, 1024), (1e-3, 0)])
def test_pruned_branches_match_reference(monkeypatch, cutoff, survivors):
    # rot's leaves weigh 1/4096 or 3/4096, so 5e-4 keeps the heavy half
    backbone, case = _rot_case()
    monkeypatch.setattr(logic, "MIN_BRANCH_PROBABILITY", cutoff)
    fast = protocol_branches(*case)
    slow = _ref_protocol_branches(
        DenseEngine, ROT_RX, backbone, *case, min_probability=cutoff
    )
    assert len(fast) == survivors
    _assert_same_branches(fast, slow)


def test_degenerate_weights_raise_at_the_first_site():
    # an all-z pin annihilates rot's polarized state (its Bot-kind init
    # site has no standard outcome left), so the first site in plan
    # order, (1, 0), already has no weight
    backbone, (lat, asg, plan, _) = _rot_case()
    assert plan.order[0].site == (1, 0)
    z_pin = BoundaryTermination()
    for enumerate_branches in (
        protocol_branches,
        functools.partial(
            _ref_protocol_branches, DenseEngine, ROT_RX, backbone
        ),
    ):
        with pytest.raises(
            ProtocolError, match=r"^degenerate weights at \(1, 0\)$"
        ):
            enumerate_branches(lat, asg, plan, z_pin)


def _ref_logical_table(branches, plan):
    """``conditional_logical_table`` grouping by a per-branch set scan."""
    readouts = set(plan.readout_sites.values())
    groups = {}
    for bits, p, corrected in zip(
        branches.outcomes.tolist(),
        branches.probability.tolist(),
        branches.corrected.tolist(),
    ):
        outcomes = zip(branches.sites, bits)
        key = tuple((s, b) for s, b in outcomes if s not in readouts)
        groups.setdefault(key, []).append((p, tuple(corrected)))
    table = []
    for key in sorted(groups):
        members = groups[key]
        weight = sum(p for p, _ in members)
        dist = {}
        for p, corrected in members:
            dist[corrected] = dist.get(corrected, 0.0) + p / weight
        table.append((weight, dist))
    return table


def test_logical_table_matches_set_scan_grouping():
    for _, lat, asg, term, circuit, spacing in e2e_fixtures():
        _, plan = prepare_protocol(lat, asg, circuit, term, spacing)
        branches = protocol_branches(lat, asg, plan, term)
        weight, dist = conditional_logical_table(branches, plan)
        want = _ref_logical_table(branches, plan)
        keys = list(np.ndindex((2,) * circuit.wires))
        # every outcome a group reaches has positive weight: the dict holds
        # exactly the nonzero cells
        got = [
            {k: p for k, p in zip(keys, row) if p} for row in dist.tolist()
        ]
        assert weight.tolist() == [w for w, _ in want]
        assert got == [d for _, d in want]


def test_cnot_branches_match_reference():
    # the one enumerated case with two wires and a CNOT event; criterion 6
    # reads only the corrected bits, so the frames are compared here
    name, lat, asg, term, circuit, spacing = e2e_fixtures()[2]
    assert name == "cnot"
    backbone, plan = prepare_protocol(lat, asg, circuit, term, spacing)
    case = lat, asg, plan, term
    fast = protocol_branches(*case)
    slow = _ref_protocol_branches(DenseEngine, circuit, backbone, *case)
    assert fast.ax.shape == fast.az.shape == (len(slow), 2)
    _assert_same_branches(fast, slow)
    frames = np.concatenate([fast.ax, fast.az], axis=1)
    assert len(np.unique(frames, axis=0)) == 16

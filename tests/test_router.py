import dataclasses
from collections import deque

import numpy as np
import pytest

from akltmqc.lattice import build_lattice
from akltmqc.logic import CNOT, CircuitSpec, Init, Readout, auto_spacing
from akltmqc.router import (
    RENORM_SITE_CAP,
    _span_thresholds,
    Associate,
    ClusterExtension,
    Degree2Wire,
    RoutingFailure,
    audit_backbone,
    crossing_estimate,
    disabled_ids,
    find_clusters,
    flag_off_limits,
    route_backbone,
    spanning_probability,
    spanning_sweep,
)
from akltmqc.sampler import AxisAssignment, matched_mask, stage1_sample
from akltmqc.tensors import AXES


def _assignment(rows_axes):
    rows, cols = len(rows_axes), len(rows_axes[0])
    lat = build_lattice(rows, cols)
    asg = AxisAssignment.from_axes(
        lat,
        {(r, c): rows_axes[r][c] for r in range(rows) for c in range(cols)},
    )
    return lat, asg


def test_find_clusters_hand_pattern():
    lat, asg = _assignment(["zzx", "xyy"])
    clusters = find_clusters(lat, asg)
    # one id per cluster, counted in row-major order of first sites
    assert clusters.labels.tolist() == [0, 0, -1, -1, 1, 1]
    assert [AXES[k] for k in clusters.axes.tolist()] == ["z", "y"]
    assert clusters.sizes.tolist() == [2, 2]


def test_no_clusters_without_matched_bonds():
    lat, asg = _assignment(["zx", "xz"])
    matched = matched_mask(lat, asg)
    assert not matched.any()
    assert len(find_clusters(lat, asg)) == 0


def test_flag_off_limits_double_join():
    # two clusters of different axis joined by two parallel unmatched
    # bonds; exactly one member must be disabled
    lat, asg = _assignment(["zzz", "xxx"])
    clusters = find_clusters(lat, asg)
    pairs = flag_off_limits(lat, clusters)
    assert len(pairs) == 1
    p = pairs[0]
    assert len(p.joins) == 2
    assert p.disabled in (p.first, p.second)
    assert disabled_ids(pairs) == frozenset({p.disabled})


def test_single_join_not_flagged():
    lat, asg = _assignment(["zzy", "xxz"])
    clusters = find_clusters(lat, asg)
    assert len(clusters) == 2
    assert flag_off_limits(lat, clusters) == []


@pytest.mark.parametrize(
    "axes,message",
    [
        ({(0, 0): "z", (0, 1): "x", (1, 0): "y"}, "missing sites"),
        ({(0, 0): "z", (0, 1): "x", (1, 0): "y", (1, 1): "w"}, "unknown axes"),
    ],
)
def test_bad_assignment_rejected_at_every_entry(axes, message):
    # an invalid assignment cannot be built, and one of another patch
    # shape is refused wherever its codes are read
    lat, good = _assignment(["zx", "yz"])
    with pytest.raises(ValueError, match=message):
        AxisAssignment.from_axes(lat, axes)
    other = stage1_sample(build_lattice(2, 3), None, "iid", 0)
    clusters = find_clusters(lat, good)
    circuit = CircuitSpec(1, (Init(0), Readout(0)))
    shape = "2x3 patch on a 2x2 lattice"
    with pytest.raises(ValueError, match=shape):
        matched_mask(lat, other)
    with pytest.raises(ValueError, match=shape):
        find_clusters(lat, other)
    with pytest.raises(ValueError, match=shape):
        route_backbone(lat, other, clusters, frozenset(), circuit, spacing=1)


def test_route_single_wire():
    lat, asg = _assignment(["yxzxz", "xyxyx"])
    circuit = CircuitSpec(1, (Init(0), Readout(0)))
    bb = route_backbone(
        lat, asg, find_clusters(lat, asg),
        frozenset(), circuit, spacing=2,
    )
    assert not isinstance(bb, RoutingFailure)
    assert len(bb.wires) == 1
    assert not bb.junctions
    # the wire occupies row 0 end to end
    assert all(i // lat.cols == 0 for i in bb.wires[0])
    assert len(bb.wires[0]) == 5


def test_route_cnot_pair():
    lat, asg = _assignment(["yzzz", "xzzx", "zxzz"])
    circuit = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    clusters = find_clusters(lat, asg)
    bb = route_backbone(lat, asg, clusters, frozenset(), circuit, spacing=2)
    assert not isinstance(bb, RoutingFailure)
    assert len(bb.wires) == 2
    assert len(bb.junctions) == 1
    control, link, target = bb.junctions[0]
    assert control // lat.cols < target // lat.cols
    assert link  # vertical chain between the two junction sites


def test_route_failure_reports_reason():
    lat, asg = _assignment(["zz", "zz"])
    circuit = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    clusters = find_clusters(lat, asg)
    bb = route_backbone(lat, asg, clusters, frozenset(), circuit, spacing=1)
    assert isinstance(bb, RoutingFailure)
    assert bb.reason


def test_hanging_branches_lie_in_small_root_clusters():
    # why _assemble needs no size check on a hanging branch: the branch
    # hangs off its root by a matched stem, so it lies in the root's
    # cluster, and route_backbone keeps every cluster larger than
    # RENORM_SITE_CAP off the backbone, so no branch exceeds the cap
    identity = CircuitSpec(1, (Init(0), Readout(0)))
    cnot = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    routed = extensions = oversized = 0
    for rows, cols in ((4, 8), (8, 16), (20, 40)):
        lat = build_lattice(rows, cols)
        for seed in range(100):
            asg = stage1_sample(lat, None, "iid", seed)
            clusters = find_clusters(lat, asg)
            oversized += int((clusters.sizes > RENORM_SITE_CAP).sum())
            disabled = disabled_ids(flag_off_limits(lat, clusters))
            for circuit in (identity, cnot):
                bb = route_backbone(
                    lat, asg, clusters, disabled, circuit,
                    auto_spacing(lat, circuit),
                )
                if isinstance(bb, RoutingFailure):
                    continue
                routed += 1
                label = clusters.labels
                for i, role in bb.roles.items():
                    if isinstance(role, Associate):
                        continue
                    if isinstance(role, ClusterExtension):
                        extensions += 1
                        root = label[role.root]
                        assert label[i] == root >= 0
                        assert clusters.sizes[root] <= RENORM_SITE_CAP
                    elif label[i] >= 0:  # a wire or junction site
                        assert clusters.sizes[label[i]] <= RENORM_SITE_CAP
    assert routed and extensions and oversized


@pytest.mark.parametrize(
    "corner,detail",
    [
        # (0, 4) x: the stem (0, 4)-(1, 4) ends on the branch, and phase
        # two meets that stem from the branch side first
        ("x", "extension (1, 4) touches interior site (0, 4)"),
        # (0, 4) y: the branch hangs from (0, 2) and from (0, 4)
        ("y", "cluster branch at (0, 2) reattaches to the backbone"),
    ],
)
def test_stem_onto_a_hanging_branch_is_a_cluster_loop(corner, detail):
    # the wire runs along row 0; the y branch (1, 2)-(1, 3)-(1, 4) hangs
    # from (0, 2), and its site (1, 4) lies below backbone site (0, 4)
    lat, asg = _assignment([f"zxyz{corner}", "xzyyy"])
    clusters = find_clusters(lat, asg)
    circuit = CircuitSpec(1, (Init(0), Readout(0)))
    bb = route_backbone(lat, asg, clusters, frozenset(), circuit, spacing=2)
    assert bb == RoutingFailure("cluster-loop", detail)


def test_stems_end_on_free_sites_outside_interior_clusters():
    # why _assemble needs no associate-unavailable or off-limits-leak
    # check. A stem's far end is never interior: phase one returns
    # backbone-adjacency before a stem can end on the backbone, and phase
    # two returns cluster-loop before one can end on an extension (the
    # test above). Every matched neighbour of an interior site is interior
    # (a junction uses all three legs, a hanging branch is a whole matched
    # component minus the backbone), so a cluster holding an interior site
    # holds only interior sites, and no associate lies in one.
    identity = CircuitSpec(1, (Init(0), Readout(0)))
    routed = associates = 0
    for rows, cols in ((4, 8), (8, 16), (20, 40)):
        lat = build_lattice(rows, cols)
        for seed in range(100):
            asg = stage1_sample(lat, None, "iid", seed)
            clusters = find_clusters(lat, asg)
            disabled = disabled_ids(flag_off_limits(lat, clusters))
            bb = route_backbone(
                lat, asg, clusters, disabled, identity,
                auto_spacing(lat, identity),
            )
            if isinstance(bb, RoutingFailure):
                continue
            routed += 1
            labels = clusters.labels
            interior = np.zeros(lat.n_sites, dtype=bool)
            for i, role in bb.roles.items():
                if not isinstance(role, Associate):
                    interior[i] = True
            tied = np.unique(labels[interior & (labels >= 0)])
            assert interior[np.isin(labels, tied)].all()
            # the audit checks the stems of backbone sites; those of
            # extension sites end on associates too
            code, table = asg.codes(lat), lat.neighbor_table()
            for i, role in bb.roles.items():
                if not isinstance(role, ClusterExtension):
                    continue
                for n in table[i]:
                    if n >= 0 and code[n] != code[i]:
                        associates += 1
                        assert not interior[n]
                        far = bb.roles[n]
                        assert isinstance(far, Associate)
    assert routed > 50 and associates > 0


def test_audit_rejects_wrong_junction_axes():
    # compile_plan has no junction-axes check: the audit holds it
    lat, asg = _assignment(["yzzz", "xzzx", "zxzz"])
    circuit = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    clusters = find_clusters(lat, asg)
    bb = route_backbone(lat, asg, clusters, frozenset(), circuit, spacing=2)
    ((top, _, bot),) = bb.junctions
    codes = asg.codes(lat).copy()
    codes[[top, bot]] = AXES.index("y"), AXES.index("z")
    flipped = AxisAssignment.from_codes(lat, codes)
    problems = audit_backbone(
        lat, flipped, bb, circuit,
        find_clusters(lat, flipped), frozenset(),
    )
    control, target = divmod(top, lat.cols), divmod(bot, lat.cols)
    assert f"control junction {control} is not z-axis" in problems
    assert f"target junction {target} is not x-axis" in problems


_ONE_CNOT = CircuitSpec(
    2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
)
_TWO_CNOTS = CircuitSpec(
    2, (Init(0), Init(1), CNOT(0, 1), CNOT(0, 1), Readout(0), Readout(1))
)


# Each mutation of the routed backbone on ["yzzz", "xzzx", "zxzz"]: wires
# (0, 3)..(0, 0) and (2, 3)..(2, 0), junction chain (0, 2), (1, 2), (1, 1),
# (2, 1). It takes (wires, (top, link, bot), roles) and returns the fields
# it replaces, and the circuit audited.
@pytest.mark.parametrize(
    "mutate,problem",
    [
        (lambda w, j, roles: ({"wires": w[:1]}, _ONE_CNOT),
         "1 wires routed, circuit wants 2"),
        (lambda w, j, roles: (
            {"wires": ((*w[0][:3], *w[0][1:]), w[1])}, _ONE_CNOT),
         "wire 0 revisits a site"),
        (lambda w, j, roles: ({"wires": (w[0], w[0])}, _ONE_CNOT),
         "wire 1 overlaps another wire"),
        (lambda w, j, roles: ({"junctions": ()}, _ONE_CNOT),
         "0 junction pairs for 1 CNOTs"),
        (lambda w, j, roles: ({"junctions": ((j[0], j[1], 7),)}, _ONE_CNOT),
         "junction (1, 3) not on wire 1"),
        (lambda w, j, roles: ({"junctions": ((1, *j[1:]),)}, _ONE_CNOT),
         "control junction (0, 1) is not Top-kind"),
        (lambda w, j, roles: ({"junctions": ((*j[:2], 10),)}, _ONE_CNOT),
         "target junction (2, 2) is not Bot-kind"),
        (lambda w, j, roles: ({"junctions": (j, j)}, _TWO_CNOTS),
         "junction for CNOT 0->1 is right of an earlier one"),
        (lambda w, j, roles: (
            {"junctions": ((j[0], j[1][:1], j[2]),)}, _ONE_CNOT),
         "link does not land on (2, 1)"),
        (lambda w, j, roles: (
            {"roles": {**roles, j[0]: Degree2Wire(0)}}, _ONE_CNOT),
         "junction (0, 2) carries role Degree2Wire(wire=0)"),
        (lambda w, j, roles: ({"wires": (w[0], (7, 6, 5, 4))}, _ONE_CNOT),
         "cluster 0 touches wires [0, 1]"),
    ],
    ids=[
        "wire-count", "revisit", "overlap", "junction-count", "off-wire",
        "top-kind", "bot-kind", "order", "landing", "junction-role",
        "cluster-wires",
    ],
)
def test_audit_reports_each_mutation(mutate, problem):
    lat, asg = _assignment(["yzzz", "xzzx", "zxzz"])
    clusters = find_clusters(lat, asg)
    bb = route_backbone(lat, asg, clusters, frozenset(), _ONE_CNOT, 2)
    assert audit_backbone(lat, asg, bb, _ONE_CNOT, clusters, frozenset()) == []
    ((top, link, bot),) = bb.junctions
    assert bb.wires == ((3, 2, 1, 0), (11, 10, 9, 8))
    assert (top, link, bot) == (2, (6, 5), 9)
    fields, circuit = mutate(bb.wires, (top, link, bot), bb.roles)
    broken = dataclasses.replace(bb, **fields)
    problems = audit_backbone(lat, asg, broken, circuit, clusters, frozenset())
    assert problem in problems


def test_backbone_json_grid():
    lat, asg = _assignment(["yxzxz", "xyxyx"])
    circuit = CircuitSpec(1, (Init(0), Readout(0)))
    bb = route_backbone(
        lat, asg, find_clusters(lat, asg),
        frozenset(), circuit, spacing=2,
    )
    data = bb.to_json(lat)
    assert data["rows"] == 2 and data["cols"] == 5
    flat = [code for row in data["grid"] for code in row]
    assert "w0" in flat


def test_spanning_extremes():
    frac, err = spanning_probability(6, 12, 1.0, 50, 3)
    assert frac == 1.0 and err == 0.0
    frac, err = spanning_probability(6, 12, 0.0, 50, 3)
    assert frac == 0.0


def test_spanning_monotone_in_p():
    lo, _ = spanning_probability(8, 16, 0.45, 300, 99)
    hi, _ = spanning_probability(8, 16, 0.85, 300, 99)
    assert lo < hi


def _bfs_spans(lat, occupied_bonds) -> bool:
    """Do the occupied bonds join column 0 to the last column?"""
    adj = {}
    for b in occupied_bonds:
        adj.setdefault(b.a, []).append(b.b)
        adj.setdefault(b.b, []).append(b.a)
    seen = {(r, 0) for r in range(lat.rows)}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        if cur[1] == lat.cols - 1:
            return True
        for nb in adj.get(cur, ()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return False


@pytest.mark.parametrize("rows,cols", [(3, 6), (4, 8)])
def test_span_counts_match_direct_occupancy(rows, cols):
    # the sweep seeds size index 0 with [seed, 0]
    trials, seed, ps = 60, 23, [0.0, 0.3, 0.55, 0.65, 0.8, 1.0]
    lat = build_lattice(rows, cols)
    bonds = lat.bonds()
    draws = [
        np.random.default_rng(child).random(len(bonds))
        for child in np.random.SeedSequence([seed, 0]).spawn(trials)
    ]
    sweep = spanning_sweep([(rows, cols)], ps, trials, seed)
    for p, row in zip(ps, sweep):
        hits = sum(
            _bfs_spans(lat, [b for b, x in zip(bonds, u) if x < p])
            for u in draws
        )
        frac, err = spanning_probability(rows, cols, p, trials, [seed, 0])
        assert frac == hits / trials
        assert err == np.sqrt(frac * (1.0 - frac) / trials)
        assert (row["fraction"], row["stderr"]) == (frac, err)


def _ref_find(parent, x):
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _ref_span_thresholds(rows, cols, trials, rng_seed, p_max):
    """Spanning thresholds by one sorted union-find per trial: every bond
    below ``p_max`` is added in increasing ``u`` until the edge columns
    meet (the sweep ``_span_thresholds`` replaced)."""
    lat = build_lattice(rows, cols)
    if cols == 1:
        return np.full(trials, -np.inf)
    bond_a, bond_b = (ends.tolist() for ends in lat.bond_table())
    base = list(range(rows * cols))
    for r in range(1, rows):
        base[r * cols] = 0
        base[r * cols + cols - 1] = cols - 1
    out = np.full(trials, np.inf)
    for t, child in enumerate(np.random.SeedSequence(rng_seed).spawn(trials)):
        u = np.random.default_rng(child).random(len(bond_a))
        below = np.flatnonzero(u < p_max)
        parent = base.copy()
        right = cols - 1
        for k in below[np.argsort(u[below])].tolist():
            ra = _ref_find(parent, bond_a[k])
            rb = _ref_find(parent, bond_b[k])
            if ra == rb:
                continue
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
            if hi == right:
                right = lo
            if right == 0:
                out[t] = u[k]
                break
    return out


@pytest.mark.parametrize(
    "ps",
    [[2.0 / 3.0], [0.0], [1.0], [0.3, 0.35],
     [0.60 + 0.01 * k for k in range(11)]],
    ids=["two-thirds", "zero", "one", "low-window", "criterion-8"],
)
@pytest.mark.parametrize(
    "rows,cols", [(1, 5), (3, 1), (5, 2), (2, 3), (3, 6), (4, 8), (12, 24)]
)
def test_span_thresholds_match_sorted_reference(rows, cols, ps):
    p_min, p_max = min(ps), max(ps)
    seed = [rows, cols, len(ps)]
    fast = _span_thresholds(rows, cols, 40, seed, p_min, p_max)
    ref = _ref_span_thresholds(rows, cols, 40, seed, p_max)
    window = (p_min <= ref) & (ref < p_max)
    assert fast[window].tobytes() == ref[window].tobytes()
    assert np.array_equal(fast < p_min, ref < p_min)
    assert np.array_equal(fast >= p_max, ref >= p_max)
    assert set(fast[~window].tolist()) <= {-np.inf, np.inf}


def test_sweep_fractions_monotone_in_p():
    ps = [0.0, 0.2, 0.5, 0.6, 0.65, 0.7, 0.9, 1.0]
    rows = spanning_sweep([(3, 6), (6, 12)], ps, 80, 5)
    for size in ((3, 6), (6, 12)):
        fracs = [r["fraction"] for r in rows if (r["rows"], r["cols"]) == size]
        assert fracs == sorted(fracs)
        assert fracs[0] == 0.0 and fracs[-1] == 1.0


def test_single_column_spans_at_every_p():
    for p in (0.0, 0.4, 1.0):
        assert spanning_probability(3, 1, p, 5, 2) == (1.0, 0.0)
    rows = spanning_sweep([(2, 1)], [0.0, 0.5, 1.0], 4, 9)
    assert [r["fraction"] for r in rows] == [1.0, 1.0, 1.0]


def test_crossing_estimate_brackets():
    ps = [0.55, 0.62, 0.72]
    cross = crossing_estimate((6, 12), (12, 24), ps, 400, 11)
    assert cross is None or ps[0] <= cross <= ps[-1]

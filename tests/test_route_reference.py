"""Routing and its audit on site indices against the ``Site``-tuple reference.

The reference below is the routing the index path replaced: breadth-first
searches over ``Site`` tuples with ``HexLattice.neighbor``, frozenset and
dict membership, the matched-bond graph and the backbone adjacency as
dicts of sets, a per-bond union-find for the cluster labels, and the audit
with ``leg_between``, per-cluster site sets and a dict union-find for the
loop rank.
The reference keeps its backbones in ``Site`` tuples (``_RefBackbone``);
``_indexed`` and ``_sited`` convert between it and the router's
``Backbone`` on site indices where the two are compared.
``route_backbone`` must return the same backbone (``to_json``) or the same
failure reason and detail, and ``find_clusters`` the same labels, on iid
patterns of three sizes and on exact patterns under x and z pins;
``audit_backbone`` must return the reference audit's problem list on
routed and on mutated backbones.
"""

import dataclasses
from collections import Counter, deque

import numpy as np
import pytest

from akltmqc.contraction import BoundaryTermination
from akltmqc.cli import e2e_fixtures
from akltmqc.lattice import Leg, SiteKind, build_lattice
from akltmqc.logic import CNOT, CircuitSpec, Init, Readout, auto_spacing
from akltmqc.router import (
    RENORM_SITE_CAP,
    Associate,
    Backbone,
    ClusterExtension,
    Degree2Wire,
    Degree3Junction,
    RoutingFailure,
    _band,
    audit_backbone,
    disabled_ids,
    find_clusters,
    flag_off_limits,
    route_backbone,
    spacing_failure,
)
from akltmqc.sampler import matched_mask, stage1_sample

IDENTITY = CircuitSpec(1, (Init(0), Readout(0)))
ONE_CNOT = CircuitSpec(
    2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
)


# -- reference ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _RefJunction:
    """One CNOT's plumbing in ``Site`` tuples: its control and target
    junction sites and the link between them."""

    control: tuple
    target: tuple
    link: tuple


@dataclasses.dataclass
class _RefBackbone:
    """A backbone in ``Site`` tuples: roles keyed by site, associate
    partners and extension roots as sites, ``_RefJunction`` plumbing."""

    roles: dict
    wires: tuple
    junctions: tuple
    spacing: int


def _convert_role(role, convert):
    if isinstance(role, Associate):
        return Associate(convert(role.partner))
    if isinstance(role, ClusterExtension):
        return ClusterExtension(convert(role.root))
    return role


def _indexed(lattice, backbone):
    """The router's ``Backbone`` on site indices for a ``_RefBackbone``."""
    index = lattice.site_index
    return Backbone(
        {index(s): _convert_role(r, index) for s, r in backbone.roles.items()},
        tuple(tuple(map(index, path)) for path in backbone.wires),
        tuple(
            (index(j.control), tuple(map(index, j.link)), index(j.target))
            for j in backbone.junctions
        ),
        backbone.spacing,
    )


def _sited(lattice, backbone):
    """The ``_RefBackbone`` of a router ``Backbone``."""

    def site(i):
        return divmod(i, lattice.cols)

    return _RefBackbone(
        {site(i): _convert_role(r, site) for i, r in backbone.roles.items()},
        tuple(tuple(map(site, path)) for path in backbone.wires),
        tuple(
            _RefJunction(site(top), site(bot), tuple(map(site, link)))
            for top, link, bot in backbone.junctions
        ),
        backbone.spacing,
    )


def _ref_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _ref_labels(lattice, matched):
    """Cluster id per site index (-1 outside clusters), by union-find."""
    a, b = lattice.bond_table()
    ends = list(zip(a[matched].tolist(), b[matched].tolist()))
    parent = list(range(lattice.n_sites))
    for i, j in ends:
        ri, rj = _ref_find(parent, i), _ref_find(parent, j)
        if ri != rj:
            lo, hi = sorted((ri, rj))
            parent[hi] = lo
    clustered = {i for end in ends for i in end}
    roots = sorted({_ref_find(parent, i) for i in clustered})
    ids = {root: k for k, root in enumerate(roots)}
    return [
        ids[_ref_find(parent, i)] if i in clustered else -1
        for i in range(lattice.n_sites)
    ]


def _ref_backbone_adjacency(wires, junctions):
    """Neighbour sets of ``Site``s along wire paths, links and junction stem
    bonds."""
    chains = [*wires, *((j.control, *j.link, j.target) for j in junctions)]
    adj = {}
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def _ref_matched_adjacency(lattice, assignment):
    adj = {}
    for bond in lattice.bonds():
        if assignment[bond.a] == assignment[bond.b]:
            adj.setdefault(bond.a, set()).add(bond.b)
            adj.setdefault(bond.b, set()).add(bond.a)
    return adj


def _ref_clusters(lattice, clusters):
    """(id, site set) per cluster, in id order, read off the labels."""
    groups = [set() for _ in range(len(clusters))]
    for i, cid in enumerate(clusters.labels.tolist()):
        if cid >= 0:
            groups[cid].add(divmod(i, lattice.cols))
    return [(cid, frozenset(sites)) for cid, sites in enumerate(groups)]


def _ref_sites_of(lattice, clusters, ids):
    return frozenset(
        s for cid, sites in _ref_clusters(lattice, clusters) if cid in ids
        for s in sites
    )


def _ref_wire_path(lattice, band, blocked):
    cols = lattice.cols
    starts = [(r, cols - 1) for r in band if (r, cols - 1) not in blocked]
    prev = {s: None for s in starts}
    queue = deque(starts)
    goal = None
    while queue:
        cur = queue.popleft()
        if cur[1] == 0:
            goal = cur
            break
        for leg in (Leg.LEFT, Leg.VERT, Leg.RIGHT):
            nb = lattice.neighbor(cur, leg)
            if nb is None or nb in prev or nb[0] not in band or nb in blocked:
                continue
            prev[nb] = cur
            queue.append(nb)
    if goal is None:
        return None
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def _ref_has_free_z(assignment, path, used, side, col):
    for s in path:
        if s in used or assignment[s] != "z":
            continue
        if side == "right" and s[1] > col:
            return True
        if side == "left" and s[1] < col:
            return True
    return False


def _ref_link_path(
    lattice, assignment, start, forbidden, tgt_path, used, frontier_tgt
):
    tgt_sites = set(tgt_path)
    prev = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if lattice.kind(cur) is SiteKind.TOP:
            t = lattice.neighbor(cur, Leg.VERT)
            if (
                t is not None
                and t in tgt_sites
                and t not in used
                and assignment[t] == "x"
                and t[1] < frontier_tgt
                and _ref_has_free_z(assignment, tgt_path, used, "right", t[1])
                and _ref_has_free_z(assignment, tgt_path, used, "left", t[1])
            ):
                chain = [cur]
                while prev[chain[-1]] is not None:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                return tuple(chain), t
        for leg in (Leg.VERT, Leg.LEFT, Leg.RIGHT):
            nb = lattice.neighbor(cur, leg)
            if nb is None or nb in prev or nb in forbidden:
                continue
            prev[nb] = cur
            queue.append(nb)
    return None


def _ref_hanging_branch(cluster_adj, first, root, backbone_sites):
    seen = {first}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        for nb in cluster_adj.get(cur, ()):
            if nb in backbone_sites:
                if cur != first or nb != root:
                    return None
                continue
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return frozenset(seen)


def _ref_assemble(lattice, assignment, clusters, wires, junctions, spacing):
    roles = {}
    junction_sites = {j.control for j in junctions} | {
        j.target for j in junctions
    }
    for w, path in enumerate(wires):
        for s in path:
            roles[s] = (
                Degree3Junction(w) if s in junction_sites else Degree2Wire(w)
            )
    for j in junctions:
        ctl_wire = roles[j.control].wire
        for s in j.link:
            roles[s] = Degree2Wire(ctl_wire)

    adj = _ref_backbone_adjacency(wires, junctions)
    backbone_sites = set(adj)
    cluster_adj = _ref_matched_adjacency(lattice, assignment)

    extensions = set()
    stems = []
    for s in sorted(backbone_sites):
        if s in junction_sites:
            continue
        used_legs = {lattice.leg_between(s, nb) for nb in adj[s]}
        for leg in Leg:
            if leg in used_legs:
                continue
            n = lattice.neighbor(s, leg)
            if n is None:
                continue
            if n in backbone_sites:
                return RoutingFailure(
                    "backbone-adjacency",
                    f"{s} and {n} touch outside the routed paths",
                )
            if assignment[n] != assignment[s]:
                stems.append((s, n))
                continue
            branch = _ref_hanging_branch(cluster_adj, n, s, backbone_sites)
            if branch is None:
                return RoutingFailure(
                    "cluster-loop",
                    f"cluster branch at {s} reattaches to the backbone",
                )
            if len(branch) > RENORM_SITE_CAP:
                return RoutingFailure(
                    "cluster-too-large",
                    f"branch of {len(branch)} sites at {s}",
                )
            extensions.update(branch)
            for e in branch:
                roles.setdefault(e, ClusterExtension(root=s))

    interior = backbone_sites | extensions
    for s in sorted(extensions):
        for leg in Leg:
            n = lattice.neighbor(s, leg)
            if n is None or n in cluster_adj.get(s, set()):
                continue
            if n in interior:
                return RoutingFailure(
                    "cluster-loop",
                    f"extension {s} touches interior site {n}",
                )
            stems.append((s, n))
    for s, n in stems:
        if n in interior:
            return RoutingFailure(
                "associate-unavailable",
                f"{n} is interior-measured, cannot anchor {s}",
            )
        cid = int(clusters.labels[lattice.site_index(n)])
        if cid >= 0 and interior & _ref_sites_of(lattice, clusters, [cid]):
            return RoutingFailure(
                "off-limits-leak",
                f"{n} sits in a cluster already tied to the backbone",
            )
        roles.setdefault(n, Associate(partner=s))

    return _RefBackbone(
        roles=roles,
        wires=tuple(wires),
        junctions=tuple(junctions),
        spacing=spacing,
    )


def _ref_layout(lattice, assignment, clusters, disabled, circuit, spacing):
    """The reference routing up to, not including, its audit."""
    unfit = spacing_failure(lattice, circuit.wires, spacing)
    if unfit is not None:
        return unfit
    n_wires = circuit.wires
    oversized = np.flatnonzero(clusters.sizes > RENORM_SITE_CAP).tolist()
    blocked = _ref_sites_of(lattice, clusters, disabled.union(oversized))

    wires = []
    for w in range(n_wires):
        path = _ref_wire_path(lattice, _band(w, spacing, lattice.rows), blocked)
        if path is None:
            return RoutingFailure(
                "no-percolating-path", f"wire {w} found no right-left path"
            )
        wires.append(path)
    wire_sites = {s: w for w, path in enumerate(wires) for s in path}

    junctions = []
    used = set()
    frontier = {w: lattice.cols for w in range(n_wires)}
    for gate in circuit.gates:
        if not isinstance(gate, CNOT):
            continue
        ctl, tgt = gate.control, gate.target
        forbidden = blocked | set(wire_sites) | used
        placed = None
        for s in sorted(wires[ctl], key=lambda t: -t[1]):
            if (
                s in used
                or lattice.kind(s) is not SiteKind.TOP
                or assignment[s] != "z"
                or s[1] >= frontier[ctl]
                or s[1] >= frontier[tgt]
            ):
                continue
            if not _ref_has_free_z(assignment, wires[ctl], used, "right", s[1]):
                continue
            if not _ref_has_free_z(assignment, wires[ctl], used, "left", s[1]):
                continue
            below = lattice.neighbor(s, Leg.VERT)
            if below is None or below in forbidden:
                continue
            hit = _ref_link_path(
                lattice,
                assignment,
                below,
                forbidden,
                wires[tgt],
                used,
                frontier[tgt],
            )
            if hit is not None:
                placed = (s, hit[1], hit[0])
                break
        if placed is None:
            return RoutingFailure(
                "no-junction-column",
                f"no junction pair for CNOT {ctl}->{tgt}",
            )
        top, bot, link = placed
        junctions.append(_RefJunction(top, bot, link))
        used.add(top)
        used.add(bot)
        used.update(link)
        frontier[ctl] = min(frontier[ctl], top[1])
        frontier[tgt] = min(frontier[tgt], bot[1])

    return _ref_assemble(
        lattice, assignment, clusters, wires, junctions, spacing
    )


def _ref_route(lattice, assignment, clusters, disabled, circuit, spacing):
    backbone = _ref_layout(
        lattice, assignment, clusters, disabled, circuit, spacing
    )
    if isinstance(backbone, RoutingFailure):
        return backbone
    problems = _ref_audit(
        lattice, assignment, backbone, circuit, clusters, disabled
    )
    if problems:
        return RoutingFailure("audit", "; ".join(problems[:4]))
    return backbone


def _ref_incident(lattice, site):
    out = []
    for leg in Leg:
        n = lattice.neighbor(site, leg)
        if n is not None:
            out.append((leg, n))
    return out


def _ref_audit(lattice, assignment, backbone, circuit, clusters, disabled):
    problems = []
    wires = backbone.wires
    if len(wires) != circuit.wires:
        problems.append(
            f"{len(wires)} wires routed, circuit wants {circuit.wires}"
        )
        return problems

    seen = set()
    for w, path in enumerate(wires):
        if not path or path[0][1] != lattice.cols - 1 or path[-1][1] != 0:
            problems.append(f"wire {w} does not span right to left")
            continue
        band = _band(w, backbone.spacing, lattice.rows)
        if len(set(path)) != len(path):
            problems.append(f"wire {w} revisits a site")
        for s in path:
            if s[0] not in band:
                problems.append(f"wire {w} leaves its band at {s}")
                break
        for a, b in zip(path, path[1:]):
            if b not in {n for _, n in _ref_incident(lattice, a)}:
                problems.append(f"wire {w} jumps {a}->{b}")
                break
        if seen & set(path):
            problems.append(f"wire {w} overlaps another wire")
        seen.update(path)

    cnots = [g for g in circuit.gates if isinstance(g, CNOT)]
    if len(backbone.junctions) != len(cnots):
        problems.append(
            f"{len(backbone.junctions)} junction pairs for {len(cnots)} CNOTs"
        )
        return problems
    frontier = {w: lattice.cols for w in range(len(wires))}
    for gate, j in zip(cnots, backbone.junctions):
        ctl, tgt = gate.control, gate.target
        if j.control not in wires[ctl]:
            problems.append(f"junction {j.control} not on wire {ctl}")
        if j.target not in wires[tgt]:
            problems.append(f"junction {j.target} not on wire {tgt}")
        if lattice.kind(j.control) is not SiteKind.TOP:
            problems.append(f"control junction {j.control} is not Top-kind")
        if lattice.kind(j.target) is not SiteKind.BOT:
            problems.append(f"target junction {j.target} is not Bot-kind")
        if assignment[j.control] != "z":
            problems.append(f"control junction {j.control} is not z-axis")
        if assignment[j.target] != "x":
            problems.append(f"target junction {j.target} is not x-axis")
        if j.control[1] >= frontier[ctl] or j.target[1] >= frontier[tgt]:
            problems.append(
                f"junction for CNOT {ctl}->{tgt} is right of an earlier one"
            )
        frontier[ctl] = min(frontier[ctl], j.control[1])
        frontier[tgt] = min(frontier[tgt], j.target[1])
        chain = (j.control, *j.link, j.target)
        for a, b in zip(chain, chain[1:]):
            if b not in {n for _, n in _ref_incident(lattice, a)}:
                problems.append(f"junction link jumps {a}->{b}")
                break
        if j.link:
            if lattice.neighbor(j.control, Leg.VERT) != j.link[0]:
                problems.append(f"link does not hang from {j.control}")
            if lattice.neighbor(j.link[-1], Leg.VERT) != j.target:
                problems.append(f"link does not land on {j.target}")

    adj = _ref_backbone_adjacency(wires, backbone.junctions)
    backbone_sites = set(adj)
    junction_sites = {j.control for j in backbone.junctions} | {
        j.target for j in backbone.junctions
    }
    extensions = {
        s for s, r in backbone.roles.items() if isinstance(r, ClusterExtension)
    }
    cluster_sites = _ref_clusters(lattice, clusters)
    blocked = {
        s for cid, sites in cluster_sites if cid in disabled for s in sites
    }
    if blocked & backbone_sites:
        problems.append("a disabled cluster site lies on the backbone")
    if blocked & extensions:
        problems.append("a disabled cluster site is marked for renormalization")

    for s in sorted(backbone_sites):
        role = backbone.roles.get(s)
        if s in junction_sites:
            if not isinstance(role, Degree3Junction):
                problems.append(f"junction {s} carries role {role}")
            if len(adj[s]) != 3 and len(_ref_incident(lattice, s)) == 3:
                problems.append(f"junction {s} has a spare leg")
            continue
        if not isinstance(role, Degree2Wire):
            problems.append(f"backbone site {s} carries role {role}")
        free = [leg for leg in Leg if leg not in
                {lattice.leg_between(s, nb) for nb in adj[s]}]
        for leg in free:
            n = lattice.neighbor(s, leg)
            if n is None:
                continue  # termination supplies the bit
            if n in backbone_sites:
                problems.append(f"{s} touches backbone site {n} off-path")
            elif assignment[n] == assignment[s]:
                if n not in extensions:
                    problems.append(f"matched stem at {s} not renormalized")
            elif not isinstance(backbone.roles.get(n), Associate):
                problems.append(f"{s} has no associate through {leg.value}")
    for s in sorted(extensions):
        root = backbone.roles[s].root
        branch = {e for e in extensions if backbone.roles[e].root == root}
        for leg, n in _ref_incident(lattice, s):
            if assignment[n] == assignment[s]:
                if n not in branch | {root}:
                    problems.append(
                        f"extension {s} matches {n} outside its branch"
                    )
            elif not isinstance(backbone.roles.get(n), Associate):
                problems.append(
                    f"extension {s} has no associate through {leg.value}"
                )

    # the interior-measured region may close only the circuit's own loops
    region = backbone_sites | extensions
    edges = [
        (s, n)
        for s in sorted(region)
        for _, n in _ref_incident(lattice, s)
        if n in region and s < n
    ]
    region_rank = len(edges) - len(region) + _ref_component_count(
        region, edges
    )
    circuit_edges = [(g.control, g.target) for g in cnots]
    circuit_rank = (
        len(cnots) - circuit.wires
        + _ref_component_count(range(circuit.wires), circuit_edges)
    )
    if region_rank != circuit_rank:
        problems.append(
            f"interior region closes {region_rank} loops, "
            f"circuit calls for {circuit_rank}"
        )
    for cid, sites in cluster_sites:
        touched = {w for w, path in enumerate(wires) if set(path) & sites}
        if len(touched) > 1:
            problems.append(f"cluster {cid} touches wires {sorted(touched)}")
    return problems


def _ref_component_count(nodes, edges) -> int:
    parent = {n: n for n in nodes}
    for a, b in edges:
        ra, rb = _ref_find(parent, a), _ref_find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return len({_ref_find(parent, n) for n in parent})


# -- comparison -------------------------------------------------------------------


def _outcome(lattice, result):
    if isinstance(result, RoutingFailure):
        return ("failure", result.reason, result.detail)
    return ("backbone", result.to_json(lattice))


def _check(lattice, assignment, circuit) -> str:
    """Compare index and reference routing; returns the outcome's reason."""
    matched = matched_mask(lattice, assignment)
    clusters = find_clusters(lattice, assignment)
    assert clusters.labels.tolist() == _ref_labels(lattice, matched)
    disabled = disabled_ids(flag_off_limits(lattice, clusters))
    spacing = auto_spacing(lattice, circuit)
    got = route_backbone(
        lattice, assignment, clusters, disabled, circuit, spacing
    )
    want = _ref_route(lattice, assignment, clusters, disabled, circuit, spacing)
    if isinstance(want, _RefBackbone):
        want = _indexed(lattice, want)
    assert _outcome(lattice, got) == _outcome(lattice, want)
    if not isinstance(want, RoutingFailure):
        assert got == want  # roles included
    return getattr(want, "reason", "routed")


@pytest.mark.parametrize("rows,cols", [(4, 8), (8, 16), (20, 40)])
@pytest.mark.parametrize(
    "circuit", [IDENTITY, ONE_CNOT], ids=["identity", "cnot"]
)
def test_iid_routes_match_reference(rows, cols, circuit):
    lattice = build_lattice(rows, cols)
    reasons = Counter(
        _check(lattice, stage1_sample(lattice, None, "iid", seed), circuit)
        for seed in range(200)
    )
    assert len(reasons) > 1  # more than one outcome was compared


@pytest.mark.parametrize("rows,cols", [(2, 4), (3, 4)])
@pytest.mark.parametrize("axis", ["x", "z"])
def test_exact_pinned_routes_match_reference(rows, cols, axis):
    lattice = build_lattice(rows, cols)
    term = BoundaryTermination(axis=axis)
    for seed in range(6):
        assignment = stage1_sample(lattice, term, "exact", seed)
        for circuit in (IDENTITY, ONE_CNOT):
            _check(lattice, assignment, circuit)


def test_reference_outcomes_cover_every_stage():
    # the 4x8 comparisons reach routed backbones and a failure from every
    # search and check that iid patterns hit in practice
    lattice = build_lattice(4, 8)
    reasons = Counter(
        _check(lattice, stage1_sample(lattice, None, "iid", seed), circuit)
        for seed in range(200)
        for circuit in (IDENTITY, ONE_CNOT)
    )
    assert set(reasons) >= {
        "routed",
        "no-percolating-path",
        "no-junction-column",
        "backbone-adjacency",
        "cluster-loop",
        "audit",
    }


# -- audit --------------------------------------------------------------------


def _backbone_sites(backbone):
    """The wire sites and the junction links' sites."""
    out = {s for path in backbone.wires for s in path}
    out.update(s for j in backbone.junctions for s in j.link)
    return out


def _branch_cut(lattice, backbone):
    """(extension, associate) sites that touch no backbone site and not
    each other: one deep in a hanging branch, one feeding another branch
    site only. None if a layout has no such pair. Dropping their roles
    leaves every backbone site's own legs as they were, so only the check
    of the branch's sites can see it."""
    far = _backbone_sites(backbone)

    def deep(role_type):
        for s, role in sorted(backbone.roles.items()):
            near = {n for _, n in _ref_incident(lattice, s)}
            if isinstance(role, role_type) and not near & far:
                return s
        return None

    ext = deep(ClusterExtension)
    if ext is None:
        return None
    far.add(ext)
    assoc = deep(Associate)
    return None if assoc is None else (ext, assoc)


def _mutations(lattice, clusters, disabled, backbone):
    """(name, backbone, disabled) for a backbone and its broken variants."""
    wires, mid = backbone.wires, len(backbone.wires[0]) // 2
    roles = dict(backbone.roles)
    del roles[wires[0][mid]]
    labels = clusters.labels
    on_wire = {int(labels[lattice.site_index(s)]) for s in wires[0]} - {-1}
    dropped = (*wires[0][:mid], *wires[0][mid + 1:])
    yield "as routed", backbone, disabled
    yield "role dropped", dataclasses.replace(backbone, roles=roles), disabled
    yield "wire reversed", dataclasses.replace(
        backbone, wires=(wires[0][::-1], *wires[1:])
    ), disabled
    yield "spacing 1", dataclasses.replace(backbone, spacing=1), disabled
    yield "wire clusters disabled", backbone, disabled | on_wire
    yield "wire site dropped", dataclasses.replace(
        backbone, wires=(dropped, *wires[1:])
    ), disabled
    cut = _branch_cut(lattice, backbone)
    if cut is not None:
        roles = dict(backbone.roles)
        for s in cut:
            del roles[s]
        yield "branch roles dropped", dataclasses.replace(
            backbone, roles=roles
        ), disabled
    for k, j in enumerate(backbone.junctions):
        short = dataclasses.replace(j, link=j.link[1:])
        junctions = list(backbone.junctions)
        junctions[k] = short
        yield f"link {k} site dropped", dataclasses.replace(
            backbone, junctions=tuple(junctions)
        ), disabled


def _compare_audits(
    lattice, assignment, circuit, clusters, disabled, backbone
):
    """Both audits on every mutation; counts (compared, non-empty, jumps)."""
    compared = nonempty = jumps = 0
    for name, bb, dis in _mutations(lattice, clusters, disabled, backbone):
        got = audit_backbone(
            lattice, assignment, _indexed(lattice, bb), circuit, clusters, dis
        )
        try:
            want = _ref_audit(lattice, assignment, bb, circuit, clusters, dis)
        except ValueError as exc:  # leg_between across the gap
            assert "are not neighbours" in str(exc)
            assert any(" jumps " in p for p in got), (name, got)
            jumps += 1
            continue
        assert got == want, name
        compared += 1
        nonempty += bool(want)
    return compared, nonempty, jumps


def test_audit_matches_reference_on_routed_and_mutated_backbones():
    # every layout the reference assembles, including those its audit
    # rejects, and five mutations of each
    totals = Counter()
    cases = []
    for rows, cols in ((4, 8), (8, 16), (20, 40)):
        lattice = build_lattice(rows, cols)
        for seed in range(100):
            cases.append((lattice, stage1_sample(lattice, None, "iid", seed)))
    for name, lattice, assignment, _term, _circuit, _ in e2e_fixtures():
        cases.append((lattice, assignment))
    for lattice, assignment in cases:
        clusters = find_clusters(lattice, assignment)
        disabled = disabled_ids(flag_off_limits(lattice, clusters))
        for circuit in (IDENTITY, ONE_CNOT):
            spacing = auto_spacing(lattice, circuit)
            backbone = _ref_layout(
                lattice, assignment, clusters, disabled, circuit, spacing
            )
            if isinstance(backbone, RoutingFailure):
                continue
            compared, nonempty, jumps = _compare_audits(
                lattice, assignment, circuit, clusters, disabled, backbone
            )
            totals.update(compared=compared, nonempty=nonempty, jumps=jumps)
            totals["layouts"] += 1
    assert totals["layouts"] > 50
    assert totals["nonempty"] > totals["layouts"]  # the mutations bite
    assert totals["jumps"] >= totals["layouts"]


def test_audit_reports_a_jumping_wire_and_link():
    _, lattice, assignment, term, circuit, spacing = e2e_fixtures()[2]
    clusters = find_clusters(lattice, assignment)
    backbone = route_backbone(
        lattice, assignment, clusters, frozenset(), circuit, spacing
    )
    assert not isinstance(backbone, RoutingFailure)
    wire = backbone.wires[0]
    ((top, link, bot),) = backbone.junctions
    jumpy = dataclasses.replace(
        backbone,
        wires=((wire[0], *wire[2:]), backbone.wires[1]),
        junctions=((top, link[1:], bot),),
    )
    problems = audit_backbone(
        lattice, assignment, jumpy, circuit, clusters, frozenset()
    )

    def site(i):
        return divmod(i, lattice.cols)

    assert f"wire 0 jumps {site(wire[0])}->{site(wire[2])}" in problems
    assert f"junction link jumps {site(top)}->{site(link[1])}" in problems


def test_audit_sees_roles_dropped_inside_a_hanging_branch():
    # no backbone site touches the cut, so every problem comes from the
    # check of the branch's own sites
    found = 0
    lattice = build_lattice(8, 16)
    for seed in range(40):
        assignment = stage1_sample(lattice, None, "iid", seed)
        clusters = find_clusters(lattice, assignment)
        disabled = disabled_ids(flag_off_limits(lattice, clusters))
        spacing = auto_spacing(lattice, IDENTITY)
        backbone = route_backbone(
            lattice, assignment, clusters, disabled, IDENTITY, spacing
        )
        if isinstance(backbone, RoutingFailure):
            continue
        sited = _sited(lattice, backbone)
        cases = dict(
            (name, bb)
            for name, bb, _ in _mutations(lattice, clusters, disabled, sited)
        )
        if "branch roles dropped" not in cases:
            continue
        cut = cases["branch roles dropped"]
        got = audit_backbone(
            lattice, assignment, _indexed(lattice, cut), IDENTITY, clusters,
            disabled,
        )
        assert got == _ref_audit(
            lattice, assignment, cut, IDENTITY, clusters, disabled
        )
        assert all(p.startswith("extension ") for p in got), got
        assert any(" outside its branch" in p for p in got), got
        assert any(" has no associate " in p for p in got), got
        found += 1
    assert found >= 3

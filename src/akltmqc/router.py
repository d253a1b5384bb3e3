"""Stage-one pattern analysis and backbone routing.

The sampled axes fix which bonds are matched; connected components of the
matched-bond graph form clusters. A pair of different-axis clusters joined
by two or more unmatched bonds would close a loop that no measurement can
remove, so one member of every such pair is disabled and its sites revert
to plain standard-basis readout. Routing then embeds the requested circuit
onto what is left: one horizontal wire per logical qubit inside its own row
band, a vertical staircase link for every CNOT, and per-site bookkeeping
roles naming where each interior widget gets its reference bit (a standard
neighbour, the boundary, or a renormalized cluster hanging off the site).

Routing failure is an ordinary return value carrying a diagnostic; the
normal remedy is a fresh stage-one sample, not an exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Bond, HexLattice, Leg, Site, SiteKind, build_lattice
from .sampler import AxisAssignment, matched_mask
from .tensors import AXES

FORMAT_VERSION = 1
DEFAULT_SPACING = 4
# Largest hanging cluster branch the renormalizer will fold.
RENORM_SITE_CAP = 12


# -- clusters -----------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """One connected component of the matched-bond graph."""

    id: int
    axis: str
    sites: frozenset[Site]


@dataclass(frozen=True, eq=False)
class Clusters:
    """The clusters of one axis pattern, labelled by site index.

    ``labels[i]`` is the id of the cluster holding site index ``i``, or -1
    for a site without a matched bond; ``axes`` and ``sizes`` give each
    cluster's axis (an index into ``AXES``) and site count. The per-cluster
    records (``items``, also what iterating yields, in id order) and the
    matched-bond graph (``adjacency``) are built on first use.
    """

    lattice: HexLattice
    matched: np.ndarray
    labels: np.ndarray
    axes: np.ndarray
    sizes: np.ndarray

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.axes)

    @cached_property
    def items(self) -> tuple[Cluster, ...]:
        """One record per cluster, in id order."""
        cols = self.lattice.cols
        groups: list[list[Site]] = [[] for _ in range(len(self))]
        members = np.flatnonzero(self.labels >= 0)
        for i, cid in zip(members.tolist(), self.labels[members].tolist()):
            groups[cid].append(divmod(i, cols))
        axes = self.axes.tolist()
        return tuple(
            Cluster(cid, AXES[axes[cid]], frozenset(group))
            for cid, group in enumerate(groups)
        )

    @cached_property
    def adjacency(self) -> dict[Site, set[Site]]:
        """Neighbours along matched bonds: the clusters' graph."""
        return _adjacency(self.lattice.bond_sites(self.matched))

    def owner(self, site: Site) -> int | None:
        """Id of the cluster holding ``site``, or None."""
        cid = int(self.labels[self.lattice.site_index(site)])
        return None if cid < 0 else cid

    def sites_of(self, ids) -> frozenset[Site]:
        """Every site of the clusters with the given ids."""
        picked = np.zeros(len(self) + 1, dtype=bool)  # [-1] stays False
        picked[list(ids)] = True
        cols = self.lattice.cols
        members = np.flatnonzero(picked[self.labels])
        return frozenset(divmod(i, cols) for i in members.tolist())


def _find(parent, x):
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def find_clusters(
    lattice: HexLattice,
    matched: np.ndarray,
    assignment: AxisAssignment,
) -> Clusters:
    """Label the components of the matched bonds, id'd in row-major order.

    ``matched`` masks ``lattice.bond_table()``. Sites without a matched
    bond belong to no cluster. A union-find over site indices keeps the
    smallest index as every root (Hoshen & Kopelman, PRB 14, 3438, 1976),
    so ids count up from 0 following the row-major position of each
    cluster's first site and the labelling is reproducible.
    """
    codes = assignment.codes(lattice)
    a, b = lattice.bond_table()
    ends_a, ends_b = a[matched], b[matched]
    n = lattice.n_sites
    parent = list(range(n))
    for i, j in zip(ends_a.tolist(), ends_b.tolist()):
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            lo, hi = (ri, rj) if ri < rj else (rj, ri)
            parent[hi] = lo
    root = np.array(parent, dtype=np.intp)
    while True:  # point every site straight at its root
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    clustered = np.zeros(n, dtype=bool)
    clustered[ends_a] = True
    clustered[ends_b] = True
    first = np.flatnonzero(clustered & (root == np.arange(n)))
    ids = np.full(n, -1, dtype=np.intp)
    ids[first] = np.arange(len(first))
    labels = np.where(clustered, ids[root], -1)
    mixed = clustered & (codes != codes[root])
    if mixed.any():
        cid = int(labels[mixed].min())
        axes = sorted({AXES[k] for k in codes[labels == cid].tolist()})
        site = divmod(int(first[cid]), lattice.cols)
        raise ValueError(f"cluster at {site} mixes axes {axes}")
    labels.flags.writeable = False
    sizes = np.bincount(labels[clustered], minlength=len(first))
    return Clusters(lattice, matched, labels, codes[first], sizes)


@dataclass(frozen=True)
class OffLimitsPair:
    """Two different-axis clusters joined by at least two unmatched bonds.

    ``disabled`` names the member chosen to revert to standard readout.
    """

    first: int
    second: int
    bonds: frozenset[Bond]
    disabled: int


def flag_off_limits(
    lattice: HexLattice, clusters: Clusters
) -> list[OffLimitsPair]:
    """Flag loop-inducing cluster pairs and pick a member of each to disable.

    Greedy in ascending (first, second) id order: a pair whose member is
    already disabled needs nothing more; otherwise the smaller cluster goes
    (ties broken toward the lower id). One pass is enough for validity --
    every flagged pair ends up with at least one disabled member -- though
    the selection is not guaranteed minimal.
    """
    n_clusters = len(clusters)
    labels, axis = clusters.labels, clusters.axes
    size = clusters.sizes.tolist()
    a, b = lattice.bond_table()
    la, lb = labels[a], labels[b]
    joins = np.flatnonzero(~clusters.matched & (la >= 0) & (lb >= 0))
    lo = np.minimum(la[joins], lb[joins])
    hi = np.maximum(la[joins], lb[joins])
    apart = axis[lo] != axis[hi]  # also rules out lo == hi
    # one code per (first, second) pair, ascending in (first, second)
    joins, key = joins[apart], (lo * n_clusters + hi)[apart]
    order = np.argsort(key, kind="stable")
    joins, key = joins[order], key[order]
    pair_codes, counts = np.unique(key, return_counts=True)
    flagged = counts >= 2
    ends = iter(lattice.bond_sites(joins[np.repeat(flagged, counts)]))
    out: list[OffLimitsPair] = []
    down: set[int] = set()
    for code, count in zip(
        pair_codes[flagged].tolist(), counts[flagged].tolist()
    ):
        pair = divmod(code, n_clusters)
        if pair[0] in down:
            gone = pair[0]
        elif pair[1] in down:
            gone = pair[1]
        else:
            gone = min(pair, key=lambda i: (size[i], i))
            down.add(gone)
        bonds = frozenset(Bond(*next(ends)) for _ in range(count))
        out.append(OffLimitsPair(pair[0], pair[1], bonds, gone))
    return out


def disabled_ids(pairs: list[OffLimitsPair]) -> frozenset[int]:
    return frozenset(p.disabled for p in pairs)


# -- backbone layout ----------------------------------------------------------


@dataclass(frozen=True)
class Degree2Wire:
    wire: int


@dataclass(frozen=True)
class Degree3Junction:
    wire: int


@dataclass(frozen=True)
class Associate:
    partner: Site


@dataclass(frozen=True)
class ClusterExtension:
    root: Site


@dataclass(frozen=True)
class Unused:
    pass


Role = Degree2Wire | Degree3Junction | Associate | ClusterExtension | Unused


@dataclass(frozen=True)
class JunctionPair:
    """CNOT plumbing: the degree-3 site on each wire plus the link between.

    ``control`` is the Top-kind z-axis site on the upper (control) wire,
    ``target`` the Bot-kind x-axis site on the lower (target) wire, and
    ``link`` the staircase of interior sites walking from control to
    target. The control site's stem bond reaches link[0]; link[-1]'s stem
    reaches the target site.
    """

    control: Site
    target: Site
    link: tuple[Site, ...]


@dataclass
class Backbone:
    """Routed embedding of a circuit onto one sampled axis pattern."""

    roles: dict[Site, Role]
    wires: tuple[tuple[Site, ...], ...]  # each ordered right edge -> left edge
    junctions: tuple[JunctionPair, ...]  # circuit order
    spacing: int

    def backbone_sites(self) -> frozenset[Site]:
        out: set[Site] = set()
        for path in self.wires:
            out.update(path)
        for j in self.junctions:
            out.update(j.link)
        return frozenset(out)

    def to_json(self, lattice: HexLattice) -> dict:
        def code(site: Site) -> str:
            role = self.roles.get(site, Unused())
            if isinstance(role, Degree2Wire):
                return f"w{role.wire}"
            if isinstance(role, Degree3Junction):
                return f"J{role.wire}"
            if isinstance(role, Associate):
                return "a"
            if isinstance(role, ClusterExtension):
                return "c"
            return "."

        return {
            "format_version": FORMAT_VERSION,
            "rows": lattice.rows,
            "cols": lattice.cols,
            "spacing": self.spacing,
            "grid": [
                [code((r, c)) for c in range(lattice.cols)]
                for r in range(lattice.rows)
            ],
            "wires": [[list(s) for s in path] for path in self.wires],
            "junctions": [
                {
                    "control": list(j.control),
                    "target": list(j.target),
                    "link": [list(s) for s in j.link],
                }
                for j in self.junctions
            ],
        }


@dataclass(frozen=True)
class RoutingFailure:
    """Why no backbone could be built on this axis pattern."""

    reason: str
    detail: str = ""


def _band(wire: int, spacing: int, rows: int) -> range:
    lo = wire * spacing
    return range(lo, min(lo + spacing, rows))


def _wire_path(
    lattice: HexLattice, band: range, blocked: frozenset[Site]
) -> tuple[Site, ...] | None:
    """Breadth-first right-to-left path inside the band, or None.

    Neighbour order prefers LEFT, so an unobstructed band yields the
    straight row at the band top and ties resolve reproducibly.
    """
    cols = lattice.cols
    starts = [(r, cols - 1) for r in band if (r, cols - 1) not in blocked]
    prev: dict[Site, Site | None] = {s: None for s in starts}
    queue = deque(starts)
    goal = None
    while queue:
        cur = queue.popleft()
        if cur[1] == 0:
            goal = cur
            break
        for leg in (Leg.LEFT, Leg.VERT, Leg.RIGHT):
            nb = lattice.neighbor(cur, leg)
            if (
                nb is None
                or nb in prev
                or nb[0] not in band
                or nb in blocked
            ):
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


def _has_free_z(
    assignment: AxisAssignment,
    path: tuple[Site, ...],
    used: set[Site],
    side: str,
    col: int,
) -> bool:
    """Is there an unclaimed z-axis site on the path strictly beyond col?"""
    for s in path:
        if s in used or assignment[s] != "z":
            continue
        if side == "right" and s[1] > col:
            return True
        if side == "left" and s[1] < col:
            return True
    return False


def _link_path(
    lattice: HexLattice,
    assignment: AxisAssignment,
    start: Site,
    forbidden: frozenset[Site],
    tgt_path: tuple[Site, ...],
    used: set[Site],
    frontier_tgt: int,
) -> tuple[tuple[Site, ...], Site] | None:
    """Staircase from below a control junction down to a usable target site.

    Walks interior sites (never wire, junction or blocked sites); succeeds
    on reaching a Top-kind site whose stem lands on an unclaimed x-axis
    Bot-kind site of the target path right of that wire's frontier.
    """
    tgt_sites = set(tgt_path)
    prev: dict[Site, Site | None] = {start: None}
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
                and _has_free_z(assignment, tgt_path, used, "right", t[1])
                and _has_free_z(assignment, tgt_path, used, "left", t[1])
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


def spacing_failure(
    lattice: HexLattice, n_wires: int, spacing: int
) -> RoutingFailure | None:
    """Why ``n_wires`` bands ``spacing`` rows apart cannot fit, or None.

    The answer depends on the patch shape alone, not on any sample.
    """
    if spacing < 1:
        return RoutingFailure("spacing-violation", "spacing must be >= 1")
    if (n_wires - 1) * spacing > lattice.rows - 1:
        return RoutingFailure(
            "spacing-violation",
            f"{n_wires} wires at spacing {spacing} need "
            f"{(n_wires - 1) * spacing + 1} rows, lattice has {lattice.rows}",
        )
    return None


def route_backbone(
    lattice: HexLattice,
    assignment: AxisAssignment,
    clusters: Clusters,
    disabled: frozenset[int],
    circuit,
    spacing: int = DEFAULT_SPACING,
) -> Backbone | RoutingFailure:
    """Embed the circuit's wires and CNOT links onto the axis pattern.

    Wires live in disjoint row bands ``spacing`` rows apart; each CNOT gets
    a junction pair placed greedily from the right, left of every earlier
    junction on the wires it touches. Sites of disabled clusters are
    obstacles. The result is audited before it is returned, so a Backbone
    that comes back satisfies the layout invariants.
    """
    from .logic import CNOT  # deferred: logic builds on this module

    assignment.validate(lattice)
    unfit = spacing_failure(lattice, circuit.wires, spacing)
    if unfit is not None:
        return unfit
    n_wires = circuit.wires
    oversized = np.flatnonzero(clusters.sizes > RENORM_SITE_CAP).tolist()
    blocked = clusters.sites_of(disabled.union(oversized))

    wires: list[tuple[Site, ...]] = []
    for w in range(n_wires):
        path = _wire_path(lattice, _band(w, spacing, lattice.rows), blocked)
        if path is None:
            return RoutingFailure(
                "no-percolating-path", f"wire {w} found no right-left path"
            )
        wires.append(path)
    wire_sites = {s: w for w, path in enumerate(wires) for s in path}

    junctions: list[JunctionPair] = []
    used: set[Site] = set()  # junction and link sites claimed so far
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
            if not _has_free_z(assignment, wires[ctl], used, "right", s[1]):
                continue
            if not _has_free_z(assignment, wires[ctl], used, "left", s[1]):
                continue
            below = lattice.neighbor(s, Leg.VERT)
            if below is None or below in forbidden:
                continue
            hit = _link_path(
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
        junctions.append(JunctionPair(top, bot, link))
        used.add(top)
        used.add(bot)
        used.update(link)
        frontier[ctl] = min(frontier[ctl], top[1])
        frontier[tgt] = min(frontier[tgt], bot[1])

    backbone = _assemble(
        lattice, assignment, clusters, wires, junctions, spacing
    )
    if isinstance(backbone, RoutingFailure):
        return backbone
    problems = audit_backbone(
        lattice, assignment, backbone, circuit, clusters, disabled
    )
    if problems:
        return RoutingFailure("audit", "; ".join(problems[:4]))
    return backbone


def _adjacency(edges) -> dict[Site, set[Site]]:
    """Neighbour sets of the graph on the given (a, b) edges."""
    adj: dict[Site, set[Site]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _matched_adjacency(
    lattice: HexLattice, assignment: AxisAssignment
) -> dict[Site, set[Site]]:
    """Neighbours along matched bonds: the clusters' graph."""
    return _adjacency(lattice.bond_sites(matched_mask(lattice, assignment)))


def _backbone_adjacency(
    wires: list[tuple[Site, ...]], junctions: list[JunctionPair]
) -> dict[Site, set[Site]]:
    """Neighbours along wire paths, links and junction stem bonds."""
    chains = [*wires, *((j.control, *j.link, j.target) for j in junctions)]
    return _adjacency(e for chain in chains for e in zip(chain, chain[1:]))


def _assemble(
    lattice: HexLattice,
    assignment: AxisAssignment,
    clusters: Clusters,
    wires: list[tuple[Site, ...]],
    junctions: list[JunctionPair],
    spacing: int,
) -> Backbone | RoutingFailure:
    """Attach roles (wire, junction, associate, extension) or report why not."""
    roles: dict[Site, Role] = {}
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

    adj = _backbone_adjacency(wires, junctions)
    backbone_sites = set(adj)
    cluster_adj = clusters.adjacency

    # phase one: resolve every matched stem into a hanging branch
    extensions: set[Site] = set()
    stems: list[tuple[Site, Site]] = []
    for s in sorted(backbone_sites):
        if s in junction_sites:
            continue
        used_legs = {lattice.leg_between(s, nb) for nb in adj[s]}
        for leg in Leg:
            if leg in used_legs:
                continue
            n = lattice.neighbor(s, leg)
            if n is None:
                continue  # boundary termination feeds this widget
            if n in backbone_sites:
                return RoutingFailure(
                    "backbone-adjacency",
                    f"{s} and {n} touch outside the routed paths",
                )
            if assignment[n] != assignment[s]:
                stems.append((s, n))
                continue
            branch = _hanging_branch(cluster_adj, n, s, backbone_sites)
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

    # phase two: standard associates, for backbone and extension sites alike
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
        cid = clusters.owner(n)
        if cid is not None and interior & clusters.sites_of([cid]):
            return RoutingFailure(
                "off-limits-leak",
                f"{n} sits in a cluster already tied to the backbone",
            )
        roles.setdefault(n, Associate(partner=s))

    return Backbone(
        roles=roles,
        wires=tuple(wires),
        junctions=tuple(junctions),
        spacing=spacing,
    )


def _hanging_branch(
    cluster_adj: dict[Site, set[Site]],
    first: Site,
    root: Site,
    backbone_sites: set[Site],
) -> frozenset[Site] | None:
    """Matched-graph component behind ``first``, or None if it touches the
    backbone anywhere besides the root stem (that would close a loop)."""
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


# -- audit --------------------------------------------------------------------


def audit_backbone(
    lattice: HexLattice,
    assignment: AxisAssignment,
    backbone: Backbone,
    circuit,
    clusters: Clusters | tuple[Cluster, ...] = (),
    disabled: frozenset[int] = frozenset(),
) -> list[str]:
    """Independent invariant check; returns human-readable problems.

    Validates path shape and band discipline, junction typing and ordering,
    role consistency, reference-bit availability for every interior site,
    cluster containment, and that the interior-measured region closes no
    loop the circuit does not call for.
    """
    from .logic import CNOT

    problems: list[str] = []
    wires = backbone.wires
    if len(wires) != circuit.wires:
        problems.append(
            f"{len(wires)} wires routed, circuit wants {circuit.wires}"
        )
        return problems

    seen: set[Site] = set()
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
            if b not in {n for _, n in lattice.incident(a)}:
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
            if b not in {n for _, n in lattice.incident(a)}:
                problems.append(f"junction link jumps {a}->{b}")
                break
        if j.link:
            if lattice.neighbor(j.control, Leg.VERT) != j.link[0]:
                problems.append(f"link does not hang from {j.control}")
            if lattice.neighbor(j.link[-1], Leg.VERT) != j.target:
                problems.append(f"link does not land on {j.target}")

    adj = _backbone_adjacency(list(wires), list(backbone.junctions))
    backbone_sites = set(adj)
    junction_sites = {j.control for j in backbone.junctions} | {
        j.target for j in backbone.junctions
    }
    extensions = {
        s for s, r in backbone.roles.items() if isinstance(r, ClusterExtension)
    }
    blocked = {
        s for c in clusters if c.id in disabled for s in c.sites
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
            if len(adj[s]) != 3 and lattice.degree(s) == 3:
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

    # the interior-measured region may close only the circuit's own loops
    region = backbone_sites | extensions
    edges = [
        (s, n)
        for s in sorted(region)
        for _, n in lattice.incident(s)
        if n in region and s < n
    ]
    region_rank = len(edges) - len(region) + _component_count(region, edges)
    circuit_edges = [(g.control, g.target) for g in cnots]
    circuit_rank = (
        len(cnots) - circuit.wires
        + _component_count(range(circuit.wires), circuit_edges)
    )
    if region_rank != circuit_rank:
        problems.append(
            f"interior region closes {region_rank} loops, "
            f"circuit calls for {circuit_rank}"
        )
    for c in clusters:
        touched = {w for w, path in enumerate(wires) if set(path) & c.sites}
        if len(touched) > 1:
            problems.append(f"cluster {c.id} touches wires {sorted(touched)}")
    return problems


def _component_count(nodes, edges) -> int:
    """Connected components of the graph on ``nodes`` with ``edges``."""
    parent = {n: n for n in nodes}
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return len({_find(parent, n) for n in parent})


# -- percolation --------------------------------------------------------------


def _span_thresholds(
    rows: int, cols: int, trials: int, rng_seed, p_max: float
) -> np.ndarray:
    """Per-trial spanning thresholds of the brick-wall patch.

    Each trial draws one uniform ``u`` per bond from its own spawned seed;
    the bond is occupied at ``p`` when ``u < p``. Bonds are added in
    increasing ``u`` until occupied bonds connect the left and right
    columns, and the ``u`` of the bond that joined them is the threshold:
    the trial spans at ``p`` exactly when its threshold is below ``p``
    (Newman & Ziff, PRL 85, 4104, 2000). The sweep stops at ``p_max``,
    leaving +inf for trials that have not spanned below it; a one-column
    patch spans before any bond is added and gets -inf.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    lat = build_lattice(rows, cols)
    if cols == 1:
        return np.full(trials, -np.inf)
    bond_a, bond_b = (ends.tolist() for ends in lat.bond_table())
    # Each edge column starts as one tree rooted at its top site. The
    # smaller root wins every union, so site 0 stays the left edge's root;
    # ``right`` follows the right edge's root, and the edges meet when it
    # reaches 0.
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
            ra, rb = _find(parent, bond_a[k]), _find(parent, bond_b[k])
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


def _check_occupation(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"occupation probability {p} outside [0, 1]")


def _span_fraction(thresholds: np.ndarray, p: float) -> tuple[float, float]:
    """Fraction of trials spanning at ``p`` and its binomial stderr."""
    trials = len(thresholds)
    fraction = int(np.count_nonzero(thresholds < p)) / trials
    stderr = float(np.sqrt(fraction * (1.0 - fraction) / trials))
    return fraction, stderr


def spanning_probability(
    rows: int,
    cols: int,
    p: float,
    trials: int,
    rng_seed,
) -> tuple[float, float]:
    """Monte Carlo left-right spanning fraction and its binomial stderr.

    Bonds of the brick-wall patch are occupied independently with
    probability ``p``; a trial spans when occupied bonds connect the left
    and right columns. Each trial draws its bonds from its own spawned
    seed, so the estimate is reproducible. ``rng_seed`` may be an int or a
    sequence of ints.
    """
    _check_occupation(p)
    return _span_fraction(
        _span_thresholds(rows, cols, trials, rng_seed, p), p
    )


def spanning_sweep(
    sizes: list[tuple[int, int]],
    ps: list[float],
    trials: int,
    rng_seed: int,
) -> list[dict]:
    """Fractions over a (size, p) grid; rows ready for CSV emission.

    Every p of one size is read off the same trials, seeded
    ``[rng_seed, size index]``, so the fractions never decrease in p.
    """
    for p in ps:
        _check_occupation(p)
    out = []
    for si, (rows, cols) in enumerate(sizes):
        thresholds = _span_thresholds(
            rows, cols, trials, [rng_seed, si], max(ps, default=0.0)
        )
        for p in ps:
            frac, err = _span_fraction(thresholds, p)
            out.append(
                {
                    "p": p,
                    "rows": rows,
                    "cols": cols,
                    "trials": trials,
                    "fraction": frac,
                    "stderr": err,
                }
            )
    return out


def crossing_estimate(
    small: tuple[int, int],
    large: tuple[int, int],
    ps: list[float],
    trials: int,
    rng_seed: int,
) -> float | None:
    """p where the two sizes' spanning curves cross (linear interpolation).

    Below the transition the larger patch spans less often, above it more,
    so the sign flip of (small - large) brackets the critical point.
    """
    rows = spanning_sweep([small, large], ps, trials, rng_seed)
    half = len(ps)
    diff = [rows[i]["fraction"] - rows[half + i]["fraction"] for i in range(half)]
    for i in range(half - 1):
        if diff[i] > 0.0 >= diff[i + 1]:
            span = diff[i] - diff[i + 1]
            frac = diff[i] / span if span > 0 else 0.5
            return ps[i] + frac * (ps[i + 1] - ps[i])
    return None

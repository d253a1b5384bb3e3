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

``analyse_patterns`` does both for a whole block of patterns in one numpy
pass and one greedy pass; ``find_clusters`` is its one-pattern case.

Clustering, routing, the returned Backbone and the independent audit of
each routed backbone are all on integer site indices and
``lattice.neighbor_table()``; sites become ``Site`` tuples only in the
backbone's JSON and in failure and audit messages. Routing failure is an
ordinary return value carrying a diagnostic; the normal remedy is a fresh
stage-one sample, not an exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .lattice import HexLattice, Leg, Site, build_lattice
from .sampler import AxisAssignment
from .tensors import AXES

FORMAT_VERSION = 1
DEFAULT_SPACING = 4
_X, _Z = AXES.index("x"), AXES.index("z")
# Largest hanging cluster branch the renormalizer will fold.
RENORM_SITE_CAP = 12


# -- clusters -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Clusters:
    """The clusters of one axis pattern, labelled by site index.

    ``labels[i]`` is the id of the cluster holding site index ``i``, or -1
    for a site without a matched bond; ``axes`` and ``sizes`` give each
    cluster's axis (an index into ``AXES``) and site count, in id order.
    The matched-bond graph is not stored: two neighbours in
    ``lattice.neighbor_table()`` are matched when their axis codes agree.
    """

    matched: np.ndarray
    labels: np.ndarray
    axes: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.axes)


def _component_roots(root: np.ndarray, ends_a, ends_b) -> np.ndarray:
    """Smallest node of each node's component, for the edges
    (ends_a[k], ends_b[k]), from ``root`` (updated in place): every node
    pointing straight at the smallest node of its tree (``np.arange`` for
    no trees yet).

    Each round hooks the roots at both ends of every edge onto the smaller
    of the two (``np.minimum.at``), then points every node straight at its
    root by pointer jumping, until each edge joins equal roots. Roots only
    ever move to smaller indices, so every root is the smallest node of its
    component (as in Hoshen & Kopelman, PRB 14, 3438, 1976).
    """
    while True:
        root_a, root_b = root[ends_a], root[ends_b]
        if (root_a == root_b).all():
            return root
        lower = np.minimum(root_a, root_b)
        np.minimum.at(root, root_a, lower)
        np.minimum.at(root, root_b, lower)
        while True:  # point every node straight at its root
            up = root[root]
            if (up == root).all():
                break
            root = up


def find_clusters(lattice: HexLattice, assignment: AxisAssignment) -> Clusters:
    """Label the components of the matched bonds (those joining two sites
    of equal axis), id'd in row-major order: the one-row
    ``analyse_patterns``.

    Sites without a matched bond belong to no cluster. Each component's
    root is its smallest site index, so ids count up from 0 following the
    row-major position of each cluster's first site and the labelling is
    reproducible.
    """
    codes = assignment.codes(lattice)
    ((clusters, _),) = analyse_patterns(lattice, codes[None])
    return clusters


def analyse_patterns(
    lattice: HexLattice, codes: np.ndarray
) -> list[tuple[Clusters, frozenset[int]]]:
    """Each pattern's clusters and disabled cluster ids, in one pass.

    ``codes`` holds one pattern per row; a bond of ``lattice.bond_table()``
    is matched in a row when it joins two equal codes there, so every
    cluster has one axis. Site ``i`` of row ``k`` is node
    ``k * n_sites + i``. A matched horizontal bond continues its left end's
    row run, so one ``np.maximum.accumulate`` points every node at its
    run's first node;
    ``_component_roots`` hooks the matched vertical bonds. One ``cumsum``
    numbers the roots, so global ids count up row by row; a row's ids are
    its global ids less its first. They never clash across rows, so one
    ``_off_limits`` pass picks every row's disabled members.
    """
    rows, n = codes.shape
    a, b = lattice.bond_table()
    matched = np.take(codes, a, axis=1) == np.take(codes, b, axis=1)
    k, bond = np.divmod(np.flatnonzero(matched), len(a))
    ends_a, ends_b = a[bond] + k * n, b[bond] + k * n
    flat = ends_b == ends_a + 1
    root = np.arange(rows * n)
    root[ends_b[flat]] = 0
    np.maximum.accumulate(root, out=root)
    root = _component_roots(root, ends_a[~flat], ends_b[~flat])
    clustered = np.zeros(rows * n, dtype=bool)
    clustered[ends_a] = True
    clustered[ends_b] = True
    leads = clustered & (root == np.arange(rows * n))
    labels = np.cumsum(leads) - 1  # each root's id
    base = np.append(0, labels[n - 1::n] + 1)  # each row's first id
    labels = np.where(clustered, labels[root], -1)
    axes = codes.ravel()[leads]
    sizes = np.bincount(labels[clustered], minlength=len(axes))
    labels = labels.reshape(rows, n)
    la, lb = np.take(labels, a, axis=1), np.take(labels, b, axis=1)
    *_, pairs = _off_limits(
        la.ravel(), lb.ravel(), matched.ravel(), axes, sizes
    )
    labels = np.where(labels >= 0, labels - base[:-1, None], -1)
    labels.flags.writeable = False
    off = np.zeros(len(axes), dtype=bool)
    off[[gone for *_, gone in pairs]] = True
    base = base.tolist()
    return [
        (
            Clusters(m, row, axes[lo:hi], sizes[lo:hi]),
            frozenset(np.flatnonzero(off[lo:hi]).tolist()),
        )
        for m, row, lo, hi in zip(matched, labels, base, base[1:])
    ]


@dataclass(frozen=True)
class OffLimitsPair:
    """Two different-axis clusters joined by at least two unmatched bonds.

    ``disabled`` names the member chosen to revert to standard readout.
    ``joins`` holds the joining bonds' indices into ``bond_table()``.
    """

    first: int
    second: int
    joins: tuple[int, ...]
    disabled: int


def _off_limits(la, lb, matched, axes, sizes):
    """Flag loop-inducing cluster pairs and pick a member of each to disable.

    Takes the cluster ids at both ends of every bond (-1 for none), the
    matched mask, and each cluster's axis and size. Returns the unmatched
    bonds joining different-axis clusters, sorted by pair; the start and
    length of each flagged pair's run of them (two or more); and each
    flagged pair as (first, second, disabled member).

    Greedy in ascending (first, second) id order: a pair whose member is
    already disabled needs nothing more; otherwise the smaller cluster goes
    (ties broken toward the lower id). One pass is enough for validity --
    every flagged pair ends up with at least one disabled member -- though
    the selection is not guaranteed minimal.
    """
    joins = np.flatnonzero(~matched & (la >= 0) & (lb >= 0))
    lo = np.minimum(la[joins], lb[joins])
    hi = np.maximum(la[joins], lb[joins])
    apart = axes[lo] != axes[hi]  # also rules out lo == hi
    # one code per (first, second) pair, ascending in (first, second)
    joins, key = joins[apart], (lo * len(axes) + hi)[apart]
    order = np.argsort(key, kind="stable")
    joins, key = joins[order], key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))  # each pair's first
    count = np.diff(start, append=len(key))
    start, count = start[count >= 2], count[count >= 2]
    firsts, seconds = np.divmod(key[start], len(axes))
    pairs: list[tuple[int, int, int]] = []
    down: set[int] = set()
    for first, second, first_size, second_size in zip(
        firsts.tolist(),
        seconds.tolist(),
        sizes[firsts].tolist(),
        sizes[seconds].tolist(),
    ):
        if first in down:
            gone = first
        elif second in down:
            gone = second
        else:
            gone = second if second_size < first_size else first
            down.add(gone)
        pairs.append((first, second, gone))
    return joins, start, count, pairs


def flag_off_limits(
    lattice: HexLattice, clusters: Clusters
) -> list[OffLimitsPair]:
    """The off-limits pairs of one pattern's clusters (``_off_limits``)."""
    a, b = lattice.bond_table()
    labels = clusters.labels
    joins, start, count, pairs = _off_limits(
        labels[a], labels[b], clusters.matched, clusters.axes, clusters.sizes
    )
    joins = joins.tolist()
    return [
        OffLimitsPair(first, second, tuple(joins[i:i + n]), gone)
        for (first, second, gone), i, n in zip(
            pairs, start.tolist(), count.tolist()
        )
    ]


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
    partner: int


@dataclass(frozen=True)
class ClusterExtension:
    root: int


Role = Degree2Wire | Degree3Junction | Associate | ClusterExtension


@dataclass
class Backbone:
    """Routed embedding of a circuit onto one sampled axis pattern, on site
    indices.

    ``wires`` holds each wire's path, ordered right edge -> left edge.
    ``junctions`` holds each CNOT's plumbing, in circuit order, as a
    (control, link, target) chain: ``control`` is the Top-kind z-axis site
    on the upper (control) wire, ``target`` the Bot-kind x-axis site on the
    lower (target) wire, and ``link`` the staircase of interior sites
    walking from control to target. The control site's stem bond reaches
    link[0]; link[-1]'s stem reaches the target site. ``roles`` gives every
    site that has a role; the rest are unused.
    """

    roles: dict[int, Role]
    wires: tuple[tuple[int, ...], ...]
    junctions: tuple[tuple[int, tuple[int, ...], int], ...]
    spacing: int

    def to_json(self, lattice: HexLattice) -> dict:
        cols = lattice.cols

        def site(i: int) -> list[int]:
            return list(divmod(i, cols))

        def code(i: int) -> str:
            role = self.roles.get(i)
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
                [code(i) for i in range(lo, lo + cols)]
                for lo in range(0, lattice.n_sites, cols)
            ],
            "wires": [[site(i) for i in path] for path in self.wires],
            "junctions": [
                {
                    "control": site(top),
                    "target": site(bot),
                    "link": [site(i) for i in link],
                }
                for top, link, bot in self.junctions
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
    lattice: HexLattice, band: range, blocked: list[bool]
) -> tuple[int, ...] | None:
    """Breadth-first right-to-left path inside the band, or None.

    Walks site indices on ``lattice.neighbor_table()`` and never enters a
    ``blocked`` index. Neighbour order prefers LEFT, so an unobstructed
    band yields the straight row at the band top and ties resolve
    reproducibly. The path runs from the right edge to the left edge.
    """
    table = lattice.neighbor_table()
    cols = lattice.cols
    lo, hi = band.start * cols, band.stop * cols  # the band's indices
    starts = [i for i in range(lo + cols - 1, hi, cols) if not blocked[i]]
    prev = dict.fromkeys(starts, -1)
    queue = deque(starts)
    while queue:
        cur = queue.popleft()
        if cur % cols == 0:
            return _trace_back(prev, cur)
        left, right, vert = table[cur]
        for nb in (left, vert, right):
            if lo <= nb < hi and nb not in prev and not blocked[nb]:
                prev[nb] = cur
                queue.append(nb)
    return None


def _trace_back(prev: dict[int, int], end: int) -> tuple[int, ...]:
    """The breadth-first path from its start (marked -1) to ``end``."""
    path = [end]
    while prev[path[-1]] >= 0:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def _free_z_span(
    path: tuple[int, ...], claimed: set[int], code: list[int], cols: int
) -> tuple[int, int]:
    """Columns of the leftmost and rightmost unclaimed z-axis path sites.

    A junction at column c needs such a site strictly on either side of
    it, that is span[0] < c < span[1]; a path with none gives (cols, -1).
    """
    free = [i % cols for i in path if code[i] == _Z and i not in claimed]
    return (min(free), max(free)) if free else (cols, -1)


def _link_path(
    lattice: HexLattice,
    code: list[int],
    start: int,
    forbidden: list[bool],
    tgt_path: tuple[int, ...],
    claimed: set[int],
    window: tuple[int, int],
) -> tuple[tuple[int, ...], int] | None:
    """Staircase from below a control junction down to a usable target site.

    Walks interior site indices (``forbidden`` masks wire, link and
    blocked sites); succeeds on reaching a Top-kind site whose stem lands
    on an unclaimed x-axis site of the target path in a column c with
    window[0] < c < window[1].
    """
    table = lattice.neighbor_table()
    cols = lattice.cols
    on_target = set(tgt_path)
    lo, hi = window
    prev = {start: -1}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        left, right, vert = table[cur]
        r, c = divmod(cur, cols)
        if (
            (r + c) % 2 == 0  # Top kind: the stem points down
            and vert in on_target
            and vert not in claimed
            and code[vert] == _X
            and lo < vert % cols < hi
        ):
            return _trace_back(prev, cur), vert
        for nb in (vert, left, right):
            if nb >= 0 and nb not in prev and not forbidden[nb]:
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
    obstacles. Every search walks site indices on the lattice's cached
    ``neighbor_table()``, with the axis codes and the blocked, wire and
    claimed sites as index masks, and the Backbone holds the same indices.
    The result is audited before it is returned, so a Backbone that comes
    back satisfies the layout invariants.
    """
    from .logic import CNOT  # deferred: logic builds on this module

    codes = assignment.codes(lattice)  # checks the patch shape
    unfit = spacing_failure(lattice, circuit.wires, spacing)
    if unfit is not None:
        return unfit
    n_wires = circuit.wires
    cols = lattice.cols
    table = lattice.neighbor_table()
    code = codes.tolist()
    gone = np.zeros(len(clusters) + 1, dtype=bool)  # [-1]: no cluster
    gone[list(disabled)] = True
    gone[:-1] |= clusters.sizes > RENORM_SITE_CAP
    blocked = gone[clusters.labels].tolist()

    wires: list[tuple[int, ...]] = []
    for w in range(n_wires):
        path = _wire_path(lattice, _band(w, spacing, lattice.rows), blocked)
        if path is None:
            return RoutingFailure(
                "no-percolating-path", f"wire {w} found no right-left path"
            )
        wires.append(path)

    junctions: list[tuple[int, tuple[int, ...], int]] = []
    forbidden = blocked.copy()  # links avoid blocked, wire and link sites
    for path in wires:
        for i in path:
            forbidden[i] = True
    claimed: set[int] = set()  # junction sites so far
    frontier = [cols] * n_wires
    for gate in circuit.gates:
        if not isinstance(gate, CNOT):
            continue
        ctl, tgt = gate.control, gate.target
        # a junction column c needs lo < c < hi: free z sites of its wire
        # on both sides, and left of every earlier junction on that wire
        # (the control's also left of the target wire's)
        lo, hi = _free_z_span(wires[ctl], claimed, code, cols)
        hi = min(hi, frontier[ctl], frontier[tgt])
        tgt_lo, tgt_hi = _free_z_span(wires[tgt], claimed, code, cols)
        window = (tgt_lo, min(tgt_hi, frontier[tgt]))
        placed = None
        for s in sorted(wires[ctl], key=lambda i: -(i % cols)):
            r, c = divmod(s, cols)
            if (
                s in claimed
                or (r + c) % 2  # Bot kind
                or code[s] != _Z
                or not lo < c < hi
            ):
                continue
            _, _, below = table[s]  # the stem, pointing down
            if below < 0 or forbidden[below]:
                continue
            hit = _link_path(
                lattice,
                code,
                below,
                forbidden,
                wires[tgt],
                claimed,
                window,
            )
            if hit is not None:
                placed = (s, hit[0], hit[1])
                break
        if placed is None:
            return RoutingFailure(
                "no-junction-column",
                f"no junction pair for CNOT {ctl}->{tgt}",
            )
        top, link, bot = placed
        junctions.append(placed)
        claimed.update((top, bot))
        for i in link:
            forbidden[i] = True
        frontier[ctl] = min(frontier[ctl], top % cols)
        frontier[tgt] = min(frontier[tgt], bot % cols)

    backbone = _assemble(lattice, code, wires, junctions, spacing)
    if isinstance(backbone, RoutingFailure):
        return backbone
    problems = audit_backbone(
        lattice, assignment, backbone, circuit, clusters, disabled
    )
    if problems:
        return RoutingFailure("audit", "; ".join(problems[:4]))
    return backbone


def chain_adjacency(paths, links) -> dict[int, set[int]]:
    """Neighbour sets along wire paths and (control, link, target) junction
    chains, the junction stem bonds included, on site indices."""
    adj: dict[int, set[int]] = {}
    for chain in [*paths, *([top, *link, bot] for top, link, bot in links)]:
        for a, b in zip(chain, chain[1:]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def _assemble(
    lattice: HexLattice,
    code: list[int],
    wires: list[tuple[int, ...]],
    junctions: list[tuple[int, tuple[int, ...], int]],
    spacing: int,
) -> Backbone | RoutingFailure:
    """Attach roles (wire, junction, associate, extension) or report why not.

    Takes the routed site indices: wire paths and (control, link, target)
    junction chains. A neighbour with the same axis code is a matched
    neighbour. A hanging branch needs no size check: its stem bond is
    matched, so it lies in its root's cluster, and ``route_backbone`` keeps
    every cluster larger than ``RENORM_SITE_CAP`` off the backbone. A
    stem's far end needs no check either: it is never interior (phase one
    returns ``backbone-adjacency`` first, phase two ``cluster-loop``), and
    every matched neighbour of an interior site is interior, so it shares
    no cluster with one.
    """
    table = lattice.neighbor_table()
    cols = lattice.cols
    roles: dict[int, Role] = {}
    junction_sites = {i for top, _, bot in junctions for i in (top, bot)}
    for w, path in enumerate(wires):
        for i in path:
            roles[i] = (
                Degree3Junction(w) if i in junction_sites else Degree2Wire(w)
            )
    for top, link, _ in junctions:
        ctl_wire = roles[top].wire
        for i in link:
            roles[i] = Degree2Wire(ctl_wire)

    adj = chain_adjacency(wires, junctions)

    # phase one: resolve every matched stem into a hanging branch
    extensions: set[int] = set()
    stems: list[tuple[int, int]] = []
    for s in sorted(adj):
        if s in junction_sites:
            continue
        for n in table[s]:  # every leg off the routed paths
            if n < 0 or n in adj[s]:
                continue  # a dangling leg: the boundary feeds this widget
            if n in adj:
                return RoutingFailure(
                    "backbone-adjacency",
                    f"{divmod(s, cols)} and {divmod(n, cols)} touch outside "
                    "the routed paths",
                )
            if code[n] != code[s]:
                stems.append((s, n))
                continue
            branch = _hanging_branch(lattice, code, n, s, adj)
            if branch is None:
                return RoutingFailure(
                    "cluster-loop",
                    f"cluster branch at {divmod(s, cols)} reattaches to the "
                    "backbone",
                )
            extensions.update(branch)
            role = ClusterExtension(root=s)
            for e in branch:
                roles.setdefault(e, role)

    # phase two: standard associates, for backbone and extension sites alike
    interior = adj.keys() | extensions
    for s in sorted(extensions):
        for n in table[s]:
            if n < 0 or code[n] == code[s]:
                continue
            if n in interior:
                return RoutingFailure(
                    "cluster-loop",
                    f"extension {divmod(s, cols)} touches interior site "
                    f"{divmod(n, cols)}",
                )
            stems.append((s, n))
    for s, n in stems:
        roles.setdefault(n, Associate(partner=s))
    return Backbone(roles, tuple(wires), tuple(junctions), spacing)


def _hanging_branch(
    lattice: HexLattice,
    code: list[int],
    first: int,
    root: int,
    backbone,
) -> set[int] | None:
    """Matched component (site indices) behind ``first``, or None if it
    touches the ``backbone`` sites anywhere besides the root stem (that
    would close a loop)."""
    table = lattice.neighbor_table()
    axis = code[first]
    seen = {first}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        for nb in table[cur]:
            if nb < 0 or code[nb] != axis:
                continue
            if nb in backbone:
                if cur != first or nb != root:
                    return None
                continue
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


# -- audit --------------------------------------------------------------------


def audit_backbone(
    lattice: HexLattice,
    assignment: AxisAssignment,
    backbone: Backbone,
    circuit,
    clusters: Clusters,
    disabled: frozenset[int],
) -> list[str]:
    """Independent invariant check; returns human-readable problems.

    Validates path shape and band discipline, junction typing and ordering,
    role consistency, reference bits for every interior and branch site,
    whole hanging branches, cluster containment, and that the interior
    region closes no loop the circuit does not call for. It reads only the
    Backbone's fields and their ``chain_adjacency``, the axis codes,
    ``clusters.labels`` and ``disabled``, on site indices and
    ``lattice.neighbor_table()``; sites print as (r, c).
    """
    from .logic import CNOT

    problems: list[str] = []
    paths, links, roles = backbone.wires, backbone.junctions, backbone.roles
    if len(paths) != circuit.wires:
        problems.append(
            f"{len(paths)} wires routed, circuit wants {circuit.wires}"
        )
        return problems

    cols = lattice.cols
    table = lattice.neighbor_table()
    code = assignment.codes(lattice).tolist()

    def site(i: int) -> Site:
        return divmod(i, cols)

    adj = chain_adjacency(paths, links)

    seen: set[int] = set()
    for w, path in enumerate(paths):
        if not path or path[0] % cols != cols - 1 or path[-1] % cols != 0:
            problems.append(f"wire {w} does not span right to left")
            continue
        band = _band(w, backbone.spacing, lattice.rows)
        if len(set(path)) != len(path):
            problems.append(f"wire {w} revisits a site")
        for i in path:
            if i // cols not in band:
                problems.append(f"wire {w} leaves its band at {site(i)}")
                break
        for a, b in zip(path, path[1:]):
            if b not in table[a]:
                problems.append(f"wire {w} jumps {site(a)}->{site(b)}")
                break
        if seen.intersection(path):
            problems.append(f"wire {w} overlaps another wire")
        seen.update(path)

    cnots = [g for g in circuit.gates if isinstance(g, CNOT)]
    if len(links) != len(cnots):
        problems.append(f"{len(links)} junction pairs for {len(cnots)} CNOTs")
        return problems
    frontier = {w: lattice.cols for w in range(len(paths))}
    for gate, (top, link, bot) in zip(cnots, links):
        ctl, tgt = gate.control, gate.target
        control, target = site(top), site(bot)
        if top not in paths[ctl]:
            problems.append(f"junction {control} not on wire {ctl}")
        if bot not in paths[tgt]:
            problems.append(f"junction {target} not on wire {tgt}")
        if sum(control) % 2:  # Top kind: r + c even
            problems.append(f"control junction {control} is not Top-kind")
        if sum(target) % 2 == 0:
            problems.append(f"target junction {target} is not Bot-kind")
        if code[top] != _Z:
            problems.append(f"control junction {control} is not z-axis")
        if code[bot] != _X:
            problems.append(f"target junction {target} is not x-axis")
        if control[1] >= frontier[ctl] or target[1] >= frontier[tgt]:
            problems.append(
                f"junction for CNOT {ctl}->{tgt} is right of an earlier one"
            )
        frontier[ctl] = min(frontier[ctl], control[1])
        frontier[tgt] = min(frontier[tgt], target[1])
        chain = [top, *link, bot]
        for a, b in zip(chain, chain[1:]):
            if b not in table[a]:
                problems.append(f"junction link jumps {site(a)}->{site(b)}")
                break
        if link:
            if table[top][2] != link[0]:
                problems.append(f"link does not hang from {control}")
            if table[link[-1]][2] != bot:
                problems.append(f"link does not land on {target}")

    junction_sites = {i for top, _, bot in links for i in (top, bot)}
    extensions = {
        i for i, role in roles.items() if isinstance(role, ClusterExtension)
    }
    labels = clusters.labels
    gone = np.zeros(len(clusters) + 1, dtype=bool)  # [-1]: no cluster
    gone[list(disabled)] = True
    blocked = gone[labels]
    if blocked[list(adj)].any():
        problems.append("a disabled cluster site lies on the backbone")
    if blocked[list(extensions)].any():
        problems.append("a disabled cluster site is marked for renormalization")

    for i in sorted(adj):
        s, role = site(i), roles.get(i)
        if i in junction_sites:
            if not isinstance(role, Degree3Junction):
                problems.append(f"junction {s} carries role {role}")
            if len(adj[i]) != 3 and min(table[i]) >= 0:
                problems.append(f"junction {s} has a spare leg")
            continue
        if not isinstance(role, Degree2Wire):
            problems.append(f"backbone site {s} carries role {role}")
        for leg, n in zip(Leg, table[i]):
            if n < 0 or n in adj[i]:
                continue  # on the path, or termination supplies the bit
            if n in adj:
                problems.append(f"{s} touches backbone site {site(n)} off-path")
            elif code[n] == code[i]:
                if n not in extensions:
                    problems.append(f"matched stem at {s} not renormalized")
            elif not isinstance(roles.get(n), Associate):
                problems.append(f"{s} has no associate through {leg.value}")
    for i in sorted(extensions):  # whole matched branches, fed by associates
        s, role = site(i), roles[i]
        for leg, n in zip(Leg, table[i]):
            if n >= 0 and code[n] == code[i]:
                if roles.get(n) != role and n != role.root:
                    problems.append(
                        f"extension {s} matches {site(n)} outside its branch"
                    )
            elif n >= 0 and not isinstance(roles.get(n), Associate):
                problems.append(
                    f"extension {s} has no associate through {leg.value}"
                )

    # the interior-measured region may close only the circuit's own loops:
    # a graph's loop rank is edges - nodes + components
    inside = np.zeros(lattice.n_sites, dtype=bool)
    inside[list(adj.keys() | extensions)] = True
    a, b = lattice.bond_table()
    edges = inside[a] & inside[b]
    root = _component_roots(np.arange(lattice.n_sites), a[edges], b[edges])
    rooted = inside & (root == np.arange(lattice.n_sites))
    region_rank = int(edges.sum() - inside.sum() + rooted.sum())
    ends = np.array([(g.control, g.target) for g in cnots], dtype=np.intp)
    root = _component_roots(np.arange(circuit.wires), *ends.reshape(-1, 2).T)
    rooted = root == np.arange(circuit.wires)
    circuit_rank = int(len(cnots) - circuit.wires + rooted.sum())
    if region_rank != circuit_rank:
        problems.append(
            f"interior region closes {region_rank} loops, "
            f"circuit calls for {circuit_rank}"
        )
    touched: dict[int, set[int]] = {}
    for w, path in enumerate(paths):
        for cid in labels[list(path)].tolist():
            if cid >= 0:
                touched.setdefault(cid, set()).add(w)
    for cid, ws in sorted(touched.items()):
        if len(ws) > 1:
            problems.append(f"cluster {cid} touches wires {sorted(ws)}")
    return problems


# -- percolation --------------------------------------------------------------


def _span_thresholds(
    rows: int, cols: int, trials: int, rng_seed, p_min: float, p_max: float
) -> np.ndarray:
    """Per-trial spanning thresholds of the brick-wall patch, exact on the
    window ``[p_min, p_max)``.

    Each trial draws one uniform ``u`` per bond from its own spawned seed;
    the bond is occupied at ``p`` when ``u < p``. The threshold is the
    ``u`` of the bond whose addition, in increasing ``u``, first connects
    the left and right columns (Newman & Ziff, PRL 85, 4104, 2000): the
    trial spans at ``p`` exactly when its threshold is below ``p``.

    The bonds below ``p_min`` go in without sorting. One
    ``np.maximum.accumulate`` points every site at the first site of its
    row run of occupied horizontal bonds (as in Hoshen & Kopelman, PRB 14,
    3438, 1976), the left-edge column hangs off site 0 and the right-edge
    column off its smallest root; union-find then joins the occupied
    vertical bonds in any order. A trial that spans by then gets -inf.
    Only the bonds in the window are added in increasing ``u``, which gives
    the exact threshold, or +inf when the trial does not span below
    ``p_max``. A one-column patch spans before any bond is added (-inf).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    lat = build_lattice(rows, cols)
    if cols == 1:
        return np.full(trials, -np.inf)
    bond_a, bond_b = lat.bond_table()
    horizontal = bond_b == bond_a + 1
    flat, steep = np.flatnonzero(horizontal), np.flatnonzero(~horizontal)
    # an occupied horizontal bond continues its left end's run to bond_b
    continues = bond_b[flat]
    index = np.arange(lat.n_sites)
    left_edge = index[::cols]
    right_edge = left_edge + (cols - 1)
    out = np.full(trials, np.inf)
    for t, child in enumerate(np.random.SeedSequence(rng_seed).spawn(trials)):
        u = np.random.default_rng(child).random(len(bond_a))
        occupied = u < p_min
        # a site starts a run unless an occupied bond joins it to its left
        # neighbour; the running maximum carries each run's first site on
        first = index.copy()
        first[continues[occupied[flat]]] = 0
        parent = np.maximum.accumulate(first)
        parent[left_edge] = 0
        # The smaller root wins every union, so site 0 stays the left
        # edge's root; ``right`` follows the right edge's root, and the
        # edges meet when it reaches 0.
        ends = parent[parent[right_edge]]
        right = int(ends.min())
        if right == 0:
            out[t] = -np.inf
            continue
        parent[ends] = right
        parent = parent.tolist()
        window = np.flatnonzero(~occupied & (u < p_max))
        # the occupied vertical bonds first, then the window in increasing u
        bonds = np.concatenate(
            [steep[occupied[steep]], window[np.argsort(u[window])]]
        )
        for i, (a, b) in enumerate(
            zip(bond_a[bonds].tolist(), bond_b[bonds].tolist())
        ):
            while parent[a] != a:  # path halving
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            if b == right:
                right = a
                if right == 0:
                    level = u[bonds[i]]
                    out[t] = level if level >= p_min else -np.inf
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
    sequence of ints. The window of ``_span_thresholds`` is empty here
    (``p_min = p_max = p``), so every occupied bond is joined unsorted.
    """
    _check_occupation(p)
    return _span_fraction(
        _span_thresholds(rows, cols, trials, rng_seed, p, p), p
    )


def spanning_sweep(
    sizes: list[tuple[int, int]],
    ps: list[float],
    trials: int,
    rng_seed: int,
) -> list[dict]:
    """Fractions over a (size, p) grid; rows ready for CSV emission.

    Every p of one size is read off the same trials, seeded
    ``[rng_seed, size index]``, so the fractions never decrease in p. The
    trials join the bonds below ``min(ps)`` unsorted and sort only those
    in ``[min(ps), max(ps))``, which is where each threshold is read.
    """
    for p in ps:
        _check_occupation(p)
    out = []
    for si, (rows, cols) in enumerate(sizes):
        thresholds = _span_thresholds(
            rows, cols, trials, [rng_seed, si], min(ps, default=0.0),
            max(ps, default=0.0),
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

"""Cluster analysis on site indices against the dict-based reference.

The reference below is the set-of-``Bond`` implementation the index path
replaced: it walks the bond rule directly, unions ``Site`` tuples and
counts joining bonds in a dict. The fast path must agree with it on every
cluster id, axis and site set and on every off-limits pair.
"""

import itertools

import numpy as np
import pytest

from akltmqc.contraction import BoundaryTermination
from akltmqc.lattice import Bond, build_lattice
from akltmqc.router import (
    analyse_patterns,
    disabled_ids,
    find_clusters,
    flag_off_limits,
)
from akltmqc.sampler import (
    AxisAssignment,
    matched_bonds,
    matched_mask,
    stage1_sample,
)
from akltmqc.tensors import AXES


def _ref_bonds(lattice):
    out = []
    for r in range(lattice.rows):
        for c in range(lattice.cols):
            if c + 1 < lattice.cols:
                out.append(Bond((r, c), (r, c + 1)))
            if r + 1 < lattice.rows and (r + c) % 2 == 0:
                out.append(Bond((r, c), (r + 1, c)))
    return out


def _ref_matched_bonds(lattice, assignment):
    return frozenset(
        b for b in _ref_bonds(lattice) if assignment[b.a] == assignment[b.b]
    )


def _ref_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _ref_find_clusters(matched, assignment):
    """(id, axis, sites) per cluster, ids in row-major first-site order."""
    parent = {}
    for b in matched:
        parent.setdefault(b.a, b.a)
        parent.setdefault(b.b, b.b)
        ra, rb = _ref_find(parent, b.a), _ref_find(parent, b.b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    groups = {}
    for b in matched:
        groups.setdefault(_ref_find(parent, b.a), []).append(b)
    clusters = []
    for cid, root in enumerate(sorted(groups)):
        sites = {s for bond in groups[root] for s in (bond.a, bond.b)}
        axes = {assignment[s] for s in sites}
        if len(axes) != 1:
            raise ValueError(f"cluster at {root} mixes axes {sorted(axes)}")
        clusters.append((cid, axes.pop(), frozenset(sites)))
    return clusters


def _ref_flag_off_limits(lattice, clusters, matched):
    """(first, second, bonds, disabled) per flagged pair, greedy order."""
    owner = {s: cid for cid, _, sites in clusters for s in sites}
    axis = {cid: ax for cid, ax, _ in clusters}
    size = {cid: len(sites) for cid, _, sites in clusters}
    joining = {}
    for b in _ref_bonds(lattice):
        if b in matched:
            continue
        ca, cb = owner.get(b.a), owner.get(b.b)
        if ca is None or cb is None or ca == cb or axis[ca] == axis[cb]:
            continue
        joining.setdefault((min(ca, cb), max(ca, cb)), set()).add(b)
    out = []
    down = set()
    for pair in sorted(joining):
        bonds = joining[pair]
        if len(bonds) < 2:
            continue
        if pair[0] in down:
            gone = pair[0]
        elif pair[1] in down:
            gone = pair[1]
        else:
            gone = min(pair, key=lambda i: (size[i], i))
            down.add(gone)
        out.append((pair[0], pair[1], frozenset(bonds), gone))
    return out


def _bonds(lattice, joins):
    return frozenset(Bond(a, b) for a, b in lattice.bond_sites(list(joins)))


def _assignment(lattice, codes):
    return AxisAssignment.from_axes(
        lattice, {s: AXES[int(k)] for s, k in zip(lattice.sites(), codes)}
    )


def _check_against_reference(lattice, assignment):
    ref_matched = _ref_matched_bonds(lattice, assignment)
    ref_clusters = _ref_find_clusters(ref_matched, assignment)
    ref_pairs = _ref_flag_off_limits(lattice, ref_clusters, ref_matched)

    assert matched_bonds(lattice, assignment) == ref_matched
    clusters = find_clusters(lattice, assignment)
    mask = matched_mask(lattice, assignment)
    assert clusters.matched.tolist() == mask.tolist()
    axes = [AXES[k] for k in clusters.axes.tolist()]
    assert list(enumerate(axes)) == [(cid, ax) for cid, ax, _ in ref_clusters]
    labels = np.full(lattice.n_sites, -1)
    for cid, _, sites in ref_clusters:
        labels[[lattice.site_index(s) for s in sites]] = cid
    assert clusters.labels.tolist() == labels.tolist()
    assert clusters.sizes.tolist() == [len(s) for _, _, s in ref_clusters]
    pairs = flag_off_limits(lattice, clusters)
    got = [
        (p.first, p.second, _bonds(lattice, p.joins), p.disabled)
        for p in pairs
    ]
    assert got == ref_pairs
    return clusters, pairs


def test_every_2x3_pattern_matches_reference():
    lat = build_lattice(2, 3)
    for codes in itertools.product(range(3), repeat=lat.n_sites):
        _check_against_reference(lat, _assignment(lat, codes))


@pytest.mark.parametrize("rows,cols", [(8, 16), (20, 40)])
def test_iid_patterns_match_reference(rows, cols):
    lat = build_lattice(rows, cols)
    rng = np.random.default_rng([rows, cols])
    flagged = 0
    for _ in range(200):
        _, pairs = _check_against_reference(
            lat, _assignment(lat, rng.integers(0, 3, lat.n_sites))
        )
        flagged += len(pairs)
    assert flagged > 0  # the off-limits rule was exercised


def test_chain_of_clusters_reuses_disabled_member():
    # A (z, 5 sites) - B (x, 4 sites) - C (y, 2 sites); A-B and B-C are
    # each joined by two unmatched bonds, A and C do not touch, and (2, 0)
    # is a lone y site. B loses to A on size; C is smaller than B, yet the
    # B-C pair reuses B instead of disabling C too.
    rows = ("zzzz", "zxxy", "yxxy")
    lat = build_lattice(3, 4)
    asg = AxisAssignment.from_axes(
        lat,
        {(r, c): a for r, line in enumerate(rows) for c, a in enumerate(line)},
    )
    clusters, pairs = _check_against_reference(lat, asg)
    members = [
        (cid, AXES[axis], [divmod(i, lat.cols) for i in np.flatnonzero(
            clusters.labels == cid
        )])
        for cid, axis in enumerate(clusters.axes.tolist())
    ]
    assert members == [
        (0, "z", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]),
        (1, "x", [(1, 1), (1, 2), (2, 1), (2, 2)]),
        (2, "y", [(1, 3), (2, 3)]),
    ]
    assert clusters.labels[lat.site_index((2, 0))] == -1
    assert [(p.first, p.second, p.disabled) for p in pairs] == [
        (0, 1, 1),
        (1, 2, 1),
    ]
    assert [sorted(lat.bond_sites(list(p.joins))) for p in pairs] == [
        [((0, 2), (1, 2)), ((1, 0), (1, 1))],
        [((1, 2), (1, 3)), ((2, 2), (2, 3))],
    ]


def _check_block(lattice, codes):
    """``analyse_patterns`` on a stack of patterns against each pattern
    alone: ``find_clusters`` and ``flag_off_limits``, which must in turn
    agree with the reference."""
    block = analyse_patterns(lattice, np.asarray(codes, dtype=np.int8))
    assert len(block) == len(codes)
    for row, (clusters, disabled) in zip(codes, block):
        alone, pairs = _check_against_reference(
            lattice, _assignment(lattice, row)
        )
        assert clusters.matched.tolist() == alone.matched.tolist()
        assert clusters.labels.tolist() == alone.labels.tolist()
        assert clusters.axes.tolist() == alone.axes.tolist()
        assert clusters.sizes.tolist() == alone.sizes.tolist()
        assert not clusters.labels.flags.writeable
        assert disabled == disabled_ids(pairs)
    return block


@pytest.mark.parametrize("rows,cols", [(2, 3), (4, 8), (8, 16), (20, 40)])
@pytest.mark.parametrize("k", [1, 2, 7, 32])
def test_block_analysis_matches_each_pattern_alone(rows, cols, k):
    lat = build_lattice(rows, cols)
    codes = np.random.default_rng([rows, cols, k]).integers(
        0, 3, (k, lat.n_sites)
    )
    if k > 1:
        # the brick wall is bipartite: a two-colouring leaves no cluster;
        # one axis everywhere makes one cluster, with no pair to flag
        r, c = np.divmod(np.arange(lat.n_sites), cols)
        codes[0] = (r + c) % 2
        codes[-1] = 2
    block = _check_block(lat, codes)
    if k > 1:
        assert len(block[0][0]) == 0
        assert len(block[-1][0]) == 1 and block[-1][1] == frozenset()
    if rows >= 8 and k >= 7:  # the greedy pass ran across rows
        assert sum(len(disabled) > 0 for _, disabled in block) > 1


def test_block_analysis_of_exact_patterns():
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    _check_block(
        lat,
        [stage1_sample(lat, term, "exact", seed).code_array
         for seed in range(12)],
    )

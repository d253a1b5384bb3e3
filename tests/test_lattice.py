import pytest

from akltmqc.lattice import Leg, SiteKind, build_lattice, ket_role


def test_kind_checkerboard():
    lat = build_lattice(3, 4)
    for r, c in lat.sites():
        want = SiteKind.TOP if (r + c) % 2 == 0 else SiteKind.BOT
        assert lat.kind((r, c)) is want


def test_vertical_stem_direction():
    lat = build_lattice(3, 3)
    assert lat.neighbor((0, 0), Leg.VERT) == (1, 0)  # Top hangs down
    assert lat.neighbor((1, 0), Leg.VERT) == (0, 0)  # Bot reaches up
    assert lat.neighbor((2, 0), Leg.VERT) is None


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 3), (3, 4)])
def test_neighbor_reciprocity(rows, cols):
    lat = build_lattice(rows, cols)
    for site in lat.sites():
        for leg in Leg:
            n = lat.neighbor(site, leg)
            if n is None:
                continue
            back = lat.leg_between(n, site)
            assert lat.neighbor(n, back) == site


def test_bonds_pair_bra_with_ket():
    lat = build_lattice(3, 4)
    for bond in lat.bonds():
        la = lat.leg_between(bond.a, bond.b)
        lb = lat.leg_between(bond.b, bond.a)
        roles = {ket_role(lat.kind(bond.a), la), ket_role(lat.kind(bond.b), lb)}
        assert roles == {True, False}


@pytest.mark.parametrize("rows,cols", [(1, 3), (2, 2), (2, 5), (4, 4)])
def test_leg_count_partition(rows, cols):
    # every site has 3 legs; each bond consumes 2, the rest dangle
    lat = build_lattice(rows, cols)
    dangling = sum(
        lat.neighbor(site, leg) is None for site in lat.sites() for leg in Leg
    )
    assert 2 * len(lat.bonds()) + dangling == 3 * lat.n_sites
    degrees = [sum(n >= 0 for n in legs) for legs in lat.neighbor_table()]
    assert sum(degrees) == 2 * len(lat.bonds())
    assert all(0 <= d <= 3 for d in degrees)


def test_site_index_bijection():
    lat = build_lattice(2, 4)
    seen = {lat.site_index(s) for s in lat.sites()}
    assert seen == set(range(lat.n_sites))


def test_contains():
    lat = build_lattice(2, 3)
    assert lat.contains((1, 2))
    assert not lat.contains((2, 0))
    assert not lat.contains((0, -1))


@pytest.mark.parametrize(
    "rows,cols", [(1, 1), (1, 7), (7, 1), (2, 3), (5, 6), (20, 40)]
)
def test_neighbor_table_matches_neighbor(rows, cols):
    lat = build_lattice(rows, cols)
    table = lat.neighbor_table()
    assert len(table) == lat.n_sites
    for site in lat.sites():
        row = table[lat.site_index(site)]
        assert len(row) == len(Leg)
        for leg, entry in zip(Leg, row):
            n = lat.neighbor(site, leg)
            assert entry == (-1 if n is None else lat.site_index(n))


def test_neighbor_table_is_read_only_and_built_once():
    lat = build_lattice(3, 4)
    assert lat._neighbor_table is None  # nothing is built up front
    table = lat.neighbor_table()
    assert lat.neighbor_table() is table
    with pytest.raises(TypeError):
        table[0] = (-1, -1, -1)
    with pytest.raises(TypeError):
        table[0][0] = 5
    assert build_lattice(3, 4).neighbor_table() is not table  # per lattice

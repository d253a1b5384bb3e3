import pytest

from akltmqc.contraction import BoundaryTermination
from akltmqc.lattice import build_lattice
from akltmqc.sampler import (
    AxisAssignment,
    SampleMode,
    matched_bonds,
    stage1_sample,
)
from akltmqc.tensors import AXES


@pytest.mark.parametrize("mode", ["iid", "exact"])
def test_deterministic_per_seed(mode):
    lat = build_lattice(2, 3)
    a = stage1_sample(lat, None, mode, 123)
    b = stage1_sample(lat, None, mode, 123)
    assert all(a[s] == b[s] for s in lat.sites())


def test_modes_differ_between_seeds():
    lat = build_lattice(4, 6)
    a = stage1_sample(lat, None, "iid", 1)
    b = stage1_sample(lat, None, "iid", 2)
    assert any(a[s] != b[s] for s in lat.sites())


def test_axes_are_valid():
    lat = build_lattice(3, 4)
    asg = stage1_sample(lat, None, SampleMode.EXACT, 9)
    for s in lat.sites():
        assert asg[s] in AXES


def test_exact_pinned_small_patch():
    lat = build_lattice(2, 3)
    asg = stage1_sample(lat, BoundaryTermination(axis="z"), "exact", 5)
    for s in lat.sites():
        assert asg[s] in AXES


def test_string_and_enum_modes_agree():
    lat = build_lattice(2, 4)
    a = stage1_sample(lat, None, "exact", 77)
    b = stage1_sample(lat, None, SampleMode.EXACT, 77)
    assert all(a[s] == b[s] for s in lat.sites())


def test_matched_bonds_hand_pattern():
    lat = build_lattice(2, 2)
    asg = AxisAssignment.from_axes(
        lat, {(0, 0): "z", (0, 1): "z", (1, 0): "x", (1, 1): "x"}
    )
    got = {frozenset((b.a, b.b)) for b in matched_bonds(lat, asg)}
    assert got == {
        frozenset({(0, 0), (0, 1)}),
        frozenset({(1, 0), (1, 1)}),
    }


def test_matched_bonds_reject_partial_assignment():
    lat = build_lattice(2, 2)
    with pytest.raises(ValueError, match="missing sites"):
        matched_bonds(lat, AxisAssignment.from_axes(lat, {(0, 0): "z"}))


def test_assignment_json_roundtrip():
    lat = build_lattice(2, 3)
    asg = stage1_sample(lat, None, "iid", 4)
    data = asg.to_json(lat)
    assert isinstance(data, dict)


def test_iid_assignment_keeps_its_draws_as_codes():
    # the iid draws are the code array; axes read off it agree with a
    # dict-built assignment of the same axes
    lat = build_lattice(3, 5)
    asg = stage1_sample(lat, None, "iid", 8)
    codes = asg.codes(lat)
    assert not codes.flags.writeable
    plain = AxisAssignment.from_axes(lat, {s: asg[s] for s in lat.sites()})
    assert plain.codes(lat).tolist() == codes.tolist()
    assert plain.to_json(lat) == asg.to_json(lat)
    for outside in ((3, 0), (0, 5), (-1, 0)):
        with pytest.raises(KeyError):
            asg[outside]
    with pytest.raises(ValueError, match="3x5 patch on a 4x5 lattice"):
        asg.codes(build_lattice(4, 5))

import math
import tracemalloc

import numpy as np
import pytest

from akltmqc.contraction import (
    BoundaryTermination,
    LatticeSizeError,
    build_state,
    chain_rule_sample,
    pattern_probability,
    reduced_density,
)
from akltmqc.lattice import build_lattice
from akltmqc.logic import CNOT, CircuitSpec, Init, Readout, Rx, Rz
from akltmqc.oracle import (
    affine_constants,
    coupling_polynomial,
    hamiltonian_pair_check,
    pair_coupling,
    reference_circuit_sim,
    spin3_projector,
    spin_operators,
    two_point_correlation,
)
from akltmqc.tensors import AXES, residual_up_to_scale

from reference import brute_force_joint, tv_distance, vbs_state


def test_spin_commutators():
    sx, sy, sz = spin_operators()
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-13)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-13)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-13)


def test_spin_casimir():
    sx, sy, sz = spin_operators()
    s2 = sx @ sx + sy @ sy + sz @ sz
    np.testing.assert_allclose(s2, (15.0 / 4.0) * np.eye(4), atol=1e-13)


def test_spin3_projector_is_projector():
    p3 = spin3_projector()
    np.testing.assert_allclose(p3 @ p3, p3, atol=1e-12)
    np.testing.assert_allclose(p3, p3.conj().T, atol=1e-13)
    # the maximal-spin multiplet of two spin-3/2 has dimension 7
    assert round(float(np.real(np.trace(p3)))) == 7


def test_coupling_polynomial_eigenvalues():
    # on each total-spin sector the polynomial of S.S must collapse to the
    # affine image c*[s==3] + d of the projector eigenvalue
    c, d, _ = affine_constants()
    for s_tot in range(4):
        x = (s_tot * (s_tot + 1) - 15.0 / 2.0) / 2.0
        want = c * (1.0 if s_tot == 3 else 0.0) + d
        assert abs(coupling_polynomial(x) - want) < 1e-12


def test_affine_constants_values():
    c, d, residual = affine_constants()
    assert abs(c - 160.0 / 27.0) < 1e-10
    assert abs(d + 55.0 / 108.0) < 1e-10
    assert residual < 1e-10


def test_pair_coupling_matches_projector():
    c, d, _ = affine_constants()
    sx, sy, sz = spin_operators()
    eye = np.eye(4)
    ss = sum(
        np.kron(op, eye) @ np.kron(eye, op) for op in (sx, sy, sz)
    )
    np.testing.assert_allclose(pair_coupling(), ss, atol=1e-12)
    h = ss + (116.0 / 243.0) * (ss @ ss) + (16.0 / 243.0) * (ss @ ss @ ss)
    np.testing.assert_allclose(h, c * spin3_projector() + d * np.eye(16), atol=1e-10)


@pytest.mark.parametrize("axis", ["z", "x"])
def test_ground_state_frustration_free(axis):
    lat = build_lattice(2, 3)
    res = hamiltonian_pair_check(lat, BoundaryTermination(axis=axis))
    assert res < 1e-10


@pytest.mark.parametrize("rows,cols", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("axis", AXES)
def test_vbs_state_matches_contraction(rows, cols, axis):
    lattice = build_lattice(rows, cols)
    term = BoundaryTermination(axis=axis)
    found = vbs_state(lattice, term)
    target = build_state(lattice, term).reshape(-1)
    assert residual_up_to_scale(found, target) < 1e-12


def test_vbs_state_cap_raises_before_allocating():
    # 8 sites are 24 virtual qubits: 2^24 amplitudes past the cap
    tracemalloc.start()
    try:
        with pytest.raises(LatticeSizeError, match="8 sites exceeds VBS"):
            vbs_state(build_lattice(2, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reference_identity():
    circ = CircuitSpec(1, (Init(0), Readout(0)))
    dist = reference_circuit_sim(circ)
    assert dist[(0,)] == pytest.approx(1.0)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_reference_x_flip():
    circ = CircuitSpec(1, (Init(0), Rx(0, math.pi), Readout(0)))
    dist = reference_circuit_sim(circ)
    assert dist[(1,)] == pytest.approx(1.0, abs=1e-12)


def test_reference_rotation_marginal():
    circ = CircuitSpec(
        1, (Init(0), Rz(0, math.pi / 4), Rx(0, math.pi / 3), Readout(0))
    )
    dist = reference_circuit_sim(circ)
    assert dist[(0,)] == pytest.approx(0.75, abs=1e-12)
    assert dist[(1,)] == pytest.approx(0.25, abs=1e-12)


def test_reference_cnot():
    circ = CircuitSpec(
        2, (Init(0), Init(1), CNOT(0, 1), Readout(0), Readout(1))
    )
    assert reference_circuit_sim(circ)[(0, 0)] == pytest.approx(1.0)


def test_tv_distance():
    assert tv_distance({(0,): 1.0}, {(0,): 1.0}) == 0.0
    assert tv_distance({(0,): 1.0}, {(1,): 1.0}) == pytest.approx(1.0)
    assert tv_distance(
        {(0,): 0.5, (1,): 0.5}, {(0,): 0.75, (1,): 0.25}
    ) == pytest.approx(0.25)


def test_correlation_symmetric_and_isotropic():
    lat = build_lattice(2, 4)
    a = two_point_correlation(lat, None, (0, 1), (0, 2), "z")
    b = two_point_correlation(lat, None, (0, 2), (0, 1), "z")
    assert a == pytest.approx(b, abs=1e-12)
    # the traced state is rotation invariant, so all axes agree
    vals = [
        two_point_correlation(lat, None, (0, 1), (0, 2), ax) for ax in AXES
    ]
    assert max(vals) - min(vals) < 1e-10


@pytest.mark.parametrize(
    "rows,cols,axis",
    [(2, 2, None), (2, 3, None), (1, 3, "x"), (2, 2, "y"), (2, 3, "z")],
)
def test_brute_force_joint_matches_sampler_and_patterns(rows, cols, axis):
    lat = build_lattice(rows, cols)
    term = None if axis is None else BoundaryTermination(axis=axis)
    sites = list(lat.sites())
    joint = brute_force_joint(lat, term)
    assert len(joint) == 3 ** len(sites)
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    for seed in range(5):
        steps = chain_rule_sample(lat, term, seed)
        key = tuple(step.outcome for step in steps)
        prod = math.prod(step.probability for step in steps)
        assert prod == pytest.approx(joint[key], abs=1e-12)
    for key, p in joint.items():
        axes = dict(zip(sites, key))
        assert pattern_probability(lat, term, axes) == pytest.approx(
            p, abs=1e-12
        )


def test_brute_force_joint_checks_branch_cap():
    # 3^15 axis tuples exceed BRANCH_CAP; nothing is enumerated
    with pytest.raises(ValueError):
        brute_force_joint(build_lattice(3, 5), None)


FOUR_WIRES = CircuitSpec(
    4, tuple(Init(w) for w in range(4)) + tuple(Readout(w) for w in range(4))
)


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda lat: reduced_density(lat, None, (2, 0)),
            r"site \(2, 0\) not on lattice",
        ),
        (
            lambda lat: two_point_correlation(lat, None, (0, 0), (0, 1), "w"),
            "unknown axis 'w'",
        ),
        (
            lambda lat: reference_circuit_sim(FOUR_WIRES),
            "supports at most 3 wires",
        ),
    ],
    ids=["off-lattice-site", "unknown-axis", "four-wires"],
)
def test_entry_checks_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(build_lattice(2, 3))

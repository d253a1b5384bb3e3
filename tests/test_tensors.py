import math

import numpy as np
import pytest

from akltmqc.lattice import SiteKind
from akltmqc.tensors import (
    AXES,
    comp_covector,
    lift_qubit,
    measured_tensor,
    pauli_xz,
    povm_element,
    residual_up_to_scale,
    rotation,
    site_tensor,
    standard_covector,
    virtual_bra,
    virtual_ket,
)

from reference import site_family, site_family_rotated


def test_povm_completeness():
    total = sum(
        povm_element(a).conj().T @ povm_element(a) for a in AXES
    )
    np.testing.assert_allclose(total, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("axis", AXES)
def test_povm_element_rank_two(axis):
    m = povm_element(axis)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
    evals = np.sort(np.linalg.eigvalsh(m.conj().T @ m))
    np.testing.assert_allclose(evals, [0, 0, 2 / 3, 2 / 3], atol=1e-13)


@pytest.mark.parametrize("axis", AXES)
def test_virtual_pair_orthonormal(axis):
    for c in (0, 1):
        for d in (0, 1):
            ip = np.dot(
                virtual_bra(axis, c).vector, virtual_ket(axis, d).vector
            )
            assert abs(ip - (1.0 if c == d else 0.0)) < 1e-13


@pytest.mark.parametrize("axis", AXES)
def test_rotation_unitary(axis):
    u = rotation(axis, 0.77)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(rotation(axis, 0.0), np.eye(2), atol=1e-13)


def test_pauli_xz_group():
    assert residual_up_to_scale(
        pauli_xz(1, 0) @ pauli_xz(0, 1), pauli_xz(1, 1)
    ) < 1e-13
    np.testing.assert_allclose(pauli_xz(0, 0), np.eye(2))


def test_residual_up_to_scale_invariance():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert residual_up_to_scale(a, a) < 1e-14
    assert residual_up_to_scale((0.3 - 1.1j) * a, a) < 1e-14
    assert residual_up_to_scale(a, a + np.eye(2)) > 1e-3


def test_lift_qubit_homomorphism():
    rng = np.random.default_rng(5)
    u = rotation("z", 0.4) @ rotation("x", 1.3)
    v = rotation("y", -0.9)
    np.testing.assert_allclose(
        lift_qubit(u @ v), lift_qubit(u) @ lift_qubit(v), atol=1e-12
    )
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert lift_qubit(w).shape == (4, 4)


def test_site_tensor_shape():
    for kind in (SiteKind.TOP, SiteKind.BOT):
        assert site_tensor(kind).shape == (4, 2, 2, 2)


@pytest.mark.parametrize("kind", [SiteKind.TOP, SiteKind.BOT])
@pytest.mark.parametrize("axis", AXES)
def test_site_family_equals_physical_rotation(kind, axis):
    np.testing.assert_allclose(
        site_family(kind, axis), site_family_rotated(kind, axis), atol=1e-13
    )


def test_measured_tensor_contracts_physical_index():
    t = site_tensor(SiteKind.TOP)
    row = standard_covector("z", 0)
    got = measured_tensor(SiteKind.TOP, row)
    want = np.einsum("p,plrv->lrv", row, t)
    np.testing.assert_allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("kind", [SiteKind.TOP, SiteKind.BOT])
@pytest.mark.parametrize("b", [0, 1])
def test_widget_spot_check(kind, b):
    # one interior widget: z-basis covector, x-labelled stem input,
    # should act as byproduct times Rz(theta) on the virtual qubit
    theta = math.pi / 5
    c = 1
    t = measured_tensor(kind, comp_covector("z", "x", theta, b))
    if kind is SiteKind.TOP:
        vec = virtual_ket("x", c).vector
    else:
        vec = virtual_bra("x", c ^ 1).vector
    got = np.einsum("lrv,v->lr", t, vec)
    s = (b ^ c) & 1
    want = pauli_xz(1, s) @ rotation("z", theta)
    assert residual_up_to_scale(got, want) < 1e-12

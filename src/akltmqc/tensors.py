"""Site tensors, measurement vectors and small linear-algebra helpers.

Physical spin-3/2 indices are ordered [+3/2, +1/2, -1/2, -3/2] and always
stored in z-basis components. Virtual spin-1/2 indices are ordered [0, 1]
in the z basis. A site tensor has shape (4, 2, 2, 2) with legs
(physical, left, right, vert). The left leg carries ket components and the
right leg bra components; the vertical leg is a bra on Top sites and a ket
on Bot sites, so bond contraction is a plain index sum with no conjugation.

Axis bases for the virtual qubit:
    |0/1 x> = (|0 z> +- |1 z>)/sqrt(2)
    |0/1 y> = (|0 z> +- i |1 z>)/sqrt(2)
The physical axis bases are the spin-3/2 lift of the same rotations, which
keeps the site tensors covariant under the basis change up to a fixed
kind- and axis-dependent phase (the test suite builds the rotated family
both ways and compares them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import SiteKind

AXES = ("x", "y", "z")

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)

# 2x2 basis change u[axis] with columns |0 axis>, |1 axis>.
_U2 = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2,
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / _SQ2,
}

# Relative phase on the +3/2 component of the complementary covector
# family, by (measured axis, conditioning axis). The y-axis entries are
# fixed by the requirement that the contracted widget reproduce the
# byproduct table; see tests for the exhaustive check.
COMP_PHASE = {
    ("z", "x"): 1.0,
    ("z", "y"): -1.0j,
    ("x", "z"): 1.0,
    ("x", "y"): 1.0j,
    ("y", "z"): 1.0,
    ("y", "x"): -1.0j,
}


@dataclass(frozen=True)
class VirtualVec:
    """A virtual spin-1/2 ket or bra with its stored components.

    Bra components are already conjugated, so contracting against a tensor
    leg is always a plain dot product.
    """

    components: tuple[complex, complex]
    role: str  # "ket" or "bra"
    axis: str | None = None
    bit: int | None = None

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.components, dtype=complex)


def virtual_ket(axis: str, bit: int) -> VirtualVec:
    col = _U2[axis][:, bit]
    return VirtualVec((complex(col[0]), complex(col[1])), "ket", axis, bit)


def virtual_bra(axis: str, bit: int) -> VirtualVec:
    col = np.conj(_U2[axis][:, bit])
    return VirtualVec((complex(col[0]), complex(col[1])), "bra", axis, bit)


# -- physical basis -------------------------------------------------------


def _sym_isometry() -> np.ndarray:
    """(4, 8) isometry from spin-3/2 states to three symmetrized qubits."""
    w = np.zeros((4, 8), dtype=complex)
    w[0, 0b000] = 1.0
    for i in (0b001, 0b010, 0b100):
        w[1, i] = 1.0 / _SQ3
    for i in (0b011, 0b101, 0b110):
        w[2, i] = 1.0 / _SQ3
    w[3, 0b111] = 1.0
    return w


_W = _sym_isometry()


def lift_qubit(u: np.ndarray) -> np.ndarray:
    """Spin-3/2 representation of a single-qubit operator."""
    k = np.kron(np.kron(u, u), u)
    return _W @ k @ _W.conj().T


@lru_cache(maxsize=None)
def physical_basis(axis: str) -> np.ndarray:
    """Columns are z-components of [+3/2, +1/2, -1/2, -3/2] along ``axis``.

    The y columns carry the phase and direction convention that makes
    rotating a site tensor's virtual legs into the ``axis`` basis equal,
    up to a fixed phase, to contracting its physical index with these
    columns (the labels run against the S_y eigenvalues; only the labeling,
    not the measured subspace, depends on this choice).
    """
    if axis == "y":
        return -1j * lift_qubit(PAULI_Z @ _U2["y"])
    return lift_qubit(_U2[axis])


# -- site tensors ---------------------------------------------------------


@lru_cache(maxsize=None)
def site_tensor(kind: SiteKind) -> np.ndarray:
    """Site tensor (physical, left, right, vert) in z components."""
    t = np.zeros((4, 2, 2, 2), dtype=complex)
    r3 = 1.0 / _SQ3
    if kind is SiteKind.TOP:
        t[0, 0, 1, 1] = 1.0
        t[1, 0, 1, 0] = -r3
        t[1, 0, 0, 1] = -r3
        t[1, 1, 1, 1] = r3
        t[2, 1, 0, 1] = -r3
        t[2, 0, 0, 0] = r3
        t[2, 1, 1, 0] = -r3
        t[3, 1, 0, 0] = 1.0
    else:
        t[0, 0, 1, 0] = -1.0
        t[1, 0, 1, 1] = -r3
        t[1, 0, 0, 0] = r3
        t[1, 1, 1, 0] = -r3
        t[2, 1, 0, 0] = r3
        t[2, 0, 0, 1] = r3
        t[2, 1, 1, 1] = -r3
        t[3, 1, 0, 1] = 1.0
    return t


# -- measurements ---------------------------------------------------------


@lru_cache(maxsize=None)
def povm_element(axis: str) -> np.ndarray:
    """Polarizing operator sqrt(2/3) (|+3/2><+3/2| + |-3/2><-3/2|)."""
    basis = physical_basis(axis)
    p = np.outer(basis[:, 0], np.conj(basis[:, 0]))
    p = p + np.outer(basis[:, 3], np.conj(basis[:, 3]))
    return np.sqrt(2.0 / 3.0) * p


def standard_covector(axis: str, c: int) -> np.ndarray:
    """Row components of <+3/2 axis| (c=0) or <-3/2 axis| (c=1)."""
    basis = physical_basis(axis)
    return np.conj(basis[:, 0 if c == 0 else 3])


def comp_covector(mu: str, nu: str, theta: float, b: int) -> np.ndarray:
    """Complementary-basis covector <gamma_{mu|nu}(theta), b|.

    Lives in the +-3/2 subspace of ``mu``; ``nu`` is the axis of the
    standard-measured partner whose virtual state conditions the site.
    """
    if mu == nu:
        raise ValueError("conditioning axis must differ from measured axis")
    f = COMP_PHASE[(mu, nu)]
    s = -1.0 if b else 1.0
    top = standard_covector(mu, 0)
    bot = standard_covector(mu, 1)
    return (s * np.exp(1j * theta) * f * top + bot) / _SQ2


def measured_tensor(kind: SiteKind, row: np.ndarray) -> np.ndarray:
    """Contract a physical row vector against the site tensor.

    ``row`` already includes any polarizing factor, i.e. it is <phi| M for
    a projective outcome <phi| after the polarizing step.
    """
    return np.einsum("a,alrv->lrv", row, site_tensor(kind))


# -- comparisons ----------------------------------------------------------


def residual_up_to_scale(found: np.ndarray, target: np.ndarray) -> float:
    """Relative max deviation after fixing a global complex scale.

    The scale is read off at the largest-magnitude entry of ``target``.
    """
    target = np.asarray(target, dtype=complex)
    found = np.asarray(found, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    if abs(target[idx]) == 0.0:
        return float(np.max(np.abs(found)))
    s = found[idx] / target[idx]
    denom = np.max(np.abs(found))
    if denom == 0.0:
        return float(np.max(np.abs(target)))
    return float(np.max(np.abs(found - s * target)) / denom)


def pauli_xz(ax: int, az: int) -> np.ndarray:
    """X^ax Z^az on the virtual qubit."""
    m = np.eye(2, dtype=complex)
    if az:
        m = PAULI_Z @ m
    if ax:
        m = PAULI_X @ m
    return m


def rotation(axis: str, theta: float) -> np.ndarray:
    """diag(1, e^{i theta}) in the ``axis`` basis of the virtual qubit."""
    u = _U2[axis]
    return u @ np.diag([1.0, np.exp(1j * theta)]) @ u.conj().T

"""Ground truths the acceptance checks compare against.

The spin algebra and ``reference_circuit_sim`` are built from first
principles (ladder operators, dense circuit simulation), not from the site
tensors, so agreement with the main modules is evidence, not tautology.
``hamiltonian_pair_check`` reads ``build_state`` and
``two_point_correlation`` the layer engine, each through its public
interface.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .contraction import BoundaryTermination, TracedEngine, build_state
from .lattice import HexLattice, Site
from .tensors import AXES, rotation

if TYPE_CHECKING:
    from .logic import CircuitSpec


# -- spin-3/2 pair Hamiltonian -----------------------------------------------


@lru_cache(maxsize=None)
def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) in the physical ordering [+3/2, +1/2, -1/2, -3/2]."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    s_z = np.diag(m).astype(complex)
    s_plus = np.zeros((4, 4), dtype=complex)
    for k in range(1, 4):
        s_plus[k - 1, k] = np.sqrt(15.0 / 4.0 - m[k] * (m[k] + 1.0))
    s_minus = s_plus.conj().T
    s_x = (s_plus + s_minus) / 2.0
    s_y = (s_plus - s_minus) / 2.0j
    return s_x, s_y, s_z


@lru_cache(maxsize=None)
def pair_coupling() -> np.ndarray:
    """S.S' on two sites, 16x16."""
    ops = spin_operators()
    out = np.zeros((16, 16), dtype=complex)
    for s in ops:
        out += np.kron(s, s)
    return out


@lru_cache(maxsize=None)
def spin3_projector() -> np.ndarray:
    """Projector onto total spin 3 of a site pair, via (S1+S2)^2 = 12."""
    ops = spin_operators()
    total_sq = np.zeros((16, 16), dtype=complex)
    for s in ops:
        t = np.kron(s, np.eye(4)) + np.kron(np.eye(4), s)
        total_sq += t @ t
    vals, vecs = np.linalg.eigh(total_sq)
    sel = np.abs(vals - 12.0) < 1e-8
    v = vecs[:, sel]
    return v @ v.conj().T


def coupling_polynomial(x):
    """The pair-interaction polynomial: x + (116/243) x^2 + (16/243) x^3.

    Accepts a scalar or a square matrix (matrix powers in that case).
    """
    if np.ndim(x) == 2:
        x2 = x @ x
        return x + (116.0 / 243.0) * x2 + (16.0 / 243.0) * (x2 @ x)
    return x + (116.0 / 243.0) * x**2 + (16.0 / 243.0) * x**3


def affine_constants() -> tuple[float, float, float]:
    """(c, d, residual) with poly(S.S') = c * P3 + d * 1.

    c and d come from evaluating the polynomial at the pair-spin
    eigenvalues of S.S'; the residual is the max entry deviation of the
    16x16 identity, evaluated independently of c's derivation.
    """
    # S.S' eigenvalue at total spin J: (J(J+1) - 15/2) / 2
    eig = {j: (j * (j + 1) - 7.5) / 2.0 for j in range(4)}
    vals = {j: coupling_polynomial(eig[j]) for j in range(4)}
    d = vals[0]
    c = vals[3] - d
    mat = coupling_polynomial(pair_coupling())
    res = np.abs(mat - c * spin3_projector() - d * np.eye(16)).max()
    return c, d, float(res)


def hamiltonian_pair_check(
    lattice: HexLattice, term: BoundaryTermination | None = None
) -> float:
    """Max over bonds of |P3(pair) |G>| / |G| for the pinned state."""
    psi = build_state(lattice, term)
    norm = np.linalg.norm(psi)
    p3 = spin3_projector().reshape(4, 4, 4, 4)  # (a', b', a, b)
    worst = 0.0
    for bond in lattice.bonds():
        ia, ib = lattice.site_index(bond.a), lattice.site_index(bond.b)
        proj = np.tensordot(p3, psi, axes=([2, 3], [ia, ib]))
        worst = max(worst, float(np.linalg.norm(proj) / norm))
    return worst


# -- reference logical simulation ---------------------------------------------


def _apply_1q(state: np.ndarray, wires: int, wire: int, u: np.ndarray):
    t = state.reshape((2,) * wires)
    t = np.moveaxis(np.tensordot(u, t, axes=([1], [wire])), 0, wire)
    return t.reshape(-1)


def reference_circuit_sim(circuit: "CircuitSpec") -> dict[tuple[int, ...], float]:
    """Exact dense semantics of Init/Rz/Rx/CNOT/Readout.

    Returns the joint distribution over readout bits, keyed by wire-ordered
    tuples.
    """
    from .logic import CNOT, Init, Readout, Rx, Rz

    circuit.validate()
    w = circuit.wires
    if w > 3:
        raise ValueError("reference simulator supports at most 3 wires")
    state = np.zeros(2**w, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        if isinstance(gate, (Init, Readout)):
            continue
        if isinstance(gate, Rz):
            state = _apply_1q(state, w, gate.wire, rotation("z", gate.theta))
        elif isinstance(gate, Rx):
            state = _apply_1q(state, w, gate.wire, rotation("x", gate.theta))
        elif isinstance(gate, CNOT):
            t = state.reshape((2,) * w)
            t = np.moveaxis(t, (gate.control, gate.target), (0, 1)).copy()
            flat = t.reshape(4, -1)
            flat[[2, 3]] = flat[[3, 2]]
            t = flat.reshape((2,) * w)
            state = np.moveaxis(t, (0, 1), (gate.control, gate.target)).reshape(-1)
        else:
            raise ValueError(f"unknown gate {gate!r}")
    probs = np.abs(state.reshape((2,) * w)) ** 2
    out = {}
    for bits in np.ndindex(*probs.shape):
        out[tuple(int(b) for b in bits)] = float(probs[bits])
    return out


# -- correlations --------------------------------------------------------------


def two_point_correlation(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site_i: Site,
    site_j: Site,
    axis: str,
) -> float:
    """<S^a_i S^a_j> - <S^a_i><S^a_j> in the normalized state, from the
    eigenprojectors of S^a: each mean is a ratio within one call of the
    engine's relative_weights, so their common power of two cancels."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    m, v = np.linalg.eigh(spin_operators()[AXES.index(axis)])
    rows = list(v.conj().T)
    engine = TracedEngine(lattice, term)

    def distribution(eng, site):
        w = np.array(eng.relative_weights(site, rows))
        return w / w.sum()

    p_i = distribution(engine, site_i)
    if site_i == site_j:
        return float(p_i @ m**2 - (p_i @ m) ** 2)
    # site_j's mean on each branch of site_i; a branch of no weight adds 0
    given = [
        distribution(engine.branch(site_i, r), site_j) @ m if p > 0 else 0.0
        for r, p in zip(rows, p_i)
    ]
    mean_j = distribution(engine, site_j) @ m
    return float(p_i @ (m * given) - (p_i @ m) * mean_j)

"""Independent ground truths for the test suite.

Everything here is built from first principles (spin ladder operators,
explicit singlets and symmetrization, dense logical-circuit simulation)
rather than from the site tensors, so agreement with the main modules is
evidence, not tautology.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .contraction import (
    BoundaryTermination,
    LatticeSizeError,
    TracedEngine,
    _layer_value,
    build_state,
)
from .lattice import HexLattice, Leg, Site, ket_role
from .tensors import AXES, _sym_isometry, povm_element, rotation

if TYPE_CHECKING:
    from .logic import CircuitSpec

VBS_SITE_CAP = 7  # 3 qubits per site, dense

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex).reshape(2, 2)
_SINGLET /= np.sqrt(2.0)


# -- valence-bond construction ------------------------------------------------


def vbs_state(lattice: HexLattice, term: BoundaryTermination | None = None):
    """The state built from explicit singlets and on-site symmetrization.

    Three virtual qubits per site (left, right, vertical); every bond
    carries a singlet between the qubits of its endpoints; each site's
    triple is then symmetrized into the spin-3/2 space. Dangling bra-role
    qubits absorb the singlet matrix of their missing bond before meeting
    the termination vector; ket-role qubits meet it directly. Returns flat
    amplitudes (4^n, site-major) comparable to build_state up to one
    global complex scale.
    """
    if lattice.n_sites > VBS_SITE_CAP:
        raise LatticeSizeError(
            f"{lattice.n_sites} sites exceeds VBS oracle cap {VBS_SITE_CAP}"
        )
    term = term or BoundaryTermination()
    qubit = {
        (site, leg): 3 * lattice.site_index(site) + k
        for site in lattice.sites()
        for k, leg in enumerate((Leg.LEFT, Leg.RIGHT, Leg.VERT))
    }
    n_q = 3 * lattice.n_sites

    factors = []  # (array, qubit index list)
    for bond in lattice.bonds():
        la = lattice.leg_between(bond.a, bond.b)
        lb = lattice.leg_between(bond.b, bond.a)
        ket_end = (bond.a, la) if ket_role(lattice.kind(bond.a), la) else (bond.b, lb)
        bra_end = (bond.b, lb) if ket_end == (bond.a, la) else (bond.a, la)
        # singlet row index on the bra-role qubit, column on the ket-role one
        factors.append((_SINGLET, [qubit[bra_end], qubit[ket_end]]))
    for site, leg in lattice.dangling():
        w = term.vec_for(lattice, site, leg).vector
        if ket_role(lattice.kind(site), leg):
            factors.append((w, [qubit[(site, leg)]]))
        else:
            factors.append((_SINGLET @ w, [qubit[(site, leg)]]))

    acc = np.ones((), dtype=complex)
    order: list[int] = []
    for arr, idx in factors:
        acc = np.tensordot(acc, arr, axes=0)
        order.extend(idx)
    acc = np.transpose(acc, np.argsort(order)).reshape((2,) * n_q)

    w_sym = _sym_isometry().reshape(4, 2, 2, 2)
    for i in range(lattice.n_sites):
        # qubits of site i occupy axes n_phys .. n_phys+2 after i symmetrizations
        acc = np.tensordot(w_sym, acc, axes=([1, 2, 3], [i, i + 1, i + 2]))
        acc = np.moveaxis(acc, 0, i)
    return acc.reshape(-1)


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
    state = build_state(lattice, term)
    psi = state.tensor()
    p3 = spin3_projector().reshape(4, 4, 4, 4)  # (a', b', a, b)
    worst = 0.0
    for bond in lattice.bonds():
        ia, ib = lattice.site_index(bond.a), lattice.site_index(bond.b)
        proj = np.tensordot(p3, psi, axes=([2, 3], [ia, ib]))
        worst = max(worst, float(np.linalg.norm(proj) / state.norm))
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


# -- exhaustive enumeration ---------------------------------------------------

BRANCH_CAP = 10**6


def brute_force_joint(
    lattice: HexLattice, term: BoundaryTermination | None
) -> dict[tuple[str, ...], float]:
    """Full joint distribution of the stage-1 axes, keyed by axis tuples in
    ``lattice.sites()`` order.

    Every branch is enumerated; probabilities come from exact double-layer
    weights, so the values sum to 1 up to round-off.
    """
    sites = list(lattice.sites())
    if 3 ** len(sites) > BRANCH_CAP:
        raise ValueError(f"branch count exceeds cap {BRANCH_CAP}")
    engine = TracedEngine(lattice, term)
    total = engine.weight()
    povms = [povm_element(ax) for ax in AXES]
    out: dict[tuple[str, ...], float] = {}

    def recurse(eng, depth: int, prefix: tuple):
        if depth == len(sites):
            out[prefix] = max(eng.weight() / total, 0.0)
            return
        for ax, povm in zip(AXES, povms):
            recurse(eng.branch(sites[depth], povm), depth + 1, prefix + (ax,))

    recurse(engine, 0, ())
    return out


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance, half the L1 over the union alphabet."""
    keys = set(p) | set(q)
    kinds = {type(k) for k in keys}
    if len(kinds) > 1:
        raise ValueError(f"mismatched outcome alphabets: {kinds}")
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- correlations --------------------------------------------------------------


def two_point_correlation(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site_i: Site,
    site_j: Site,
    axis: str,
) -> float:
    """<S^a_i S^a_j> - <S^a_i><S^a_j> in the normalized state."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    s = spin_operators()[AXES.index(axis)]
    z = _layer_value(lattice, term, {})
    if site_i == site_j:
        mean = _layer_value(lattice, term, {site_i: s}) / z
        return _layer_value(lattice, term, {site_i: s @ s}) / z - mean**2
    joint = _layer_value(lattice, term, {site_i: s, site_j: s}) / z
    mi = _layer_value(lattice, term, {site_i: s}) / z
    mj = _layer_value(lattice, term, {site_j: s}) / z
    return joint - mi * mj

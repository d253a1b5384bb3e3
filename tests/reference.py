"""Reference implementations that only the tests read.

``vbs_state`` is built from first principles (explicit singlets and
on-site symmetrization), not from the site tensors, so its agreement with
``build_state`` is evidence, not tautology. ``site_family`` and
``site_family_rotated`` build the site tensor in each axis basis two ways,
by rotating the virtual legs and by rotating the physical index.
``brute_force_joint`` enumerates every stage-1 axis tuple through the
layer engine's public interface; ``tv_distance`` compares the resulting
distributions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from akltmqc import tensors
from akltmqc.contraction import (
    BoundaryTermination,
    LatticeSizeError,
    TracedEngine,
)
from akltmqc.lattice import HexLattice, Leg, SiteKind, ket_role
from akltmqc.tensors import (
    AXES,
    physical_basis,
    povm_element,
    site_tensor,
    virtual_ket,
)

VBS_SITE_CAP = 7  # 3 qubits per site, dense
BRANCH_CAP = 10**6

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex).reshape(2, 2)
_SINGLET /= np.sqrt(2.0)

# Overall phase of the site tensor family in each axis basis, per site kind.
_FAMILY_PHASE = {
    (SiteKind.TOP, "z"): 1.0,
    (SiteKind.BOT, "z"): 1.0,
    (SiteKind.TOP, "x"): 1.0,
    (SiteKind.BOT, "x"): -1.0,
    (SiteKind.TOP, "y"): -1.0j,
    (SiteKind.BOT, "y"): 1.0,
}


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
    for site in lattice.sites():
        for leg in Leg:
            if lattice.neighbor(site, leg) is not None:
                continue
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

    w_sym = tensors._sym_isometry().reshape(4, 2, 2, 2)
    for i in range(lattice.n_sites):
        # qubits of site i occupy axes n_phys .. n_phys+2 after i symmetrizations
        acc = np.tensordot(w_sym, acc, axes=([1, 2, 3], [i, i + 1, i + 2]))
        acc = np.moveaxis(acc, 0, i)
    return acc.reshape(-1)


# -- site tensor family -------------------------------------------------------


@lru_cache(maxsize=None)
def site_family(kind: SiteKind, axis: str) -> np.ndarray:
    """Tensor family A[alpha along ``axis``], virtual legs in z components.

    Built by rotating the virtual legs of the z tensor and applying the
    fixed family phase; equal to rotating the physical index (tested).
    """
    t = site_tensor(kind)
    # columns |0 axis>, |1 axis>
    u = np.array([virtual_ket(axis, bit).components for bit in (0, 1)]).T
    uc = np.conj(u)
    # left: ket -> u @ ket ; right: bra -> conj(u) @ bra
    out = np.einsum("ij,ajkv->aikv", u, t)
    out = np.einsum("kj,aijv->aikv", uc, out)
    if kind is SiteKind.BOT:
        out = np.einsum("vw,aikw->aikv", u, out)
    else:
        out = np.einsum("vw,aikw->aikv", uc, out)
    return _FAMILY_PHASE[(kind, axis)] * out


@lru_cache(maxsize=None)
def site_family_rotated(kind: SiteKind, axis: str) -> np.ndarray:
    """Same family obtained by contracting the physical index instead."""
    u4 = physical_basis(axis)
    return np.einsum("ba,blrv->alrv", np.conj(u4), site_tensor(kind))


# -- exhaustive enumeration ---------------------------------------------------


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

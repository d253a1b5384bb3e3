"""Exact contraction of the lattice state and measurement probabilities.

Dangling virtual edges (the boundary spin-1/2 degrees of freedom) are
closed in one of two ways:

* traced (``term=None``): the edge qubits are kept as unmeasured
  environment and traced out, i.e. the double-layer network is closed
  with the identity. This is the statistics mode: single-site reduced
  densities are exactly 1/4 and axis marginals exactly 1/3 on any patch.
* pinned (an explicit :class:`BoundaryTermination`): every edge is closed
  with a fixed virtual vector (default |0^z>). The result is one of the
  degenerate ground states; pinned edges act as deterministic standard
  partners for adjacent sites, which is what the gate protocol relies on
  at the patch boundary.

Probabilities, reduced densities, correlations and stage 1 contract the
double layer <psi| prod effects |psi> for either closure, so they reach
any strip of at most ``STRIP_WIDTH_CAP`` rows (or columns). The sweep
runs line by line: a line is a column of a strip of at most that many
rows, else a row. Probabilities, densities and correlations are one-shot
contractions (:func:`_layer_value`); :func:`pattern_probability` weighs
a ``{site: axis}`` dict of polarizing outcomes. :class:`TracedEngine` is
the layer engine for sequential measurement, for a traced or a pinned
``term``: it keeps one operator per measured site and caches the left and
right environments of every line, so a chain-rule step contracts about
two lines instead of the whole strip. Stage 1 is axes in, axes out:
:func:`chain_rule_sample` polarizes every site in ``lattice.sites()``
order on that engine, drawing each axis from its exact conditional.

Stage 2 runs on :class:`DenseEngine`, the pinned state with every site
polarized onto the +-3/2 pair of its sampled axis. It is contracted
straight from reduced site tensors: site s is stored in the columns of
the (4, 2) isometry B_s = ``physical_basis(axis)[:, [0, 3]]``, with
tensor sqrt(2/3) B_s^dagger A_s (the factor of ``povm_element``), so the
state has 2^n amplitudes, one axis per site in sweep order, index values
0 and 1 being +3/2 and -3/2 along the site's axis. It is capped at
``QUBIT_SITE_CAP`` sites. :func:`build_state` is the 4^n oracle the tests
compare against, capped at ``DENSE_SITE_CAP``; its amplitudes have one
axis of dimension 4 per site, ordered by ``lattice.site_index``, index
values 0..3 being the physical basis states [+3/2, +1/2, -1/2, -3/2]
along z.

Both engines take the same *actions* on a site: a Kraus operator (shape
(4, 4); the site stays) or a projective row (shape (4,)). A Kraus
operator K has effect K^dagger K, a row r has effect |r><r|
(``np.outer(np.conj(r), r)``). Both provide ``weight()``,
``effect_weight(site, action)``, ``effect_weights(site, actions)``,
``apply_op(site, op)``, ``project(site, row)`` and the non-mutating
``branch(site, action)``. On :class:`DenseEngine` actions map through
B_s: a row r acts as the row r B_s (the axis is removed), a Kraus
operator K as B_s^dagger K B_s, and an effect E is weighed as
tr(B_s^dagger E B_s G) with G the site's 2 x 2 Gram matrix of the
amplitudes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .lattice import HexLattice, Leg, Site, ket_role
from .tensors import (
    AXES,
    VirtualVec,
    physical_basis,
    povm_element,
    site_tensor,
    virtual_bra,
    virtual_ket,
)

if TYPE_CHECKING:
    from .sampler import AxisAssignment

DENSE_SITE_CAP = 12  # build_state: 4^n amplitudes
QUBIT_SITE_CAP = 24  # DenseEngine: 2^n amplitudes
STRIP_WIDTH_CAP = 4
NEGATIVE_PROB_FLOOR = -1e-9

_ID4 = np.eye(4, dtype=complex)
_TRACED_PAIR = np.eye(2, dtype=complex).reshape(-1)  # identity closure


class LatticeSizeError(ValueError):
    """Requested lattice exceeds the exact-contraction caps."""


def check_site_cap(lattice: HexLattice, cap: int, what: str) -> None:
    if lattice.n_sites > cap:
        raise LatticeSizeError(
            f"{lattice.n_sites} sites exceeds {what} cap {cap}"
        )


class ProbabilityConsistencyError(RuntimeError):
    """A conditional probability fell below the round-off floor."""


def _clamp_probability(p: float) -> float:
    if p < NEGATIVE_PROB_FLOOR:
        raise ProbabilityConsistencyError(f"probability {p} below floor")
    return max(p, 0.0)


# -- boundary ---------------------------------------------------------------


@dataclass
class BoundaryTermination:
    """Fixed virtual vectors pinning every dangling edge.

    The default pins each boundary edge state to |bit^axis>; ket-role legs
    are closed by the matching bra and bra-role legs by the ket. Individual
    (site, leg) entries can be overridden, e.g. to check ground-state
    degeneracy. Override roles must complement the leg role.
    """

    axis: str = "z"
    bit: int = 0
    overrides: dict[tuple[Site, Leg], VirtualVec] = field(default_factory=dict)

    def vec_for(self, lattice: HexLattice, site: Site, leg: Leg) -> VirtualVec:
        want = "bra" if ket_role(lattice.kind(site), leg) else "ket"
        vec = self.overrides.get((site, leg))
        if vec is None:
            if want == "bra":
                return virtual_bra(self.axis, self.bit)
            return virtual_ket(self.axis, self.bit)
        if vec.role != want:
            raise ValueError(
                f"termination for {site}/{leg.value} must be a {want}"
            )
        return vec


# -- actions ------------------------------------------------------------------


def _effect(action: np.ndarray) -> np.ndarray:
    """|r><r| for a projective row r, K^dagger K for a Kraus operator K."""
    if np.ndim(action) == 1:
        return np.outer(np.conj(action), action)
    return action.conj().T @ action


def _as_op(action: np.ndarray) -> np.ndarray:
    """The action as an operator: a row r acts as the projector |r><r|."""
    return _effect(action) if np.ndim(action) == 1 else action


# amplitudes per block where a pass works through a large array in pieces
_BLOCK = 1 << 16


def _gram(amps: np.ndarray) -> np.ndarray:
    """G[j, k] = sum of conj(amps[l, j, r]) amps[l, k, r] over l and r.

    Accumulated block by block, so no temporary grows with the state.
    """
    n_before, d, n_after = amps.shape
    width = max(1, _BLOCK // d)
    step_before = max(1, width // n_after)
    step_after = min(n_after, width)
    gram = np.zeros((d, d), dtype=complex)
    for i in range(0, n_before, step_before):
        for j in range(0, n_after, step_after):
            block = amps[i : i + step_before, :, j : j + step_after]
            block = block.transpose(1, 0, 2).reshape(d, -1)
            gram += np.conj(block) @ block.T
    return gram


# -- network sweep ----------------------------------------------------------


def _sweep_lines(lattice: HexLattice) -> list[list[Site]]:
    """The sweep's lines, in order: the columns of a strip of at most
    ``STRIP_WIDTH_CAP`` rows, else the rows of a strip of at most
    ``STRIP_WIDTH_CAP`` columns. Bonds join sites of one line or of adjacent
    lines, so the open-leg frontier stays within one line of sites."""
    rows, cols = lattice.rows, lattice.cols
    if rows <= STRIP_WIDTH_CAP:
        return [[(r, c) for r in range(rows)] for c in range(cols)]
    if cols <= STRIP_WIDTH_CAP:
        return [[(r, c) for c in range(cols)] for r in range(rows)]
    raise LatticeSizeError(
        f"lattice {rows}x{cols}: neither dimension within "
        f"strip cap {STRIP_WIDTH_CAP}"
    )


def _sliced_tensordot(acc, t, acc_pos, t_pos):
    """``np.tensordot(acc, t, (acc_pos, t_pos))`` written one block of acc
    at a time, a block fixing acc's leading open axes, as many as bring it
    to about ``_BLOCK`` amplitudes. The transposed copy of acc that the
    product needs is then one block, not the whole (possibly state-sized)
    array.
    """
    if 0 in acc_pos or acc.size < _BLOCK:
        return np.tensordot(acc, t, axes=(acc_pos, t_pos))
    lead, size = 1, acc.size // acc.shape[0]
    while size > _BLOCK and lead < acc.ndim and lead not in acc_pos:
        size //= acc.shape[lead]
        lead += 1
    free = [i for i in range(lead, acc.ndim) if i not in acc_pos]
    t_free = [i for i in range(t.ndim) if i not in t_pos]
    k = math.prod(acc.shape[i] for i in acc_pos)
    tm = t.transpose(list(t_pos) + t_free).reshape(k, -1)
    outer = acc.shape[:lead]
    shape = [*outer, *(acc.shape[i] for i in free)]
    shape += [t.shape[i] for i in t_free]
    out = np.empty(shape, dtype=np.result_type(acc, t))
    order = [i - lead for i in free + list(acc_pos)]
    for idx in np.ndindex(*outer):
        block = acc[idx].transpose(order).reshape(-1, k)
        np.dot(block, tm, out=out[idx].reshape(block.shape[0], -1))
    return out


def _join(lattice, a, a_keys, b, b_keys):
    """Contract every bond between an open leg of ``a`` and one of ``b``.

    Keys name axes: ("v", site, leg) is an open virtual leg, anything else
    a site-local axis. Returns (array, keys), a's remaining axes first.
    """
    a_pos, b_pos = [], []
    for j, key in enumerate(b_keys):
        if key[0] != "v":
            continue
        _, site, leg = key
        nb = lattice.neighbor(site, leg)
        if nb is None:
            continue
        nb_key = ("v", nb, lattice.leg_between(nb, site))
        if nb_key in a_keys:
            a_pos.append(a_keys.index(nb_key))
            b_pos.append(j)
    out = _sliced_tensordot(a, b, a_pos, b_pos)
    keys = [k for i, k in enumerate(a_keys) if i not in a_pos]
    keys += [k for j, k in enumerate(b_keys) if j not in b_pos]
    return out, keys


def _closed_tensor(lattice, site, tensor_for, close_for):
    """(tensor, keys) of one site, its dangling legs closed by close_for."""
    t, extra_names = tensor_for(site)
    keys = [(name, site) for name in extra_names]
    keys += [("v", site, leg) for leg in Leg]
    for leg in Leg:
        if lattice.neighbor(site, leg) is None:
            vec = close_for(site, leg)
            if vec is None:
                continue
            pos = keys.index(("v", site, leg))
            t = np.tensordot(t, vec, axes=([pos], [0]))
            keys.pop(pos)
    return t, keys


def _contract_sweep(lattice, tensor_for, close_for, sites=None, start=None):
    """Generic single-pass network contraction.

    ``tensor_for(site)`` returns (tensor, extra_names); the tensor's axes
    are the named extra site-local axes first, then (left, right, vert).
    ``close_for(site, leg)`` returns the vector closing a dangling leg, or
    None to keep it as an open output axis. ``sites`` (default: every site,
    line by line) are absorbed in order onto ``start``, an (array, keys)
    pair from an earlier sweep (default: the empty network), so a sweep can
    resume from a stored environment. A site whose vertical partner comes
    next is first contracted with it, so the pair meets the accumulator as
    one tensor and no intermediate outgrows the final result on the last
    line. Returns (array, keys).
    """
    acc, keys = start or (np.ones((), dtype=complex), [])
    if sites is None:
        sites = [s for line in _sweep_lines(lattice) for s in line]
    i = 0
    while i < len(sites):
        t, tkeys = _closed_tensor(lattice, sites[i], tensor_for, close_for)
        if (
            i + 1 < len(sites)
            and lattice.neighbor(sites[i], Leg.VERT) == sites[i + 1]
        ):
            i += 1
            pair = _closed_tensor(lattice, sites[i], tensor_for, close_for)
            t, tkeys = _join(lattice, t, tkeys, *pair)
        acc, keys = _join(lattice, acc, keys, t, tkeys)
        i += 1
    return acc, keys


# -- pinned dense state -------------------------------------------------------


@dataclass
class StateVector:
    lattice: HexLattice
    amplitudes: np.ndarray  # flat, 4**n_sites

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((4,) * self.lattice.n_sites)


def build_state(
    lattice: HexLattice, term: BoundaryTermination | None = None
) -> StateVector:
    """Contract the network into the dense 4^n state with pinned edges.

    The result is an (unnormalized) ground state for any termination
    choice; it is NOT the state the measurement statistics refer to (see
    the module docstring). Only oracles and tests use it.
    """
    check_site_cap(lattice, DENSE_SITE_CAP, "dense")
    term = term or BoundaryTermination()

    def close(site, leg):
        return term.vec_for(lattice, site, leg).vector

    acc, keys = _contract_sweep(
        lattice, lambda s: (site_tensor(lattice.kind(s)), ("p",)), close
    )
    assert all(k[0] == "p" for k in keys)
    perm = sorted(range(len(keys)), key=lambda i: lattice.site_index(keys[i][1]))
    amps = np.transpose(acc, axes=perm).reshape(-1)
    sv = StateVector(lattice, amps)
    if sv.norm == 0.0:
        raise ValueError("termination annihilates the state")
    return sv


# -- double-layer (traced or pinned) -----------------------------------------


def _double_tensor(kind, effect: np.ndarray) -> np.ndarray:
    """Bra/ket double-layer site tensor, pair legs of dimension 4."""
    a = site_tensor(kind)
    d = np.einsum("ab,aLRV,blrv->LlRrVv", effect, np.conj(a), a)
    return d.reshape(4, 4, 4)


@lru_cache(maxsize=None)
def _unmeasured_layer(kind) -> np.ndarray:
    """The double tensor of an unmeasured site, the same for its kind."""
    d = _double_tensor(kind, _ID4)
    d.setflags(write=False)  # cached: shared by every contraction
    return d


@lru_cache(maxsize=None)
def _open_layer(kind) -> np.ndarray:
    """Double tensor with the bra/ket physical indices left open."""
    a = site_tensor(kind)
    d = np.einsum("aLRV,blrv->abLlRrVv", np.conj(a), a).reshape(4, 4, 4, 4, 4)
    d.setflags(write=False)  # cached: shared by every contraction
    return d


def _pair_vec(vec: VirtualVec) -> np.ndarray:
    v = vec.vector
    return np.kron(np.conj(v), v)


def _layer_closure(lattice: HexLattice, term: BoundaryTermination | None):
    """close_for of the double layer: identity pairs for traced edges,
    else the pair of each edge's pinned vector."""

    def close(site, leg):
        if term is None:
            return _TRACED_PAIR
        return _pair_vec(term.vec_for(lattice, site, leg))

    return close


def _layer_tensors(
    lattice: HexLattice,
    effects: dict[Site, np.ndarray],
    open_site: Site | None = None,
):
    """tensor_for of the double layer: each site carries its effect (the
    identity where it has none); ``open_site`` keeps its bra/ket physical
    indices open as the extra axes ("ra", "rb")."""

    def tensor_for(site):
        kind = lattice.kind(site)
        if site == open_site:
            return _open_layer(kind), ("ra", "rb")
        if site in effects:
            return _double_tensor(kind, effects[site]), ()
        return _unmeasured_layer(kind), ()

    return tensor_for


def _real(value) -> float:
    """A double-layer value, which must be real up to round-off."""
    val = complex(value)
    if abs(val.imag) > 1e-9 * max(abs(val.real), 1.0):
        raise ProbabilityConsistencyError(f"non-real value {val}")
    return float(val.real)


def _layer_value(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    effects: dict[Site, np.ndarray],
    open_site: Site | None = None,
) -> np.ndarray | float:
    """Contract <psi| prod effects |psi> on the double layer, in one pass.

    With ``open_site`` set, that site's bra/ket physical indices are left
    open and the (4, 4) result T satisfies <psi|E|psi> = sum E[a,b] T[a,b].
    """
    acc, keys = _contract_sweep(
        lattice,
        _layer_tensors(lattice, effects, open_site),
        _layer_closure(lattice, term),
    )
    if open_site is None:
        assert not keys
        return _real(acc)
    assert [k[0] for k in keys] == ["ra", "rb"]
    return acc


# -- probabilities ----------------------------------------------------------


def pattern_probability(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    axes: dict[Site, str],
) -> float:
    """Probability of polarizing each site of ``axes`` along its axis;
    unmeasured sites (and, with ``term=None``, the boundary edge qubits)
    are traced out."""
    for site in axes:
        if not lattice.contains(site):
            raise ValueError(f"pattern site {site} not on lattice")
    effects = {site: _effect(povm_element(ax)) for site, ax in axes.items()}
    num = _layer_value(lattice, term, effects)
    den = _layer_value(lattice, term, {})
    return _clamp_probability(num / den)


def reduced_density(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site: Site,
) -> np.ndarray:
    """Single-site density matrix of the normalized state."""
    if not lattice.contains(site):
        raise ValueError(f"site {site} not on lattice")
    rho = _layer_value(lattice, term, {}, open_site=site).T.copy()
    rho /= np.trace(rho).real
    return rho


# -- measurement engines ------------------------------------------------------


class DenseEngine:
    """Mutable pinned-edge state with every site polarized: 2^n amplitudes.

    Built from ``assignment`` (site -> axis): each site keeps the (4, 2)
    isometry B_s of its axis pair, every action is compressed to that
    pair, and every projection removes the site's index. Stage 2 and its
    branch enumeration run on this engine.
    """

    def __init__(
        self,
        lattice: HexLattice,
        assignment: AxisAssignment,
        term: BoundaryTermination,
    ):
        check_site_cap(lattice, QUBIT_SITE_CAP, "qubit")
        self.lattice = lattice
        self._bases = {
            s: physical_basis(assignment[s])[:, [0, 3]] for s in lattice.sites()
        }
        scale = math.sqrt(2.0 / 3.0)

        def tensor_for(site):
            a = site_tensor(lattice.kind(site))
            t = np.tensordot(self._bases[site].conj().T, a, axes=([1], [0]))
            return scale * t, ("p",)

        def close(site, leg):
            return term.vec_for(lattice, site, leg).vector

        self._amps, keys = _contract_sweep(lattice, tensor_for, close)
        self._sites: list[Site] = [k[1] for k in keys]

    @property
    def live_sites(self) -> tuple[Site, ...]:
        return tuple(self._sites)

    def _split(self, site: Site) -> tuple[int, np.ndarray]:
        """(axis, amplitudes viewed as (before, site, after))."""
        try:
            ax = self._sites.index(site)
        except ValueError:
            raise KeyError(f"site {site} already projected out") from None
        shape = self._amps.shape
        return ax, self._amps.reshape(math.prod(shape[:ax]), shape[ax], -1)

    def _acted(self, site: Site, action: np.ndarray) -> tuple:
        """(amplitudes, live sites) after ``action`` on ``site``."""
        ax, amps = self._split(site)
        shape = list(self._amps.shape)
        basis = self._bases[site]
        if np.ndim(action) == 1:
            del shape[ax]
            sites = self._sites[:ax] + self._sites[ax + 1 :]
            return (np.asarray(action) @ basis @ amps).reshape(shape), sites
        op = basis.conj().T @ action @ basis
        return np.matmul(op, amps).reshape(shape), self._sites

    def weight(self) -> float:
        return float(np.real(np.vdot(self._amps, self._amps)))

    def effect_weight(self, site: Site, action: np.ndarray) -> float:
        """<psi| E_site |psi> (unnormalized) for the action's effect E."""
        return self.effect_weights(site, [action])[0]

    def effect_weights(
        self, site: Site, actions: list[np.ndarray]
    ) -> list[float]:
        """Batched effect_weight: tr(B^dagger E B G) from one Gram pass."""
        _, amps = self._split(site)
        basis = self._bases[site]
        gram = _gram(amps)
        return [
            float(np.real(np.sum(_effect(np.asarray(a) @ basis) * gram)))
            for a in actions
        ]

    def apply_op(self, site: Site, op: np.ndarray) -> None:
        """Apply B_s^dagger op B_s: ``op`` compressed to the site's pair."""
        self._amps, self._sites = self._acted(site, op)

    def project(self, site: Site, row: np.ndarray) -> None:
        """Apply a rank-1 outcome <row| and drop the site axis."""
        self._amps, self._sites = self._acted(site, row)

    def branch(self, site: Site, action: np.ndarray) -> "DenseEngine":
        """Non-mutating apply_op or project; shares no amplitudes with self."""
        new = object.__new__(DenseEngine)
        new.lattice, new._bases = self.lattice, self._bases
        new._amps, new._sites = self._acted(site, action)
        return new


class TracedEngine:
    """Sequential-measurement engine on the double layer.

    Keeps one accumulated operator per measured site, closed by ``term``
    (traced edges for None, else pinned), so no state vector is ever
    formed. Over the sweep's lines (``_sweep_lines``) it caches left and
    right environments: ``_left[k]`` is lines 0..k-1 contracted, with open
    legs into line k, and ``_right[k]`` is the lines after k (the
    environment reuse of Ferris & Vidal, PRB 85, 165146, 2012).
    ``apply_op`` drops only the environments that contain the site's line;
    a missing one is rebuilt, one line at a time, from the nearest one
    still cached. A weight at a site contracts the site's line once, with
    the site's bra/ket indices open, between its two environments, and
    reads every alternative off the resulting (4, 4) tensor, so a step in
    sweep order costs about two lines. :func:`_layer_value` is the one-shot
    contraction the tests compare against.
    """

    def __init__(
        self, lattice: HexLattice, term: BoundaryTermination | None = None
    ):
        self.lattice = lattice
        self.term = term
        self._lines = _sweep_lines(lattice)
        self._line_of = {
            s: k for k, line in enumerate(self._lines) for s in line
        }
        self._close = _layer_closure(lattice, term)
        self._ops: dict[Site, np.ndarray] = {}
        self._effects: dict[Site, np.ndarray] = {}
        empty = (np.ones((), dtype=complex), [])
        self._left: dict[int, tuple] = {0: empty}
        self._right: dict[int, tuple] = {len(self._lines) - 1: empty}

    def _absorb(self, k: int, env: tuple, open_site: Site | None = None):
        """``env`` with line k contracted onto it."""
        tensor_for = _layer_tensors(self.lattice, self._effects, open_site)
        acc, keys = _contract_sweep(
            self.lattice, tensor_for, self._close, self._lines[k], env
        )
        acc.setflags(write=False)  # environments are shared by branches
        return acc, keys

    def _left_env(self, k: int) -> tuple:
        j = max(i for i in self._left if i <= k)
        for i in range(j, k):
            self._left[i + 1] = self._absorb(i, self._left[i])
        return self._left[k]

    def _right_env(self, k: int) -> tuple:
        j = min(i for i in self._right if i >= k)
        for i in range(j, k, -1):
            self._right[i - 1] = self._absorb(i, self._right[i])
        return self._right[k]

    def _open_tensor(self, site: Site) -> np.ndarray:
        """T with <psi|E_site|psi> = sum E[a,b] T[a,b], the site's own
        operator left out."""
        k = self._line_of[site]
        acc, keys = self._absorb(k, self._left_env(k), open_site=site)
        t, keys = _join(self.lattice, acc, keys, *self._right_env(k))
        assert [key[0] for key in keys] == ["ra", "rb"]
        return t

    def weight(self) -> float:
        return _real(self._left_env(len(self._lines))[0])

    def op_weight(self, site: Site, op: np.ndarray) -> float:
        """Weight after ``op`` on ``site``, on top of its operator so far."""
        return self.effect_weights(site, [op])[0]

    def effect_weight(self, site: Site, action: np.ndarray) -> float:
        return self.op_weight(site, _as_op(action))

    def effect_weights(
        self, site: Site, actions: list[np.ndarray]
    ) -> list[float]:
        """Batched effect_weight from one line contraction: with T from
        ``_open_tensor`` and O the site's accumulated operator, action A
        weighs sum((M^dagger M) * T) for M = A O."""
        t = self._open_tensor(site)
        o = self._ops.get(site, _ID4)
        return [_real(np.sum(_effect(_as_op(a) @ o) * t)) for a in actions]

    def apply_op(self, site: Site, op: np.ndarray) -> None:
        o = op @ self._ops.get(site, _ID4)
        self._ops[site] = o
        self._effects[site] = o.conj().T @ o
        k = self._line_of[site]
        for j in [j for j in self._left if j > k]:
            del self._left[j]
        for j in [j for j in self._right if j < k]:
            del self._right[j]

    def project(self, site: Site, row: np.ndarray) -> None:
        self.apply_op(site, _as_op(row))

    def branch(self, site: Site, action: np.ndarray) -> "TracedEngine":
        """Non-mutating apply_op; the copy has its own operator and cache
        dicts and shares the read-only environment arrays."""
        new = copy.copy(self)
        new._ops, new._effects = dict(self._ops), dict(self._effects)
        new._left, new._right = dict(self._left), dict(self._right)
        new.apply_op(site, _as_op(action))
        return new


# -- chain-rule sampling ------------------------------------------------------


@dataclass(frozen=True)
class StepOutcome:
    site: Site
    kind: str
    outcome: str | int
    probability: float


def chain_rule_sample(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    rng_seed: int,
) -> list[StepOutcome]:
    """Polarize every site, in ``lattice.sites()`` order, along an axis
    drawn from its exact conditional given the axes drawn before.

    ``term=None`` samples the traced-edge statistics; a pinned termination
    samples within that ground state. Both run on the layer engine.
    """
    rng = np.random.default_rng(rng_seed)
    engine = TracedEngine(lattice, term)
    povms = [povm_element(ax) for ax in AXES]
    steps = []
    for site in lattice.sites():
        weights = engine.effect_weights(site, povms)
        # the POVM is complete, so the weights sum to the state weight
        total = sum(weights)
        if total <= 0.0:
            raise ProbabilityConsistencyError("state weight vanished")
        probs = [_clamp_probability(w / total) for w in weights]
        norm = sum(probs)
        if norm <= 0.0:
            raise ProbabilityConsistencyError("no outcome has weight")
        pick = int(rng.choice(len(AXES), p=[p / norm for p in probs]))
        engine.apply_op(site, povms[pick])
        steps.append(StepOutcome(site, "polarize", AXES[pick], probs[pick]))
    return steps

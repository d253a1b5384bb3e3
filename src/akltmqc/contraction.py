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
rows, else a row. :class:`TracedEngine`, the layer engine for a traced or
a pinned ``term``, is the only double-layer contraction:
:func:`pattern_probability` weighs a ``{site: axis}`` dict of polarizing
outcomes as the ratio of two of its weights, :func:`reduced_density`
reads its open site tensor, and sequential measurement applies one
operator at a time. It builds each closed double tensor once per site
class and effect, shared by every engine, and caches the left and right
environments of every line (rescaled by powers of two, so that strips of
any length stay in float range), and a chain-rule step contracts a few
lines instead of the whole strip. It contracts a line by replaying a
recorded :class:`_Plan`: the sweep's joins, worked out once per line
class and role by ``_join``'s own axis matching and kept as transposes,
reshapes and matrix products (:class:`_Step`). Stage 1 is axes in, axes
out: :func:`chain_rule_sample` polarizes every site in
``lattice.sites()`` order on that engine, drawing each axis from its
exact conditional, read off the engine's ``relative_weights``.

Stage 2 samples on that engine too. Its branch enumeration runs on
:class:`DenseEngine`, the pinned state with every site polarized onto the
+-3/2 pair of its sampled axis. It is contracted straight from reduced
site tensors: site s is stored in the columns of the (4, 2) isometry B_s =
``physical_basis(axis)[:, [0, 3]]``, with tensor sqrt(2/3) B_s^dagger A_s
(the factor of ``povm_element``), so the state has 2^n amplitudes, one
axis per site in sweep order, index values 0 and 1 being +3/2 and -3/2
along the site's axis. It is capped at ``QUBIT_SITE_CAP`` sites.
:class:`BranchStack` stacks many branches of that state in one array and
measures a site on all of them in one contraction. :func:`build_state` is
the 4^n oracle the tests compare against, capped at ``DENSE_SITE_CAP``;
its amplitudes have one axis of dimension 4 per site, ordered by
``lattice.site_index``, index values 0..3 being the physical basis states
[+3/2, +1/2, -1/2, -3/2] along z.

Both engines take the same *actions* on a site: a Kraus operator (shape
(4, 4); the site stays) or a projective row (shape (4,)). A Kraus
operator K has effect K^dagger K, a row r has effect |r><r|
(``np.outer(np.conj(r), r)``). Both provide ``weight()``,
``effect_weights(site, actions)``, ``relative_weights(site, actions)``,
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
    if not math.isfinite(p):
        raise ProbabilityConsistencyError(f"probability {p} not finite")
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


@lru_cache(maxsize=None)
def _polarizers() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Stage 1's polarizing operators along ``AXES`` and their stacked
    effects, read-only. Built on first use, not at import: the first
    complex matrix product sets up the BLAS buffers."""
    povms = tuple(povm_element(ax) for ax in AXES)
    effects = np.stack([_effect(p) for p in povms])
    effects.setflags(write=False)
    return povms, effects


def _as_op(action: np.ndarray) -> np.ndarray:
    """The action as an operator: a row r acts as the projector |r><r|."""
    return _effect(action) if np.ndim(action) == 1 else action


# amplitudes per block where a pass works through a large array in pieces
_BLOCK = 1 << 16


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


class _Step:
    """One recorded join: ``np.tensordot(a, b, (a_pos, b_pos))`` as the
    transposes, 2-D reshapes and matrix product that tensordot performs,
    worked out once for the operand shapes, so a replay is bit-identical to
    the tensordot it stands for."""

    __slots__ = ("a_perm", "a_mat", "b_perm", "b_mat", "shape")

    def __init__(self, a_shape, b_shape, a_pos, b_pos):
        a_free = [i for i in range(len(a_shape)) if i not in a_pos]
        b_free = [j for j in range(len(b_shape)) if j not in b_pos]
        k = math.prod(a_shape[i] for i in a_pos)
        self.a_perm = (*a_free, *a_pos)
        self.a_mat = (math.prod(a_shape[i] for i in a_free), k)
        self.b_perm = (*b_pos, *b_free)
        self.b_mat = (k, math.prod(b_shape[j] for j in b_free))
        self.shape = tuple(a_shape[i] for i in a_free) + tuple(
            b_shape[j] for j in b_free
        )

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.apply(a, self.operand(b))

    def operand(self, b: np.ndarray) -> np.ndarray:
        """b as the right-hand matrix of the product."""
        return b.transpose(self.b_perm).reshape(self.b_mat)

    def apply(self, a: np.ndarray, bt: np.ndarray) -> np.ndarray:
        """The join, b given as ``operand(b)``."""
        at = a.transpose(self.a_perm).reshape(self.a_mat)
        return np.dot(at, bt).reshape(self.shape)


def _join(lattice, a, a_keys, b, b_keys, steps=None):
    """Contract every bond between an open leg of ``a`` and one of ``b``.

    Keys name axes: ("v", site, leg) is an open virtual leg, anything else
    a site-local axis. Returns (array, keys), a's remaining axes first.
    With a ``steps`` list the join is recorded there as a :class:`_Step`
    and computed by it; else large operands go through
    :func:`_sliced_tensordot`.
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
    if steps is None:
        out = _sliced_tensordot(a, b, a_pos, b_pos)
    else:
        steps.append(_Step(a.shape, b.shape, a_pos, b_pos))
        out = steps[-1](a, b)
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


def _sweep_groups(lattice, sites) -> list[tuple[int, ...]]:
    """Positions in ``sites`` as the sweep absorbs them: one site, or a
    site together with its vertical partner when that comes next."""
    groups, i = [], 0
    while i < len(sites):
        if (
            i + 1 < len(sites)
            and lattice.neighbor(sites[i], Leg.VERT) == sites[i + 1]
        ):
            groups.append((i, i + 1))
            i += 2
        else:
            groups.append((i,))
            i += 1
    return groups


def _contract_sweep(
    lattice, tensor_for, close_for, sites=None, start=None, steps=None
):
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
    line. ``steps`` records the joins (see :func:`_join`). Returns
    (array, keys).
    """
    acc, keys = start or (np.ones((), dtype=complex), [])
    if sites is None:
        sites = [s for line in _sweep_lines(lattice) for s in line]
    for group in _sweep_groups(lattice, sites):
        first, *rest = (
            _closed_tensor(lattice, sites[i], tensor_for, close_for)
            for i in group
        )
        t, tkeys = first
        for pair in rest:
            t, tkeys = _join(lattice, t, tkeys, *pair, steps)
        acc, keys = _join(lattice, acc, keys, t, tkeys, steps)
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


@lru_cache(maxsize=None)
def _pair_vec(vec: VirtualVec) -> np.ndarray:
    v = vec.vector
    pair = np.kron(np.conj(v), v)
    pair.setflags(write=False)  # cached: shared by every contraction
    return pair


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


# -- recorded line plans ------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """One line contraction of the layer engine, recorded once per line
    class and role and replayed as plain numpy calls.

    ``program`` holds one entry per group of :func:`_sweep_groups`:
    (first, last, pair, step), the line positions of the group's first and
    last site, the step joining a pair (None for a lone site) and the step
    joining the group onto the accumulator.
    ``tail`` joins an open line with the right environment. ``keys`` are
    the result's keys with their sites moved to line 0.
    """

    program: tuple
    tail: _Step | None
    keys: tuple

    @classmethod
    def from_steps(cls, groups, steps, keys) -> "_Plan":
        """Group the steps ``_contract_sweep`` recorded, in its order."""
        it = iter(steps)
        program = []
        for group in groups:
            pair = next(it) if len(group) == 2 else None
            program.append((group[0], group[-1], pair, next(it)))
        return cls(tuple(program), next(it, None), tuple(keys))

    def run(self, acc, tensors, right=None) -> np.ndarray:
        """Replay onto ``acc``; ``tensors`` are the line's site tensors,
        values of ``_SITE_TENSORS``. Each group's operand (a vertical pair
        joined, then made the step's matrix) comes from ``_OPERANDS``."""
        for first, last, pair, step in self.program:
            key = (step, id(tensors[first]), id(tensors[last]))
            b = _OPERANDS.get(key)
            if b is None:
                t = tensors[first]
                if pair is not None:
                    t = pair(t, tensors[last])
                b = _OPERANDS[key] = step.operand(t)
                b.setflags(write=False)
            acc = step.apply(acc, b)
        if self.tail is not None:
            acc = self.tail(acc, right)
        return acc


# Plans by (line class, role), shared by every engine. A line class fixes
# the legs of the line's sites and the key order of both environments it
# meets, so it fixes every join; the count does not grow with the strip.
_PLANS: dict[tuple, _Plan] = {}

# The layer engine's closed site tensors by (site class, effect key), and
# each line group's operand by (step, ids of the group's site tensors);
# shared by every engine, read-only, and never evicted, so an id in an
# operand key always names a live tensor. Each holds one entry per site
# class and effect (per step and tensors) in use, however long the strip.
_SITE_TENSORS: dict[tuple, np.ndarray] = {}
_OPERANDS: dict[tuple, np.ndarray] = {}

_EMPTY_ENV = (np.ones((), dtype=complex), [], 0)
_EMPTY_ENV[0].setflags(write=False)


def _rescaled(acc: np.ndarray, exp: int) -> tuple[np.ndarray, int]:
    """(acc * 2^-e, exp + e), e the binary exponent of acc's largest
    magnitude: a power of two, so the scaling is exact, and the largest
    magnitude lands in [1/2, 1) instead of drifting out of float range."""
    _, e = math.frexp(float(np.abs(acc).max()))
    e = max(e, -1022)  # 2.0 ** -e stays finite
    return (acc * 2.0**-e if e else acc), exp + e


def _ldexp(x: float, exp: int) -> float:
    """x * 2^exp, infinite where that overflows."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


# -- measurement engines ------------------------------------------------------


class DenseEngine:
    """Mutable pinned-edge state with every site polarized: 2^n amplitudes.

    Built from ``assignment`` (site -> axis): each site keeps the (4, 2)
    isometry B_s of its axis pair, every action is compressed to that
    pair, and every projection removes the site's index. Stage 2's branch
    enumeration stacks the engine's state in a :class:`BranchStack`; the
    tests walk it as the sampling walk's reference.
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
        """Batched effect_weight: tr(B^dagger E B G), G built one row at a
        time, so no temporary outgrows half the state."""
        _, amps = self._split(site)
        basis = self._bases[site]
        gram = np.array(
            [np.einsum("ik,ilk->l", amps[:, j].conj(), amps) for j in (0, 1)]
        )
        return [
            float(np.real(np.sum(_effect(np.asarray(a) @ basis) * gram)))
            for a in actions
        ]

    relative_weights = effect_weights  # 2^n amplitudes stay in range

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


class BranchStack:
    """Every live branch of a :class:`DenseEngine` state, in one array.

    The B branches' amplitudes are stacked as ``(B, 2, ..., 2)``: axis 0
    is the branch, the rest are the live sites in the engine's order.
    :meth:`split` measures one site on every branch in one contraction and
    :meth:`keep` makes the chosen children the new branches, so a walk over
    a plan takes one array step per site instead of one copy per branch.
    """

    def __init__(self, engine: DenseEngine):
        self._bases = engine._bases
        self._sites = list(engine._sites)
        self._amps = engine._amps[np.newaxis]
        self._children: np.ndarray | None = None

    def split(self, site: Site, rows: np.ndarray) -> np.ndarray:
        """Measure ``site`` on every branch; the (B, 2) child weights.

        ``rows`` is the site's pair of outcome rows: one (2, 4) pair shared
        by every branch, or a (B, 2, 4) stack, a pair per branch. Each row
        r acts as r B_s; a child's weight is its squared norm. The children
        wait, flattened in (branch, outcome) order, for :meth:`keep`.
        """
        ax = self._sites.index(site) + 1
        shape = self._amps.shape
        amps = self._amps.reshape(shape[0], math.prod(shape[1:ax]), 2, -1)
        pairs = np.asarray(rows) @ self._bases[site]
        spec = "jk" if pairs.ndim == 2 else "ijk"
        children = np.einsum(f"{spec},iakc->ijac", pairs, amps)
        flat = children.reshape(shape[0], 2, -1)
        weights = np.einsum("ijk,ijk->ij", flat.conj(), flat).real
        self._children = children.reshape(-1, *shape[1:ax], *shape[ax + 1 :])
        self._sites.remove(site)
        return weights

    def keep(self, picks: np.ndarray) -> None:
        """Keep the children at flat indices ``picks`` (2 * branch + outcome),
        in that order, as the new branches."""
        children, self._children = self._children, None
        if len(picks) < len(children):
            children = children[picks]
        self._amps = children


class TracedEngine:
    """Sequential-measurement engine on the double layer.

    Keeps one accumulated operator per measured site, closed by ``term``
    (traced edges for None, else pinned), so no state vector is ever
    formed. Over the sweep's lines (``_sweep_lines``) it caches left and
    right environments: ``_left[k]`` is lines 0..k-1 contracted, with open
    legs into line k, and ``_right[k]`` is the lines after k (the
    environment reuse of Ferris & Vidal, PRB 85, 165146, 2012). Both cached
    ranges are contiguous, ``_left`` below ``_left_end`` and ``_right`` from
    ``_right_start`` on; ``apply_op`` drops only the environments that
    contain the site's line, and a missing one is rebuilt, one line at a
    time, from the nearest one still cached. A weight at a site contracts
    the site's line once, with the site's bra/ket indices open, between its
    two environments, and reads every alternative off the resulting (4, 4)
    tensor, so a step costs that line and the environments it invalidated.

    Four caches keep a line contraction down to its numpy calls:

    * the closed double tensors (an effect applied, the dangling legs
      closed by ``term``), built once per site class and effect and shared
      by every engine in ``_SITE_TENSORS``. A site's class is its kind and
      the closure vector of each dangling leg, computed once per engine:
      the kind alone would not do, since ``term.overrides`` pins single
      legs. Each site points at the tensor of its class and current effect
      (unmeasured, or its accumulated operator's); ``apply_op`` repoints
      only that site;
    * each line group's operand in ``_OPERANDS``: a vertical pair joined,
      then made the matrix its step multiplies by, keyed by the step and
      the ids of its (never evicted) site tensors. Neither memo grows
      with the strip: they hold an entry per class and effect (per step
      and tensors) in use, and grow only with the distinct effects a
      process applies, such as stage-2 rows at new rotation angles;
    * the recorded :class:`_Plan` of each line class and role in
      ``_PLANS``: a line's class is its family (orientation and length),
      its distance from either end (0, 1 or more) and the parity of its
      index; its role is building the left or the right environment, or
      opening the site at one position. The first contraction of a class
      runs ``_join``'s axis matching and records the joins; later ones
      replay them, bit-identical to the generic sweep;
    * every cached environment is stored as (array, keys, exp), the array
      rescaled by a power of two (:func:`_rescaled`) and the exponent
      tracked, so long strips neither underflow nor overflow.
      :meth:`relative_weights` gives the weights up to one common power of
      two; :meth:`weight` and :meth:`effect_weights` scale back to absolute
      values, exact wherever those can be represented.
    """

    def __init__(
        self, lattice: HexLattice, term: BoundaryTermination | None = None
    ):
        self.lattice = lattice
        self.term = term
        self._lines = _sweep_lines(lattice)
        self._place = {
            s: (k, r)
            for k, line in enumerate(self._lines)
            for r, s in enumerate(line)
        }
        n = len(self._lines)
        self._by_column = lattice.rows <= STRIP_WIDTH_CAP
        # a line's class (see the class docstring); distance 1 keeps apart
        # the lines whose environment on one side is an end line alone
        family = (self._by_column, len(self._lines[0]))
        self._class = [
            (family, min(k, 2), min(n - 1 - k, 2), k % 2) for k in range(n)
        ]
        self._close = _layer_closure(lattice, term)
        # a site's class: its kind and each leg's closure vector (None for
        # a bonded leg), which fix its closed tensor for a given effect
        table = lattice.neighbor_table()
        self._site_class = {
            site: (
                lattice.kind(site),
                tuple(
                    None if nb >= 0 else self._close(site, leg).tobytes()
                    for leg, nb in zip(Leg, table[i])
                ),
            )
            for i, site in enumerate(lattice.sites())
        }
        self._ops: dict[Site, np.ndarray] = {}
        self._closed: dict[Site, np.ndarray] = {}  # closed double tensors
        self._left: dict[int, tuple] = {0: _EMPTY_ENV}
        self._right: dict[int, tuple] = {n - 1: _EMPTY_ENV}
        self._left_end, self._right_start = 1, n - 1

    # -- site tensors and line contractions -----------------------------------

    def _layer(self, site: Site, effect=None, opened=False) -> np.ndarray:
        """The closed double tensor of the site's class carrying ``effect``
        (None: unmeasured), or with its bra/ket indices open (axes "ra",
        "rb" first); built once per class and effect, shared read-only."""
        tag = None if effect is None else effect.tobytes()
        key = (self._site_class[site], "open" if opened else tag)
        t = _SITE_TENSORS.get(key)
        if t is None:
            tensor_for = _layer_tensors(
                self.lattice,
                {} if effect is None else {site: effect},
                site if opened else None,
            )
            t, _ = _closed_tensor(self.lattice, site, tensor_for, self._close)
            t.setflags(write=False)
            _SITE_TENSORS[key] = t
        return t

    def _site(self, site: Site) -> np.ndarray:
        """The site's closed double tensor."""
        t = self._closed.get(site)
        if t is None:
            t = self._closed[site] = self._layer(site)
        return t

    def _shifted(self, keys, d: int) -> list:
        """``("v", site, leg)`` keys with their sites moved by d lines."""
        if self._by_column:
            return [(n, (r, c + d), leg) for n, (r, c), leg in keys]
        return [(n, (r + d, c), leg) for n, (r, c), leg in keys]

    def _record(self, k: int, role, env: tuple, right) -> _Plan:
        """Run the generic sweep of line k onto ``env`` once, recording its
        joins: ``_join`` does the axis matching, here as everywhere. The
        joins depend on the tensors' keys alone, so unmeasured sites
        stand in for measured ones."""
        line = self._lines[k]
        opened = line[role] if isinstance(role, int) else None
        steps: list[_Step] = []
        acc, keys = _contract_sweep(
            self.lattice,
            _layer_tensors(self.lattice, {}, opened),
            self._close,
            line,
            env[:2],
            steps,
        )
        if right is not None:
            _, keys = _join(self.lattice, acc, keys, *right[:2], steps)
            assert [key[0] for key in keys] == ["ra", "rb"]
            keys = []
        groups = _sweep_groups(self.lattice, line)
        return _Plan.from_steps(groups, steps, self._shifted(keys, -k))

    def _contract_line(self, k: int, role, env: tuple, right=None) -> tuple:
        """(array, keys) of line k contracted onto ``env`` for ``role``:
        "left" or "right" builds the next environment on that side; a line
        position r opens the site there and joins the ``right``
        environment, leaving the (4, 4) tensor and no keys."""
        key = (self._class[k], role)
        plan = _PLANS.get(key)
        if plan is None:
            plan = _PLANS[key] = self._record(k, role, env, right)
        tensors = [self._site(s) for s in self._lines[k]]
        if right is not None:
            tensors[role] = self._layer(self._lines[k][role], opened=True)
            return plan.run(env[0], tensors, right[0]), []
        return plan.run(env[0], tensors), self._shifted(plan.keys, k)

    def _absorb(self, k: int, env: tuple, role: str) -> tuple:
        """``env`` with line k contracted onto it, rescaled."""
        acc, keys = self._contract_line(k, role, env)
        acc, exp = _rescaled(acc, env[2])
        acc.setflags(write=False)  # environments are shared by branches
        return acc, keys, exp

    def _left_env(self, k: int) -> tuple:
        while self._left_end <= k:
            j = self._left_end - 1
            self._left[j + 1] = self._absorb(j, self._left[j], "left")
            self._left_end += 1
        return self._left[k]

    def _right_env(self, k: int) -> tuple:
        while self._right_start > k:
            j = self._right_start
            self._right[j - 1] = self._absorb(j, self._right[j], "right")
            self._right_start -= 1
        return self._right[k]

    def _open_tensor(self, site: Site) -> tuple[np.ndarray, int]:
        """(T, exp) with <psi|E_site|psi> = 2^exp sum E[a,b] T[a,b], the
        site's own operator left out."""
        k, r = self._place[site]
        left, right = self._left_env(k), self._right_env(k)
        t, _ = self._contract_line(k, r, left, right)
        return t, left[2] + right[2]

    # -- the engine interface -------------------------------------------------

    def weight(self) -> float:
        acc, _, exp = self._left_env(len(self._lines))
        return _ldexp(_real(acc), exp)

    def op_weight(self, site: Site, op: np.ndarray) -> float:
        """Weight after ``op`` on ``site``, on top of its operator so far."""
        return self.effect_weights(site, [op])[0]

    def _scaled_weights(self, site: Site, actions) -> tuple[list, int]:
        """(weights, exp): the effect weights are weights[i] * 2^exp. With
        T from ``_open_tensor`` and O the site's accumulated operator,
        action A weighs sum((M^dagger M) * T) for M = A O."""
        t, exp = self._open_tensor(site)
        o = self._ops.get(site)
        povms, effects = _polarizers()
        if o is None and actions is povms:
            products = effects * t  # O = I: one product for all three
        else:
            o = _ID4 if o is None else o
            products = [_effect(_as_op(a) @ o) * t for a in actions]
        return [_real(p.sum()) for p in products], exp

    def relative_weights(
        self, site: Site, actions: list[np.ndarray]
    ) -> list[float]:
        """The effect weights times one common power of two: their ratios
        are exact also on strips whose absolute weights leave float
        range."""
        return self._scaled_weights(site, actions)[0]

    def effect_weights(
        self, site: Site, actions: list[np.ndarray]
    ) -> list[float]:
        """Batched op_weight from one line contraction."""
        weights, exp = self._scaled_weights(site, actions)
        return [_ldexp(w, exp) for w in weights]

    def apply_op(self, site: Site, op: np.ndarray) -> None:
        o = op @ self._ops.get(site, _ID4)
        self._ops[site] = o
        self._closed[site] = self._layer(site, o.conj().T @ o)
        k = self._place[site][0]
        for j in range(k + 1, self._left_end):
            del self._left[j]
        for j in range(self._right_start, k):
            del self._right[j]
        self._left_end = min(self._left_end, k + 1)
        self._right_start = max(self._right_start, k)

    def project(self, site: Site, row: np.ndarray) -> None:
        self.apply_op(site, _as_op(row))

    def branch(self, site: Site, action: np.ndarray) -> "TracedEngine":
        """Non-mutating apply_op; the copy has its own operator, tensor and
        environment dicts and shares their read-only arrays."""
        new = copy.copy(self)
        new._ops, new._closed = dict(self._ops), dict(self._closed)
        new._left, new._right = dict(self._left), dict(self._right)
        new.apply_op(site, _as_op(action))
        return new


# -- probabilities ----------------------------------------------------------


def pattern_probability(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    axes: dict[Site, str],
) -> float:
    """Probability of polarizing each site of ``axes`` along its axis;
    unmeasured sites (and, with ``term=None``, the boundary edge qubits)
    are traced out. The ratio of two layer-engine weights, each held as a
    mantissa and a power of two, so it is formed in float range."""
    for site in axes:
        if not lattice.contains(site):
            raise ValueError(f"pattern site {site} not on lattice")
    engine = TracedEngine(lattice, term)
    n = len(engine._lines)
    den, _, den_exp = engine._left_env(n)
    for site, ax in axes.items():
        engine.apply_op(site, povm_element(ax))
    num, _, num_exp = engine._left_env(n)
    ratio = _ldexp(_real(num) / _real(den), num_exp - den_exp)
    return _clamp_probability(ratio)


def reduced_density(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site: Site,
) -> np.ndarray:
    """Single-site density matrix of the normalized state: the layer
    engine's open tensor at ``site``, normalized by its trace."""
    if not lattice.contains(site):
        raise ValueError(f"site {site} not on lattice")
    t, _ = TracedEngine(lattice, term)._open_tensor(site)
    return t.T / np.trace(t).real


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
    povms, _ = _polarizers()
    steps = []
    for site in lattice.sites():
        weights = engine.relative_weights(site, povms)
        # the POVM is complete, so the weights sum to the state weight
        total = sum(weights)
        if not math.isfinite(total):
            raise ProbabilityConsistencyError(f"state weight {total}")
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

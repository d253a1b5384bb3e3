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

Amplitude layout: one axis of dimension 4 per site, ordered by
``lattice.site_index``; index values 0..3 are the physical basis states
[+3/2, +1/2, -1/2, -3/2] along z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import HexLattice, Leg, Site, ket_role
from .tensors import (
    VirtualVec,
    comp_covector,
    povm_element,
    site_tensor,
    standard_covector,
    virtual_bra,
    virtual_ket,
)

DENSE_SITE_CAP = 12
STRIP_WIDTH_CAP = 4
NEGATIVE_PROB_FLOOR = -1e-9

_ID4 = np.eye(4, dtype=complex)
_TRACED_PAIR = np.eye(2, dtype=complex).reshape(-1)  # identity closure


class LatticeSizeError(ValueError):
    """Requested lattice exceeds the exact-contraction caps."""


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


# -- measurement patterns ---------------------------------------------------


@dataclass(frozen=True)
class Unmeasured:
    pass


@dataclass(frozen=True)
class Polarized:
    axis: str


@dataclass(frozen=True)
class Projected:
    """Projective outcome with covector ``row``; when ``polarized_axis``
    is set the polarizing operator for that axis is applied first."""

    row: tuple[complex, complex, complex, complex]
    polarized_axis: str | None = None


PatternEntry = Unmeasured | Polarized | Projected


@dataclass
class MeasurementPattern:
    entries: dict[Site, PatternEntry] = field(default_factory=dict)

    def validate(self, lattice: HexLattice) -> None:
        for site in self.entries:
            if not lattice.contains(site):
                raise ValueError(f"pattern site {site} not on lattice")


def projected_standard(axis: str, c: int, polarized: bool = True) -> Projected:
    row = standard_covector(axis, c)
    return Projected(tuple(row), axis if polarized else None)


def projected_complementary(
    mu: str, nu: str, theta: float, b: int, polarized: bool = True
) -> Projected:
    row = comp_covector(mu, nu, theta, b)
    return Projected(tuple(row), mu if polarized else None)


def _effect(entry: PatternEntry) -> np.ndarray:
    if isinstance(entry, Unmeasured):
        return _ID4
    if isinstance(entry, Polarized):
        m = povm_element(entry.axis)
        return m.conj().T @ m
    row = np.asarray(entry.row, dtype=complex)
    if entry.polarized_axis is not None:
        row = row @ povm_element(entry.polarized_axis)
    return np.outer(np.conj(row), row)


# -- network sweep ----------------------------------------------------------


def _sweep_order(lattice: HexLattice) -> list[Site]:
    """Site order keeping the open-leg frontier within one line of sites."""
    if lattice.rows <= STRIP_WIDTH_CAP:
        return [(r, c) for c in range(lattice.cols) for r in range(lattice.rows)]
    if lattice.cols <= STRIP_WIDTH_CAP:
        return [(r, c) for r in range(lattice.rows) for c in range(lattice.cols)]
    raise LatticeSizeError(
        f"lattice {lattice.rows}x{lattice.cols}: neither dimension within "
        f"strip cap {STRIP_WIDTH_CAP}"
    )


def _contract_sweep(lattice, tensor_for, close_for):
    """Generic single-pass network contraction.

    ``tensor_for(site)`` returns (tensor, extra_names); the tensor's axes
    are the named extra site-local axes first, then (left, right, vert).
    ``close_for(site, leg)`` returns the vector closing a dangling leg, or
    None to keep it as an open output axis. Returns (array, keys).
    """
    acc = np.ones((), dtype=complex)
    keys: list[tuple] = []
    for site in _sweep_order(lattice):
        t, extra_names = tensor_for(site)
        tkeys = [(name, site) for name in extra_names]
        tkeys += [("v", site, leg) for leg in (Leg.LEFT, Leg.RIGHT, Leg.VERT)]
        for leg in (Leg.LEFT, Leg.RIGHT, Leg.VERT):
            if lattice.neighbor(site, leg) is None:
                vec = close_for(site, leg)
                if vec is None:
                    continue
                pos = tkeys.index(("v", site, leg))
                t = np.tensordot(t, vec, axes=([pos], [0]))
                tkeys.pop(pos)
        acc_pos, t_pos = [], []
        for leg in (Leg.LEFT, Leg.RIGHT, Leg.VERT):
            nb = lattice.neighbor(site, leg)
            if nb is None:
                continue
            nb_key = ("v", nb, lattice.leg_between(nb, site))
            if nb_key in keys:
                acc_pos.append(keys.index(nb_key))
                t_pos.append(tkeys.index(("v", site, leg)))
        acc = np.tensordot(acc, t, axes=(acc_pos, t_pos))
        keys = [k for i, k in enumerate(keys) if i not in set(acc_pos)]
        keys += [k for i, k in enumerate(tkeys) if i not in set(t_pos)]
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
    """Contract the network into a dense state with pinned edges.

    The result is an (unnormalized) ground state for any termination
    choice; it is NOT the state the measurement statistics refer to (see
    the module docstring).
    """
    if lattice.n_sites > DENSE_SITE_CAP:
        raise LatticeSizeError(
            f"{lattice.n_sites} sites exceeds dense cap {DENSE_SITE_CAP}"
        )
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


def _pair_vec(vec: VirtualVec) -> np.ndarray:
    v = vec.vector
    return np.kron(np.conj(v), v)


def _layer_value(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    effects: dict[Site, np.ndarray],
    open_site: Site | None = None,
) -> np.ndarray | float:
    """Contract <psi| prod effects |psi> on the double layer.

    With ``open_site`` set, that site's bra/ket physical indices are left
    open and the (4, 4) result T satisfies <psi|E|psi> = sum E[a,b] T[a,b].
    """

    def close(site, leg):
        if term is None:
            return _TRACED_PAIR
        return _pair_vec(term.vec_for(lattice, site, leg))

    def tensor_for(site):
        if site == open_site:
            a = site_tensor(lattice.kind(site))
            d = np.einsum("aLRV,blrv->abLlRrVv", np.conj(a), a)
            return d.reshape(4, 4, 4, 4, 4), ("ra", "rb")
        return _double_tensor(lattice.kind(site), effects.get(site, _ID4)), ()

    acc, keys = _contract_sweep(lattice, tensor_for, close)
    if open_site is None:
        assert not keys
        val = complex(acc)
        if abs(val.imag) > 1e-9 * max(abs(val.real), 1.0):
            raise ProbabilityConsistencyError(f"non-real value {val}")
        return float(val.real)
    assert [k[0] for k in keys] == ["ra", "rb"]
    return acc


# -- probabilities ----------------------------------------------------------


def _dense_probability(lattice, term, pattern) -> float:
    state = build_state(lattice, term)
    psi = state.tensor()
    work = psi
    for site, entry in pattern.entries.items():
        if isinstance(entry, Unmeasured):
            continue
        ax = lattice.site_index(site)
        work = np.moveaxis(
            np.tensordot(_effect(entry), work, axes=([1], [ax])), 0, ax
        )
    num = float(np.real(np.vdot(psi, work)))
    return _clamp_probability(num / (state.norm**2))


def _layer_probability(lattice, term, pattern) -> float:
    effects = {
        site: _effect(entry)
        for site, entry in pattern.entries.items()
        if not isinstance(entry, Unmeasured)
    }
    num = _layer_value(lattice, term, effects)
    den = _layer_value(lattice, term, {})
    return _clamp_probability(num / den)


def pattern_probability(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    pattern: MeasurementPattern,
) -> float:
    """Probability of the pattern's outcomes; unmeasured sites (and, with
    ``term=None``, the boundary edge qubits) are traced out."""
    pattern.validate(lattice)
    if term is not None and lattice.n_sites <= DENSE_SITE_CAP:
        return _dense_probability(lattice, term, pattern)
    return _layer_probability(lattice, term, pattern)


def reduced_density(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    site: Site,
) -> np.ndarray:
    """Single-site density matrix of the normalized state."""
    if not lattice.contains(site):
        raise ValueError(f"site {site} not on lattice")
    if term is not None and lattice.n_sites <= DENSE_SITE_CAP:
        state = build_state(lattice, term)
        ax = lattice.site_index(site)
        psi = np.moveaxis(state.tensor(), ax, 0).reshape(4, -1)
        rho = psi @ psi.conj().T
    else:
        t = _layer_value(lattice, term, {}, open_site=site)
        rho = t.T.copy()
    rho /= np.trace(rho).real
    return rho


# -- measurement engines ------------------------------------------------------


class DenseEngine:
    """Mutable dense pinned-edge state with shrink-on-project.

    Projecting a site removes its axis, so long measurement sequences get
    cheaper as they go. Protocol enumeration runs on this engine.
    """

    def __init__(
        self,
        lattice: HexLattice,
        term: BoundaryTermination | None = None,
        state: StateVector | None = None,
    ):
        self.lattice = lattice
        if state is None:
            state = build_state(lattice, term)
        self._amps = state.tensor().copy()
        self._sites: list[Site] = sorted(
            lattice.sites(), key=lattice.site_index
        )

    @property
    def live_sites(self) -> tuple[Site, ...]:
        return tuple(self._sites)

    def _axis(self, site: Site) -> int:
        try:
            return self._sites.index(site)
        except ValueError:
            raise KeyError(f"site {site} already projected out") from None

    def copy(self) -> "DenseEngine":
        new = object.__new__(DenseEngine)
        new.lattice = self.lattice
        new._amps = self._amps.copy()
        new._sites = list(self._sites)
        return new

    def weight(self) -> float:
        return float(np.real(np.vdot(self._amps, self._amps)))

    def effect_weight(self, site: Site, effect: np.ndarray) -> float:
        """<psi| E_site |psi> (unnormalized)."""
        return self.effect_weights(site, [effect])[0]

    def effect_weights(
        self, site: Site, effects: list[np.ndarray]
    ) -> list[float]:
        """Batched effect_weight; one axis shuffle for all effects."""
        m = np.moveaxis(self._amps, self._axis(site), 0).reshape(4, -1)
        return [float(np.real(np.vdot(m, e @ m))) for e in effects]

    def expectation(self, ops: dict[Site, np.ndarray]) -> float:
        """Normalized <psi| prod ops |psi> (ops on distinct sites)."""
        work = self._amps
        for site, op in ops.items():
            ax = self._axis(site)
            work = np.moveaxis(
                np.tensordot(op, work, axes=([1], [ax])), 0, ax
            )
        val = np.vdot(self._amps, work) / self.weight()
        return float(np.real(val))

    def apply_op(self, site: Site, op: np.ndarray) -> None:
        ax = self._axis(site)
        self._amps = np.moveaxis(
            np.tensordot(op, self._amps, axes=([1], [ax])), 0, ax
        )

    def project(self, site: Site, row: np.ndarray) -> None:
        """Apply a rank-1 outcome <row| and drop the site axis."""
        ax = self._axis(site)
        self._amps = np.tensordot(
            np.asarray(row, dtype=complex), self._amps, axes=([0], [ax])
        )
        self._sites.pop(ax)

    def branch(self, site: Site, row: np.ndarray) -> "DenseEngine":
        """Non-mutating project; shares no state with self."""
        new = object.__new__(DenseEngine)
        new.lattice = self.lattice
        ax = self._axis(site)
        new._amps = np.tensordot(
            np.asarray(row, dtype=complex), self._amps, axes=([0], [ax])
        )
        new._sites = [s for s in self._sites if s != site]
        return new


class TracedEngine:
    """Sequential-measurement engine on the traced-edge state.

    Keeps one accumulated operator per measured site; every weight is a
    fresh double-layer contraction, so no state vector is ever formed.
    """

    def __init__(self, lattice: HexLattice):
        self.lattice = lattice
        self._ops: dict[Site, np.ndarray] = {}

    def _effects(self, site=None, extra=None) -> dict[Site, np.ndarray]:
        eff = {}
        for s, op in self._ops.items():
            o = op if s != site else extra @ op
            eff[s] = o.conj().T @ o
        if site is not None and site not in self._ops:
            eff[site] = extra.conj().T @ extra
        return eff

    def weight(self) -> float:
        return _layer_value(self.lattice, None, self._effects())

    def op_weight(self, site: Site, op: np.ndarray) -> float:
        return _layer_value(self.lattice, None, self._effects(site, op))

    def apply(self, site: Site, op: np.ndarray) -> None:
        self._ops[site] = op @ self._ops.get(site, _ID4)


# -- chain-rule sampling ------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One measurement in a chain-rule plan.

    kind "polarize" samples an axis; "standard" reads out +-3/2 along
    ``axis``; "complementary" measures the conditioned interior basis with
    ``axis`` (measured), ``partner_axis`` and ``angle``. Projective steps
    assume the site's polarizing step came earlier in the plan.
    """

    site: Site
    kind: str
    axis: str | None = None
    partner_axis: str | None = None
    angle: float = 0.0


@dataclass(frozen=True)
class StepOutcome:
    site: Site
    kind: str
    outcome: str | int
    probability: float


@dataclass
class MeasurementRecord:
    seed: int
    steps: list[StepOutcome] = field(default_factory=list)

    def axis_assignment(self) -> dict[Site, str]:
        return {
            s.site: str(s.outcome)
            for s in self.steps
            if s.kind == "polarize"
        }

    def bit(self, site: Site) -> int:
        for s in self.steps:
            if s.site == site and s.kind != "polarize":
                return int(s.outcome)
        raise KeyError(f"no projective outcome recorded for {site}")


def _step_alternatives(step: PlanStep) -> list[tuple[str | int, np.ndarray]]:
    """(label, single-site operation) choices for one step."""
    from .tensors import AXES

    if step.kind == "polarize":
        return [(ax, povm_element(ax)) for ax in AXES]
    if step.kind == "standard":
        if step.axis is None:
            raise ValueError("standard step needs an axis")
        return [(c, standard_covector(step.axis, c)) for c in (0, 1)]
    if step.kind == "complementary":
        if step.axis is None or step.partner_axis is None:
            raise ValueError("complementary step needs both axes")
        return [
            (b, comp_covector(step.axis, step.partner_axis, step.angle, b))
            for b in (0, 1)
        ]
    raise ValueError(f"unknown step kind {step.kind!r}")


def chain_rule_sample(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    plan: list[PlanStep],
    rng_seed: int,
) -> MeasurementRecord:
    """Sample all plan steps in order from exact nested conditionals.

    ``term=None`` samples the traced-edge statistics; a pinned termination
    samples within that ground state.
    """
    rng = np.random.default_rng(rng_seed)
    pinned = term is not None and lattice.n_sites <= DENSE_SITE_CAP
    if term is not None and not pinned:
        raise LatticeSizeError("pinned sampling needs the dense path")
    engine = DenseEngine(lattice, term) if pinned else TracedEngine(lattice)
    record = MeasurementRecord(seed=rng_seed)
    for step in plan:
        alts = _step_alternatives(step)
        if pinned:
            effects = [
                action @ action
                if step.kind == "polarize"
                else np.outer(np.conj(action), action)
                for _, action in alts
            ]
            weights = engine.effect_weights(step.site, effects)
        else:
            weights = [
                engine.op_weight(
                    step.site,
                    action
                    if step.kind == "polarize"
                    else np.outer(np.conj(action), action),
                )
                for _, action in alts
            ]
        # each alternative set is complete on the current support, so the
        # weights sum to the state weight
        total = sum(weights)
        if total <= 0.0:
            raise ProbabilityConsistencyError("state weight vanished")
        probs = [_clamp_probability(w / total) for w in weights]
        norm = sum(probs)
        if norm <= 0.0:
            raise ProbabilityConsistencyError("no outcome has weight")
        pick = int(rng.choice(len(alts), p=[p / norm for p in probs]))
        label, action = alts[pick]
        if pinned:
            if step.kind == "polarize":
                engine.apply_op(step.site, action)
            else:
                engine.project(step.site, action)
        else:
            op = (
                action
                if step.kind == "polarize"
                else np.outer(np.conj(action), action)
            )
            engine.apply(step.site, op)
        record.steps.append(
            StepOutcome(step.site, step.kind, label, probs[pick])
        )
    return record

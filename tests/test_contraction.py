import math
import tracemalloc

import numpy as np
import pytest

from akltmqc import contraction
from akltmqc.contraction import (
    STRIP_WIDTH_CAP,
    BoundaryTermination,
    DenseEngine,
    LatticeSizeError,
    TracedEngine,
    _as_op,
    build_state,
    chain_rule_sample,
    pattern_probability,
    reduced_density,
)
from akltmqc.lattice import Leg, build_lattice
from akltmqc.oracle import spin_operators, two_point_correlation
from akltmqc.sampler import stage1_sample
from akltmqc.tensors import (
    AXES,
    povm_element,
    standard_covector,
    virtual_bra,
    virtual_ket,
)


@pytest.mark.parametrize("term", [None, BoundaryTermination(axis="z")])
def test_single_site_marginals_normalized(term):
    lat = build_lattice(2, 3)
    for site in lat.sites():
        total = sum(
            pattern_probability(lat, term, {site: a}) for a in AXES
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_empty_pattern_is_certain():
    lat = build_lattice(2, 2)
    p = pattern_probability(lat, None, {})
    assert p == pytest.approx(1.0, abs=1e-12)


def test_off_lattice_pattern_is_rejected():
    with pytest.raises(ValueError):
        pattern_probability(build_lattice(2, 2), None, {(2, 0): "x"})


def test_traced_marginal_is_uniform():
    # the 4x1024 weights leave float range (about 2^2574); the ratio does not
    for lat in (build_lattice(2, 4), build_lattice(4, 1024)):
        for axis in AXES:
            p = pattern_probability(lat, None, {(1, 2): axis})
            assert p == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_is_rejected(bad):
    with pytest.raises(contraction.ProbabilityConsistencyError):
        contraction._clamp_probability(bad)


def test_chain_rule_product_matches_joint():
    # the product of step conditionals must equal the joint pattern weight
    lat = build_lattice(2, 2)
    steps = chain_rule_sample(lat, None, 11)
    prod = 1.0
    for step in steps:
        prod *= step.probability
    joint = pattern_probability(lat, None, {s.site: s.outcome for s in steps})
    assert prod == pytest.approx(joint, abs=1e-12)


def test_reduced_density_properties():
    lat = build_lattice(2, 3)
    rho = reduced_density(lat, BoundaryTermination(axis="z"), (0, 1))
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


def test_reduced_density_traced_maximally_mixed():
    for lat in (build_lattice(2, 3), build_lattice(4, 1024)):
        rho = reduced_density(lat, None, (1, 1))
        np.testing.assert_allclose(rho, np.eye(4) / 4.0, rtol=0, atol=1e-12)


def test_long_strip_correlation_equals_shorter_interior():
    # correlations decay exponentially along the strip (criterion 10), so
    # the middle bond of a 4x1024 strip sees the middle of a 4x64 one
    long = two_point_correlation(
        build_lattice(4, 1024), None, (1, 511), (1, 512), "z"
    )
    short = two_point_correlation(
        build_lattice(4, 64), None, (1, 31), (1, 32), "z"
    )
    assert math.isfinite(long)
    assert long == pytest.approx(short, rel=0, abs=1e-12)


def test_chain_rule_deterministic():
    lat = build_lattice(2, 3)
    r1 = chain_rule_sample(lat, None, 42)
    r2 = chain_rule_sample(lat, None, 42)
    assert [s.outcome for s in r1] == [s.outcome for s in r2]
    r3 = chain_rule_sample(lat, None, 43)
    assert [s.site for s in r3] == [s.site for s in r1] == list(lat.sites())


def test_chain_rule_first_step_matches_marginal():
    lat = build_lattice(2, 3)
    step = chain_rule_sample(lat, None, 7)[0]
    assert step.site == next(iter(lat.sites()))
    direct = pattern_probability(lat, None, {step.site: step.outcome})
    assert step.probability == pytest.approx(direct, abs=1e-10)


def test_pinned_sampling_respects_strip_cap():
    lat = build_lattice(5, 5)
    assert min(lat.rows, lat.cols) > STRIP_WIDTH_CAP
    with pytest.raises(LatticeSizeError):
        chain_rule_sample(lat, BoundaryTermination(axis="z"), 1)


def _refuse_contraction(*args):
    raise AssertionError("contracted a lattice past its site cap")


def test_site_caps_raise_before_contracting(monkeypatch):
    monkeypatch.setattr(contraction, "_contract_sweep", _refuse_contraction)
    lat = build_lattice(5, 5)
    asg = stage1_sample(lat, None, "iid", 0)
    with pytest.raises(LatticeSizeError, match="25 sites exceeds qubit cap"):
        DenseEngine(lat, asg, BoundaryTermination())
    with pytest.raises(LatticeSizeError, match="14 sites exceeds dense cap"):
        build_state(build_lattice(2, 7))


def test_effect_weights_allocate_at_most_one_state():
    lat = build_lattice(3, 6)
    term = BoundaryTermination(axis="x")
    engine = DenseEngine(lat, stage1_sample(lat, term, "exact", 1), term)
    state_bytes = 16 * 2**lat.n_sites
    povms = [povm_element(a) for a in AXES]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        weights = engine.effect_weights((1, 2), povms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= state_bytes
    assert sum(weights) / engine.weight() == pytest.approx(1.0, rel=1e-12)


def test_polarized_sites_keep_their_pair():
    # one qubit per site; an operator acts compressed to the site's pair,
    # where its axis's POVM element is sqrt(2/3) I_2
    lat = build_lattice(2, 4)
    term = BoundaryTermination(axis="x")
    asg = stage1_sample(lat, term, "exact", 1)
    engine = DenseEngine(lat, asg, term)
    assert engine._amps.size == 2**lat.n_sites
    before = engine.weight()
    for site in lat.sites():
        engine.apply_op(site, povm_element(asg[site]))
    assert engine._amps.size == 2**lat.n_sites
    ratio = engine.weight() / before
    assert ratio == pytest.approx((2.0 / 3.0) ** lat.n_sites, rel=1e-12)


def test_termination_override_role_checked():
    lat = build_lattice(2, 2)
    # (0, 1) is Bot-kind, its vertical stem carries a ket index, so a ket
    # override is the wrong dual
    term = BoundaryTermination(
        axis="z", overrides={((0, 1), Leg.VERT): virtual_ket("x", 0)}
    )
    with pytest.raises(ValueError):
        term.vec_for(lat, (0, 1), Leg.VERT)


def _dense_expectation(lat, psi, ops):
    """<psi| prod ops |psi> / <psi|psi> straight from the amplitudes."""
    work = psi
    for site, op in ops.items():
        ax = lat.site_index(site)
        work = np.moveaxis(np.tensordot(op, work, axes=([1], [ax])), 0, ax)
    return float(np.real(np.vdot(psi, work) / np.vdot(psi, psi)))


@pytest.mark.parametrize("axis", AXES)
def test_pinned_layer_matches_dense_reference(axis):
    # pinned probabilities, densities and correlations against the dense
    # pinned state, computed here from the amplitudes of build_state
    lat = build_lattice(2, 3)
    term = BoundaryTermination(axis=axis)
    psi = build_state(lat, term).tensor()
    sites = list(lat.sites())

    def effect(a):
        m = povm_element(a)
        return m.conj().T @ m

    patterns = [{s: a} for s in sites for a in AXES]
    patterns += [
        {b.a: a, b.b: c} for b in lat.bonds() for a in AXES for c in AXES
    ]
    patterns.append({s: AXES[i % 3] for i, s in enumerate(sites)})
    for pat in patterns:
        got = pattern_probability(lat, term, pat)
        effects = {s: effect(a) for s, a in pat.items()}
        want = _dense_expectation(lat, psi, effects)
        assert got == pytest.approx(want, abs=1e-12)

    for site in sites:
        m = np.moveaxis(psi, lat.site_index(site), 0).reshape(4, -1)
        want = m @ m.conj().T
        want /= np.trace(want).real
        np.testing.assert_allclose(
            reduced_density(lat, term, site), want, rtol=0, atol=1e-12
        )

    spins = dict(zip(AXES, spin_operators()))
    for a in AXES:
        s = spins[a]
        for i, j in [((0, 0), (0, 0)), ((0, 1), (0, 2)), ((0, 0), (1, 2))]:
            if i == j:
                mean = _dense_expectation(lat, psi, {i: s})
                want = _dense_expectation(lat, psi, {i: s @ s}) - mean**2
            else:
                want = _dense_expectation(lat, psi, {i: s, j: s}) - (
                    _dense_expectation(lat, psi, {i: s})
                    * _dense_expectation(lat, psi, {j: s})
                )
            got = two_point_correlation(lat, term, i, j, a)
            assert got == pytest.approx(want, abs=1e-12)


# -- the layer engine against the one-shot contraction ------------------------


def _layer_value(lattice, term, effects, open_site=None):
    """Contract <psi| prod effects |psi> on the double layer, in one pass
    of the generic sweep, without environments or rescaling.

    With ``open_site`` set, that site's bra/ket physical indices are left
    open and the (4, 4) result T satisfies <psi|E|psi> = sum E[a,b] T[a,b].
    """
    acc, keys = contraction._contract_sweep(
        lattice,
        contraction._layer_tensors(lattice, effects, open_site),
        contraction._layer_closure(lattice, term),
    )
    if open_site is None:
        assert not keys
        return contraction._real(acc)
    assert [k[0] for k in keys] == ["ra", "rb"]
    return acc


@pytest.mark.parametrize("rows,cols", [(2, 6), (3, 4)])
def test_traced_statistics_match_one_shot_contraction(rows, cols):
    # probabilities, densities and correlations read the layer engine;
    # the one-shot sweep is their reference on patches it can contract
    lat = build_lattice(rows, cols)
    z = _layer_value(lat, None, {})
    sites = list(lat.sites())

    def effect(a):
        m = povm_element(a)
        return m.conj().T @ m

    patterns = [{s: a} for s in sites for a in AXES]
    patterns += [{b.a: a, b.b: a} for b in lat.bonds() for a in AXES]
    patterns.append({s: AXES[i % 3] for i, s in enumerate(sites)})
    for pat in patterns:
        want = _layer_value(lat, None, {s: effect(a) for s, a in pat.items()})
        assert pattern_probability(lat, None, pat) == pytest.approx(
            want / z, rel=0, abs=1e-12
        )

    for site in sites:
        want = _layer_value(lat, None, {}, open_site=site).T
        want = want / np.trace(want).real
        np.testing.assert_allclose(
            reduced_density(lat, None, site), want, rtol=0, atol=1e-12
        )

    def mean(ops):
        return _layer_value(lat, None, ops) / z

    spins = dict(zip(AXES, spin_operators()))
    pairs = [(sites[1], sites[1]), (sites[1], sites[2]), (sites[0], sites[-1])]
    for a, s in spins.items():
        for i, j in pairs:
            if i == j:
                want = mean({i: s @ s}) - mean({i: s}) ** 2
            else:
                want = mean({i: s, j: s}) - mean({i: s}) * mean({j: s})
            got = two_point_correlation(lat, None, i, j, a)
            assert got == pytest.approx(want, rel=0, abs=1e-12)


class _LayerReference:
    """The layer engine without environments: every weight is a fresh
    one-shot ``_layer_value`` of the whole double layer."""

    def __init__(self, lattice, term=None):
        self.lattice, self.term = lattice, term
        self.ops = {}

    def _value(self, ops):
        effects = {s: o.conj().T @ o for s, o in ops.items()}
        return _layer_value(self.lattice, self.term, effects)

    def weight(self):
        return self._value(self.ops)

    def effect_weights(self, site, actions):
        out = []
        for a in actions:
            ops = dict(self.ops)
            ops[site] = _as_op(a) @ ops.get(site, np.eye(4))
            out.append(self._value(ops))
        return out

    relative_weights = effect_weights

    def apply_op(self, site, op):
        self.ops[site] = op @ self.ops.get(site, np.eye(4))

    def project(self, site, row):
        self.apply_op(site, _as_op(row))

    def branch(self, site, action):
        new = _LayerReference(self.lattice, self.term)
        new.ops = dict(self.ops)
        new.apply_op(site, _as_op(action))
        return new


def _random_action(rng):
    """A generic Kraus operator or projective row; neither zeroes a state."""
    shape = (4, 4) if rng.random() < 0.6 else (4,)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_weights(engine, reference, site, actions):
    scale = reference.weight()
    got = engine.effect_weights(site, actions)
    want = reference.effect_weights(site, actions)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


LAYER_CASES = [
    (rows, cols, term)
    for rows, cols in ((3, 6), (7, 3))
    for term in (None, BoundaryTermination(axis="x"), BoundaryTermination())
]


def _case_id(value):
    if isinstance(value, BoundaryTermination):
        return f"pinned-{value.axis}"
    return "traced" if value is None else str(value)


@pytest.mark.parametrize("rows,cols,term", LAYER_CASES, ids=_case_id)
def test_cached_engine_matches_one_shot_contraction(rows, cols, term):
    # operators land at random sites in random order, not sweep order, so
    # every step invalidates environments on both sides of some line
    lat = build_lattice(rows, cols)
    rng = np.random.default_rng(rows * cols)
    engine, reference = TracedEngine(lat, term), _LayerReference(lat, term)
    sites = list(lat.sites())
    povms = [povm_element(a) for a in AXES]
    for _ in range(12):
        site = sites[rng.integers(len(sites))]
        action = _random_action(rng)
        for eng in (engine, reference):
            if np.ndim(action) == 1:
                eng.project(site, action)
            else:
                eng.apply_op(site, action)
        assert engine.weight() == pytest.approx(reference.weight(), rel=1e-12)
        other = sites[rng.integers(len(sites))]
        for s in (site, other):
            _assert_weights(
                engine, reference, s, povms + [_random_action(rng)]
            )


@pytest.mark.parametrize(
    "term", [None, BoundaryTermination(axis="x")], ids=_case_id
)
def test_branch_leaves_parent_unchanged(term):
    lat = build_lattice(3, 5)
    rng = np.random.default_rng(5)
    engine, reference = TracedEngine(lat, term), _LayerReference(lat, term)
    for site in [(1, 2), (0, 4), (2, 0)]:
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        engine.apply_op(site, op)
        reference.apply_op(site, op)
    probes = [(0, 0), (1, 2), (2, 4)]
    povms = [povm_element(a) for a in AXES]
    before = [engine.effect_weights(s, povms) for s in probes]
    left, right = dict(engine._left), dict(engine._right)
    closed = dict(engine._closed)
    assert len(left) > 1 and len(right) > 1

    row = standard_covector("x", 1)
    child = engine.branch((1, 3), row)
    child_ref = reference.branch((1, 3), row)
    for s in probes:
        _assert_weights(child, child_ref, s, povms)

    assert engine._left.keys() == left.keys()
    assert engine._right.keys() == right.keys()
    assert all(engine._left[k] is v for k, v in left.items())
    assert all(engine._right[k] is v for k, v in right.items())
    # the child replaced its own copy of the site tensor, not the parent's
    assert engine._closed.keys() == closed.keys()
    assert all(engine._closed[k] is v for k, v in closed.items())
    assert child._closed[(1, 3)] is not closed[(1, 3)]
    assert [engine.effect_weights(s, povms) for s in probes] == before
    for s in probes:
        _assert_weights(engine, reference, s, povms)


@pytest.mark.parametrize(
    "rows,cols,term",
    [(3, 5, None), (5, 3, BoundaryTermination(axis="x")), (2, 4, None)],
    ids=_case_id,
)
def test_chain_rule_matches_per_weight_reference(rows, cols, term, monkeypatch):
    # the chain rule on the layer engine and on the per-weight reference
    lat = build_lattice(rows, cols)
    got = chain_rule_sample(lat, term, 3)
    with monkeypatch.context() as m:
        m.setattr(contraction, "TracedEngine", _LayerReference)
        want = chain_rule_sample(lat, term, 3)
    assert [(s.site, s.kind, s.outcome) for s in got] == [
        (s.site, s.kind, s.outcome) for s in want
    ]
    np.testing.assert_allclose(
        [s.probability for s in got],
        [s.probability for s in want],
        rtol=1e-12,
    )


def test_qubit_build_stays_within_final_state(monkeypatch):
    # vertical pairs meet the accumulator as one tensor, so no
    # intermediate of the 4x5 build outgrows the 2^20-amplitude state
    lat = build_lattice(4, 5)
    term = BoundaryTermination(axis="x")
    sizes = []
    inner = contraction._sliced_tensordot

    def recorded(acc, t, acc_pos, t_pos):
        out = inner(acc, t, acc_pos, t_pos)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(contraction, "_sliced_tensordot", recorded)
    engine = DenseEngine(lat, stage1_sample(lat, term, "iid", 0), term)
    assert engine._amps.size == 2**20
    assert max(sizes) <= 2**20


def test_qubit_build_peaks_near_two_states():
    # the last joins hold their input and output state; the transposed
    # copy the product needs is one block of about _BLOCK amplitudes
    lat = build_lattice(4, 5)
    term = BoundaryTermination(axis="x")
    asg = stage1_sample(lat, term, "iid", 0)
    state_bytes = 16 * 2**lat.n_sites
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        DenseEngine(lat, asg, term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2.5 * state_bytes


# -- recorded line plans, cached site tensors, rescaled environments ---------


def _generic_line(lat, term, effects, k, role, env, right=None):
    """Line k of the layer engine by the generic sweep: ``_join``'s own
    axis matching and tensordot, on freshly built site tensors."""
    line = contraction._sweep_lines(lat)[k]
    opened = line[role] if isinstance(role, int) else None
    acc, keys = contraction._contract_sweep(
        lat,
        contraction._layer_tensors(lat, effects, opened),
        contraction._layer_closure(lat, term),
        line,
        env[:2],
    )
    if right is not None:
        acc, keys = contraction._join(lat, acc, keys, *right[:2])
    return acc, keys


def _lines_and_roles(engine):
    """(k, role, env, right) for every line and role of the engine."""
    for k, line in enumerate(contraction._sweep_lines(engine.lattice)):
        left, right = engine._left_env(k), engine._right_env(k)
        yield k, "left", left, None
        yield k, "right", right, None
        for r in range(len(line)):
            yield k, r, left, right


PLAN_CASES = [
    (4, 12, None),
    (3, 10, None),
    (12, 4, BoundaryTermination(axis="x")),
    (2, 6, BoundaryTermination(axis="x")),
]


@pytest.mark.parametrize("rows,cols,term", PLAN_CASES, ids=_case_id)
def test_replayed_plans_equal_generic_sweep(rows, cols, term, monkeypatch):
    # plans are recorded on a strip three times as long, so every line of
    # this one replays a plan recorded elsewhere: the line class, not the
    # site coordinates, fixes every join
    monkeypatch.setattr(contraction, "_PLANS", {})
    by_column = rows <= STRIP_WIDTH_CAP
    longer = TracedEngine(
        build_lattice(*((rows, 3 * cols) if by_column else (3 * rows, cols))),
        term,
    )
    for k, role, env, right in _lines_and_roles(longer):
        longer._contract_line(k, role, env, right)
    recorded = len(contraction._PLANS)

    lat = build_lattice(rows, cols)
    engine = TracedEngine(lat, term)
    rng = np.random.default_rng(rows + cols)
    sites = list(lat.sites())
    ops = {}
    for _ in range(6):
        site = sites[rng.integers(len(sites))]
        op = _as_op(_random_action(rng))
        engine.apply_op(site, op)
        ops[site] = op @ ops.get(site, np.eye(4))
    effects = {s: o.conj().T @ o for s, o in ops.items()}

    for k, role, env, right in _lines_and_roles(engine):
        got, got_keys = engine._contract_line(k, role, env, right)
        want, keys = _generic_line(lat, term, effects, k, role, env, right)
        assert np.array_equal(got, want)
        if right is None:
            assert got_keys == keys
        else:
            assert [key[0] for key in keys] == ["ra", "rb"]
    assert len(contraction._PLANS) == recorded


def test_plan_count_does_not_grow_with_strip_length(monkeypatch):
    monkeypatch.setattr(contraction, "_PLANS", {})
    chain_rule_sample(build_lattice(4, 16), None, 1)
    count = len(contraction._PLANS)
    # three roles at least (left, right, an open site) per line class
    assert count >= 3
    chain_rule_sample(build_lattice(4, 64), None, 1)
    assert len(contraction._PLANS) == count
    monkeypatch.setattr(contraction, "_PLANS", {})
    chain_rule_sample(build_lattice(4, 64), None, 1)
    assert len(contraction._PLANS) == count


def test_apply_op_replaces_only_its_site_tensor():
    lat = build_lattice(3, 5)
    term = BoundaryTermination(axis="x")
    engine = TracedEngine(lat, term)
    povms = [povm_element(a) for a in AXES]
    engine.effect_weights((0, 0), povms)  # fills every site's tensor
    before = dict(engine._closed)
    assert before.keys() == set(lat.sites())

    site, op = (1, 2), povm_element("y")
    engine.apply_op(site, op)
    effect = op.conj().T @ op
    want, _ = contraction._closed_tensor(
        lat,
        site,
        contraction._layer_tensors(lat, {site: effect}),
        contraction._layer_closure(lat, term),
    )
    assert np.array_equal(engine._closed[site], want)
    assert all(
        engine._closed[s] is t for s, t in before.items() if s != site
    )
    # the weights read the new tensor
    reference = _LayerReference(lat, term)
    reference.apply_op(site, op)
    _assert_weights(engine, reference, (1, 3), povms)
    assert engine.weight() == pytest.approx(reference.weight(), rel=1e-12)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty site-tensor and operand memos for one test, swapped together:
    an operand key names its tensors by id."""
    monkeypatch.setattr(contraction, "_SITE_TENSORS", {})
    monkeypatch.setattr(contraction, "_OPERANDS", {})


@pytest.mark.parametrize("pinned", [(0, 5), (0, 3)])
def test_single_leg_override_gets_its_own_site_tensors(
    pinned, fresh_memos, monkeypatch
):
    # criterion 6's rot fixture pins the dangling stem of (0, 5) along x
    # and every other leg along z; (0, 3) has the kind and dangling legs
    # of (0, 1). The default termination fills the memos first, so a memo
    # keyed by kind or dangling legs alone hands over pinned-z tensors.
    lat = build_lattice(2, 6)
    chain_rule_sample(lat, BoundaryTermination(), 3)
    term = BoundaryTermination(
        overrides={(pinned, Leg.VERT): virtual_bra("x", 0)}
    )
    engine, reference = TracedEngine(lat, term), _LayerReference(lat, term)
    povms = [povm_element(a) for a in AXES]
    for site in lat.sites():
        _assert_weights(engine, reference, site, povms)
        for eng in (engine, reference):
            eng.apply_op(site, povms[sum(site) % 3])
    assert engine.weight() == pytest.approx(reference.weight(), rel=1e-12)

    got = chain_rule_sample(lat, term, 3)
    with monkeypatch.context() as m:
        m.setattr(contraction, "TracedEngine", _LayerReference)
        want = chain_rule_sample(lat, term, 3)
    assert [s.outcome for s in got] == [s.outcome for s in want]
    np.testing.assert_allclose(
        [s.probability for s in got],
        [s.probability for s in want],
        rtol=1e-12,
    )


def _periodic_walk(lattice):
    """Stage 1's steps with each axis fixed by the site's diagonal: weigh
    the three polarizations, then apply one."""
    engine = TracedEngine(lattice)
    povms, _ = contraction._polarizers()
    for r, c in lattice.sites():
        engine.relative_weights((r, c), povms)
        engine.apply_op((r, c), povms[(r + c) % 3])


def test_memos_do_not_grow_with_strip_length(fresh_memos):
    def sizes():
        return len(contraction._SITE_TENSORS), len(contraction._OPERANDS)

    # 32 and 320 columns leave the same axis pattern at both ends, so the
    # longer strip meets no (site class, effect) the shorter one has not
    _periodic_walk(build_lattice(4, 32))
    short = sizes()
    _periodic_walk(build_lattice(4, 320))
    assert sizes() == short

    # a sampled strip meets each edge class at a few sites, so which axes
    # land there depends on the draws; each class has at most five tensors
    # (unmeasured, bra/ket open, three axes)
    for cols in (32, 320):
        chain_rule_sample(build_lattice(4, cols), None, 3)
        engine = TracedEngine(build_lattice(4, cols))
        classes = set(engine._site_class.values())
        assert len(classes) == 10
        assert len(contraction._SITE_TENSORS) <= 5 * len(classes)


def test_memoized_weights_equal_fresh_ones(fresh_memos):
    # the first sample builds every tensor and operand, the second reads
    # them all back: the same draws and the same probabilities, bit for bit
    lat = build_lattice(4, 8)
    for term in (None, BoundaryTermination(axis="x")):
        first = chain_rule_sample(lat, term, 5)
        assert chain_rule_sample(lat, term, 5) == first


def test_pinned_closure_vectors_are_cached_and_read_only(monkeypatch):
    lat = build_lattice(2, 3)
    close = contraction._layer_closure(lat, BoundaryTermination(axis="x"))
    first = close((0, 0), Leg.LEFT)
    assert close((1, 0), Leg.LEFT) is first  # the same pinned vector
    assert not first.flags.writeable
    v = virtual_ket("x", 0).vector
    assert np.array_equal(first, np.kron(np.conj(v), v))
    # a closed site tensor rebuilt by apply_op builds no new closure vector
    engine = TracedEngine(lat, BoundaryTermination(axis="x"))
    engine.effect_weights((0, 0), [povm_element(a) for a in AXES])
    calls = []
    monkeypatch.setattr(
        contraction.np, "kron", lambda *a: calls.append(a) or np.kron(*a)
    )
    engine.apply_op((0, 1), povm_element("z"))
    assert calls == []


def test_rescaled_environment_is_exact():
    rng = np.random.default_rng(2)
    acc = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    for scale in (2.0**-900, 1.0, 3.0**500):
        scaled, exp = contraction._rescaled(acc * scale, 7)
        assert 0.5 <= np.abs(scaled).max() < 1.0
        assert np.array_equal(scaled * 2.0 ** (exp - 7), acc * scale)
    zero, exp = contraction._rescaled(np.zeros(3, dtype=complex), 4)
    assert exp == 4 and not zero.any()


def test_relative_weights_scale_to_effect_weights():
    lat = build_lattice(4, 12)
    engine = TracedEngine(lat)
    povms = [povm_element(a) for a in AXES]
    polarizers, _ = contraction._polarizers()
    for site in [(0, 0), (2, 5), (3, 11)]:
        rel = engine.relative_weights(site, povms)
        # stage 1's three polarizations, weighed in one product, bit for bit
        assert engine.relative_weights(site, polarizers) == rel
        absolute = engine.effect_weights(site, povms)
        ratio = absolute[0] / rel[0]
        assert math.frexp(ratio)[0] == 0.5  # a power of two
        assert absolute == [w * ratio for w in rel]
        engine.apply_op(site, povms[0])


@pytest.mark.parametrize(
    "term", [None, BoundaryTermination(axis="x")], ids=_case_id
)
def test_long_strip_samples_without_leaving_float_range(term):
    # without rescaled environments the weights underflow: 4x320 raised
    # "state weight vanished" on both closures
    lat = build_lattice(4, 320)
    steps = chain_rule_sample(lat, term, 3)
    assert [s.site for s in steps] == list(lat.sites())
    assert all(s.outcome in AXES for s in steps)
    assert all(0.0 < s.probability <= 1.0 for s in steps)


def test_weight_beyond_float_range_is_infinite():
    # the unmeasured 4x1024 weight is about 2^2574: the environments hold
    # it as a mantissa and an exponent, and weight() saturates to inf
    engine = TracedEngine(build_lattice(4, 1024))
    assert engine.weight() == math.inf
    assert math.isfinite(TracedEngine(build_lattice(4, 200)).weight())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_raise_before_drawing(bad, monkeypatch):
    class _Broken:
        def __init__(self, lattice, term):
            pass

        def relative_weights(self, site, actions):
            return [bad, 1.0, 1.0]

    monkeypatch.setattr(contraction, "TracedEngine", _Broken)
    with pytest.raises(contraction.ProbabilityConsistencyError):
        chain_rule_sample(build_lattice(2, 2), None, 0)

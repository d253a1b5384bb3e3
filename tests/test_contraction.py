import tracemalloc

import numpy as np
import pytest

from akltmqc.contraction import (
    STRIP_WIDTH_CAP,
    BoundaryTermination,
    DenseEngine,
    LatticeSizeError,
    MeasurementPattern,
    PlanStep,
    Polarized,
    build_state,
    chain_rule_sample,
    pattern_probability,
    reduced_density,
)
from akltmqc.lattice import Leg, build_lattice
from akltmqc.oracle import spin_operators, two_point_correlation
from akltmqc.sampler import stage1_sample
from akltmqc.tensors import AXES, povm_element, virtual_ket


@pytest.mark.parametrize("term", [None, BoundaryTermination(axis="z")])
def test_single_site_marginals_normalized(term):
    lat = build_lattice(2, 3)
    for site in lat.sites():
        total = sum(
            pattern_probability(
                lat, term, MeasurementPattern({site: Polarized(a)})
            )
            for a in AXES
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_empty_pattern_is_certain():
    lat = build_lattice(2, 2)
    p = pattern_probability(lat, None, MeasurementPattern({}))
    assert p == pytest.approx(1.0, abs=1e-12)


def test_traced_marginal_is_uniform():
    lat = build_lattice(2, 4)
    for axis in AXES:
        p = pattern_probability(
            lat, None, MeasurementPattern({(1, 2): Polarized(axis)})
        )
        assert p == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_chain_rule_product_matches_joint():
    # the product of step conditionals must equal the joint pattern weight
    lat = build_lattice(2, 2)
    plan = [PlanStep(s, "polarize") for s in lat.sites()]
    rec = chain_rule_sample(lat, None, plan, 11)
    prod = 1.0
    for step in rec.steps:
        prod *= step.probability
    joint = pattern_probability(
        lat,
        None,
        MeasurementPattern(
            {s.site: Polarized(str(s.outcome)) for s in rec.steps}
        ),
    )
    assert prod == pytest.approx(joint, abs=1e-12)


def test_reduced_density_properties():
    lat = build_lattice(2, 3)
    rho = reduced_density(lat, BoundaryTermination(axis="z"), (0, 1))
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


def test_reduced_density_traced_maximally_mixed():
    lat = build_lattice(2, 3)
    rho = reduced_density(lat, None, (1, 1))
    np.testing.assert_allclose(rho, np.eye(4) / 4.0, atol=1e-10)


def test_chain_rule_deterministic():
    lat = build_lattice(2, 3)
    plan = [PlanStep(s, "polarize") for s in lat.sites()]
    r1 = chain_rule_sample(lat, None, plan, 42)
    r2 = chain_rule_sample(lat, None, plan, 42)
    assert [s.outcome for s in r1.steps] == [s.outcome for s in r2.steps]
    r3 = chain_rule_sample(lat, None, plan, 43)
    assert [s.site for s in r3.steps] == [s.site for s in r1.steps]


def test_chain_rule_first_step_matches_marginal():
    lat = build_lattice(2, 3)
    first = next(iter(lat.sites()))
    plan = [PlanStep(first, "polarize")]
    rec = chain_rule_sample(lat, None, plan, 7)
    step = rec.steps[0]
    direct = pattern_probability(
        lat, None, MeasurementPattern({first: Polarized(str(step.outcome))})
    )
    assert step.probability == pytest.approx(direct, abs=1e-10)


def test_pinned_sampling_respects_strip_cap():
    lat = build_lattice(5, 5)
    assert min(lat.rows, lat.cols) > STRIP_WIDTH_CAP
    plan = [PlanStep(s, "polarize") for s in lat.sites()]
    with pytest.raises(LatticeSizeError):
        chain_rule_sample(lat, BoundaryTermination(axis="z"), plan, 1)


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
        entries = {s: Polarized(a) for s, a in pat.items()}
        got = pattern_probability(lat, term, MeasurementPattern(entries))
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

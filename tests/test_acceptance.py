"""End-to-end acceptance gate: every release criterion, one line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``akltmqc verify
--level full``) to see the pass/fail line per criterion.
"""

import pytest

from akltmqc.cli import ACCEPTANCE_CHECKS

_BY_ID = {criterion: (name, fn) for criterion, name, fn in ACCEPTANCE_CHECKS}


def _run(criterion):
    name, fn = _BY_ID[criterion]
    result = fn()
    flag = "PASS" if result["passed"] else "FAIL"
    line = f"{flag} {criterion:2d} {name}: {result['detail']}"
    print(line)
    assert result["passed"], line
    return result


def test_criterion_01_measurement_completeness():
    _run(1)


def test_criterion_02_single_site_density():
    _run(2)


def test_criterion_03_widget_identities():
    _run(3)


def test_criterion_04_junction_assembly():
    _run(4)


def test_criterion_05_cluster_renormalization():
    _run(5)


def test_criterion_06_end_to_end_decoupling():
    _run(6)


def test_criterion_07_stage1_statistics():
    _run(7)


def test_criterion_08_percolation_transition():
    # the detail of commit 4514503, before the spanning trials took row runs
    assert _run(8)["detail"] == (
        "spanning at p=2/3: 12x24 0.5575 -> 24x48 0.6150 (3.7 sigma); "
        "crossing 0.6551"
    )


def test_criterion_09_parent_hamiltonian():
    _run(9)


def test_criterion_10_correlation_decay():
    _run(10)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))

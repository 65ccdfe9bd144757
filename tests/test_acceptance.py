"""Acceptance gate: runs the full closed-form verification suite once at its
production settings (512 samples, seed 1, at most 100 descent rounds per
start) and asserts every check, grouped by criterion.  One PASS/FAIL line is
printed per check; run with `pytest -s tests/test_acceptance.py` to see them
live.
"""
import pytest

from nccorr import SearchConfig, verify


@pytest.fixture(scope="session")
def all_checks():
    checks = verify.run_all(SearchConfig(n_samples=512, seed=1, refine_steps=100))
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return checks


def _assert_criterion(checks, n):
    mine = [c for c in checks if c.name.startswith(f"criterion-{n} ")]
    assert mine, f"no checks found for criterion {n}"
    failed = [f"{c.name}: {c.detail}" for c in mine if not c.passed]
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("criterion", range(1, 10))
def test_criterion(all_checks, criterion):
    _assert_criterion(all_checks, criterion)


def test_no_unexpected_checks(all_checks):
    names = {c.name.split()[0] for c in all_checks}
    assert names <= {f"criterion-{n}" for n in range(1, 10)}

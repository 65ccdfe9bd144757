"""Acceptance gate: runs the full closed-form verification suite once at its
production settings (512 samples, seed 1, at most 100 descent rounds per
start) and asserts every check, grouped by criterion.  One PASS/FAIL line is
printed per check; run with `pytest -s tests/test_acceptance.py` to see them
live.
"""
import pytest

from nccorr import SearchConfig, verify

# every check `nccorr verify` runs, in the order it prints them
CHECK_NAMES = [
    "criterion-1 ps sweep D vs closed form",
    "criterion-1 ps sweep G vs closed form",
    "criterion-1 ps sweep DG vs closed form",
    "criterion-1 ps sweep K vs closed form",
    "criterion-1 ps sweep N vs closed form",
    "criterion-1 spot values at p=0 and p=1",
    "criterion-1 runtime",
    "criterion-2 sigma sweep G vs closed form",
    "criterion-2 sigma sweep DG vs closed form",
    "criterion-2 sigma sweep K vs closed form",
    "criterion-2 sigma sweep N vs closed form",
    "criterion-2 sigma D bounded by D_G",
    "criterion-2 sigma N nonzero exactly for p > 1/4",
    "criterion-3 horodecki K and N vanish (PPT)",
    "criterion-3 horodecki states pass validation",
    "criterion-3 horodecki b=0 product limit",
    "criterion-3 horodecki nonnegativity and D <= D_G",
    "criterion-4 all measures vanish on classical states",
    "criterion-5 local-unitary invariance of G, K, N",
    "criterion-5 local-unitary invariance of D_G",
    "criterion-6 D_G additivity on product states",
    "criterion-6 G subadditivity on ps x sigma grid",
    "criterion-7 G matches brute-force enumerator exactly",
    "criterion-8 repeated sweep is byte-identical",
    "criterion-8 sweep invariant under internal batching",
    "criterion-9 D of Bell-diagonal states in random local frames",
]


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
    assert [c.name for c in all_checks] == CHECK_NAMES

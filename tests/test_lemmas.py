"""The structural property suites themselves: they run, count what they
checked, and are reproducible.  Heavier acceptance-scale runs live in
test_acceptance.py."""

import pytest

from cd3csp import SUITES, SuiteReport, run_suite

# trial counts kept small here; each suite still has to do real work
QUICK = {
    "ideal": 15,
    "distance": 20,
    "connected-simple": 4,
    "almost-trivial": 4,
    "gamma-j": 8,
    "rj": 4,
    "pullback": 3,
}


class TestRegistry:
    def test_all_suites_registered(self):
        assert set(SUITES) == set(QUICK)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")


@pytest.mark.parametrize("name", sorted(QUICK))
def test_suite_runs_and_counts(name):
    report = run_suite(name, trials=QUICK[name], seed=0)
    assert isinstance(report, SuiteReport)
    assert report.name == name
    assert report.cases >= QUICK[name]
    assert report.checks >= report.cases
    line = report.line()
    assert line.startswith(f"{name}: ")
    assert f"{report.cases} cases" in line


# the report of every suite at QUICK trials and seed 0: a change to the
# harness that drops or reorders a draw shows here
PINNED = {
    "almost-trivial": "almost-trivial: 25 cases, 78 checks (4 wide subpowers)",
    "connected-simple": (
        "connected-simple: 13 cases, 13 checks "
        "(pool=3 from 5 seeds, kinds={'full': 9, 'hom_graph': 4})"
    ),
    "distance": "distance: 20 cases, 409 checks (20 candidates drawn)",
    "gamma-j": "gamma-j: 8 cases, 975 checks (15 candidates drawn)",
    "ideal": "ideal: 15 cases, 37 checks",
    "pullback": "pullback: 3 cases, 124 checks (5 candidates drawn)",
    "rj": "rj: 4 cases, 32 checks (28 candidates drawn)",
}


@pytest.mark.parametrize("name", sorted(QUICK))
def test_quick_report_is_pinned(name):
    assert run_suite(name, trials=QUICK[name], seed=0).line() == PINNED[name]


@pytest.mark.parametrize("name", ["ideal", "distance", "gamma-j"])
def test_suite_deterministic(name):
    a = run_suite(name, trials=QUICK[name], seed=7)
    b = run_suite(name, trials=QUICK[name], seed=7)
    assert a == b


def test_seed_changes_the_work():
    a = run_suite("distance", trials=25, seed=1)
    b = run_suite("distance", trials=25, seed=2)
    # same shape of report, different sampled cases
    assert a.cases == b.cases
    assert a.checks != b.checks


def test_default_trials_used_when_omitted():
    report = run_suite("ideal", seed=3)
    assert report.cases >= 100

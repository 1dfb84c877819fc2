"""Self-test of the benchmark's output checker.

    python3 -m pytest perfbench/tests -q

Each kind of wrong output must count as a failed op.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from checker import Expect, Outcome, check  # noqa: E402

from ballmoduli import BallConstructionError, Bracket  # noqa: E402


def bracket(lower, upper):
    # a plain object: Bracket itself refuses to be built inverted
    return SimpleNamespace(lower=lower, upper=upper, method="grid-certified")


def test_good_bracket_passes_with_width_and_method():
    v = check(Expect(value=0.125), Outcome(result=Bracket(0.12, 0.13, lipschitz=1.0)))
    assert v.ok and abs(v.width - 0.01) < 1e-15 and v.method == "grid-certified"


def test_inverted_bracket_fails():
    assert not check(Expect(), Outcome(result=bracket(0.3, 0.2))).ok


def test_bracket_excluding_exact_value_fails():
    assert not check(Expect(value=0.25), Outcome(result=bracket(0.0, 0.2))).ok


def test_bracket_missing_admissible_range_fails():
    assert not check(Expect(lo=0.0, hi=0.1), Outcome(result=bracket(0.2, 0.3))).ok


def test_zero_bracket_for_positive_value_fails():
    assert not check(Expect(positive=True), Outcome(result=bracket(0.0, 0.0))).ok


def test_curve_is_checked_value_by_value():
    curve = SimpleNamespace(values=(bracket(0.0, 0.1), bracket(0.3, 0.2)))
    assert not check(Expect(), Outcome(result=curve)).ok


def test_wrong_failure_condition_fails():
    err = BallConstructionError("containment")
    assert not check(Expect(raises="no-small-slice-witness"), Outcome(error=err)).ok


def test_expected_failure_that_does_not_raise_fails():
    assert not check(Expect(raises="no-small-slice-witness"),
                     Outcome(result=bracket(0.0, 1.0))).ok


def test_named_failure_passes():
    err = BallConstructionError("no-small-slice-witness")
    v = check(Expect(raises="no-small-slice-witness"), Outcome(error=err))
    assert v.ok and v.method == "raises:no-small-slice-witness"


def test_unexpected_exception_fails():
    assert not check(Expect(value=0.0), Outcome(error=ValueError("boom"))).ok


def test_report_with_failed_check_or_wrong_flag_fails():
    assert not check(Expect(report=True), Outcome(result=SimpleNamespace(n_fail=1))).ok
    report = SimpleNamespace(n_fail=0, flags={"l1-2d": "MIP: positive"})
    assert not check(Expect(report=True, flags={"l1-2d": "MIP: violated"}),
                     Outcome(result=report)).ok


def test_separating_ball_postconditions_are_reverified():
    def norm(v):
        return sum(c * c for c in v) ** 0.5

    C, f, eps = [(0.9, 0.0)], (1.0, 0.0), 0.8
    good = SimpleNamespace(center=SimpleNamespace(coords=(10.0, 0.0)), radius=9.2, K=20.0)
    assert check(Expect(ball=(C, f, eps, norm)), Outcome(result=good)).ok
    escaped = SimpleNamespace(center=SimpleNamespace(coords=(10.0, 0.0)), radius=9.0, K=20.0)
    assert not check(Expect(ball=(C, f, eps, norm)), Outcome(result=escaped)).ok

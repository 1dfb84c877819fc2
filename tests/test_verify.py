import json
import time

import pytest

from ballmoduli import (Bracket, Budget, DomainError, list_suites, run_suite)
from ballmoduli import verify
from ballmoduli.verify import FAIL, INCONCLUSIVE, PASS, compare


class TestCompare:
    def test_certified_pass(self):
        c = compare("n", "s", {}, Bracket.exact(1.0), Bracket.exact(0.5))
        assert c.status == PASS

    def test_pass_within_combined_widths(self):
        lhs = Bracket(lower=0.4, upper=0.6, method="exact", resolution=0.0,
                      lipschitz=0.0)
        rhs = Bracket.exact(0.55)
        assert compare("n", "s", {}, lhs, rhs).status == PASS

    def test_certified_fail_keeps_counterexample(self):
        c = compare("n", "s", {}, Bracket.exact(0.0), Bracket.exact(1.0),
                    {"why": "yes"})
        assert c.status == FAIL
        assert c.counterexample == {"why": "yes"}

    def test_inconclusive_band(self):
        lhs = Bracket.exact(0.895)
        rhs = Bracket(lower=0.9, upper=1.0, method="exact", resolution=0.0,
                      lipschitz=0.0)
        assert compare("n", "s", {}, lhs, rhs).status == INCONCLUSIVE


class TestRegistry:
    def test_known_suites(self):
        assert {"lemmas", "chain", "mip-detect", "lpsum", "ordering",
                "dense-set", "spaces", "beta-slices",
                "delta-q"} <= set(list_suites())

    def test_unknown_suite_raises(self):
        with pytest.raises(DomainError):
            run_suite("nope")


class TestSuiteRuns:
    def test_spaces_suite_passes(self):
        report = run_suite("spaces")
        assert report.ok and report.n_fail == 0

    def test_sum_dual_norm_check_catches_a_wrong_polar(self, monkeypatch):
        from ballmoduli import verify
        from ballmoduli.spaces import make_lp_sum, polar_space

        def wrong_q_polar(space):
            dual = polar_space(space)
            if space.kind == "lp-sum":
                return make_lp_sum(dual.components, dual.p + 0.5)
            return dual

        monkeypatch.setattr(verify, "polar_space", wrong_q_polar)
        report = run_suite("spaces", spaces=["l2sum-4"])
        failed = {c.name for c in report.checks if c.status == FAIL}
        assert failed == {"sum-dual-norm-is-blockwise"}

    def test_delta_q_suite_passes(self):
        report = run_suite("delta-q")
        assert report.ok

    def test_mip_detect_classifies(self):
        report = run_suite("mip-detect")
        assert report.ok
        assert report.flags["l1-2d"] == "MIP: violated"
        assert report.flags["l2-2"] == "MIP: positive"

    def test_mip_detect_never_calls_a_polytope_positive(self):
        # the witness is a dual edge midpoint, never a dual vertex such as
        # linf-2d's (1, 0), where beta(f, 1/2) = 1/4: at the midpoint
        # (-1/2, -1/2) both exact values are 0
        report = run_suite("mip-detect", spaces=["linf-2d"])
        assert report.ok
        assert report.flags["linf-2d"] == "MIP: violated"
        assert {tuple(c.params["f"]) for c in report.checks} == {(-0.5, -0.5)}

    def test_dense_set_fails_on_disjoint_brackets(self, monkeypatch):
        # two certified brackets of the same d(t) overlap; disjoint ones
        # are a failure, however close their midpoints
        def disjoint(space, t, budget):
            r = budget.resolution
            return Bracket(lower=r, upper=r + 1e-6, method="grid-certified",
                           resolution=r, lipschitz=1.0)
        monkeypatch.setattr(verify, "d_global", disjoint)
        report = run_suite("dense-set", spaces=["l2-2"], budget=Budget(resolution=4e-2))
        assert [c.status for c in report.checks] == [FAIL]
        assert not report.ok

    def test_lpsum_suite_small(self):
        report = run_suite("lpsum", n_pairs=100)
        assert report.ok and report.config["space"] == "l2sum-4"
        rows = report.flags["rows"]
        assert {r["t"] for r in rows} == {0.4, 0.8}
        for row in rows:
            assert row["beta_sum_lower"] >= row["bound"]

    def test_lpsum_refuses_a_non_euclidean_sum_up_front(self, monkeypatch):
        # the sum's beta curve has no certified search above dimension 3,
        # so the suite stops before computing the component curves
        dims, beta_global = [], verify.beta_global

        def spy(space, *args, **kw):
            dims.append(space.dim)
            return beta_global(space, *args, **kw)
        monkeypatch.setattr(verify, "beta_global", spy)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="dimension 2 or 3, got 4"):
            run_suite("lpsum", spaces=["lpsum:3:lp:1.5-2d+l2-2"],
                      budget=Budget(resolution=4e-2))
        assert time.perf_counter() - start < 1.0 and dims == [4]

    def test_mini_lemma_battery(self):
        report = run_suite("lemmas", spaces=["l2-2", "linf-2d"],
                           instances_per_lemma=12)
        assert report.ok
        assert len(report.checks) == 6 * 12

    def test_ordering_single_space(self):
        report = run_suite("ordering", spaces=["l2-2"],
                           budget=Budget(resolution=8e-3))
        assert report.ok


class TestReports:
    def test_config_ends_with_the_resolution_used(self):
        assert run_suite("delta-q").config["resolution"] == 0.3
        report = run_suite("ordering", spaces=["l1-2d"],
                           budget=Budget(resolution=0.1))
        assert report.config == {"spaces": ["l1-2d"], "resolution": 0.1}
        assert list(report.config)[-1] == "resolution"

    def test_checks_canonically_sorted(self):
        report = run_suite("spaces")
        keys = [(c.name, c.space, json.dumps(c.params, sort_keys=True))
                for c in report.checks]
        assert keys == sorted(keys)

    def test_deterministic_given_seed(self):
        a = run_suite("spaces", seed=7).to_json()
        b = run_suite("spaces", seed=7).to_json()
        assert a == b

    def test_report_json_shape(self):
        report = run_suite("delta-q")
        data = report.to_json()
        assert set(data) == {"suite", "seed", "config", "flags", "summary",
                             "checks"}
        for check in data["checks"]:
            assert {"name", "space", "params", "status", "lhs",
                    "rhs"} <= set(check)
            assert {"lower", "upper", "method",
                    "resolution"} <= set(check["lhs"])

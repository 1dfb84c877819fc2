import csv
import io
import json

from ballmoduli import cli
from ballmoduli.bracket import CURVE_CSV_COLUMNS
from ballmoduli.verify import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestCompute:
    def test_beta_point_five(self, capsys):
        code, out = run(capsys, "compute",
                        "--space", '{"kind":"lp","dim":2,"p":2}',
                        "--modulus", "beta", "--t", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r.strip() for r in out.splitlines()[0].split(",")] \
            == CURVE_CSV_COLUMNS
        mid = 0.5 * (float(rows[0]["lower"]) + float(rows[0]["upper"]))
        assert abs(mid - 0.125) < 5e-3

    def test_delta_at_two_midpoint_near_one(self, capsys):
        code, out = run(capsys, "compute", "--space", "l2-2",
                        "--modulus", "delta", "--t", "2", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert 0.5 * (row["lower"] + row["upper"]) > 0.9

    def test_t_grid(self, capsys):
        code, out = run(capsys, "compute", "--space", "l2-2",
                        "--modulus", "delta", "--t-grid", "0.5,1.0")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_out_of_domain_exits_2(self, capsys):
        code, _ = run(capsys, "compute", "--space", "l2-2",
                      "--modulus", "delta", "--t", "3")
        assert code == 2

    def test_malformed_space_exits_2(self, capsys):
        for bad in ("nosuch", '{"kind":"lp"}', '{"p":', '{"kind":"lp","dim":2,"p":null}',
                    '{"kind":"polyhedral","vertices":[[1,0],[0]]}'):
            code, _ = run(capsys, "compute", "--space", bad,
                          "--modulus", "delta", "--t", "1")
            assert code == 2

    def test_empty_vertex_list_exits_2(self, capsys):
        for space in ('{"kind":"polyhedral","vertices":[]}',
                      '{"kind":"polyhedral","dim":2,"vertices":[]}'):
            code, _ = run(capsys, "compute", "--space", space,
                          "--modulus", "delta", "--t", "1")
            assert code == 2

    def test_missing_t_exits_2(self, capsys):
        code, _ = run(capsys, "compute", "--space", "l2-2",
                      "--modulus", "delta")
        assert code == 2

    def test_non_positive_budget_exits_2(self, capsys):
        for bad in ("0", "-5"):
            code, _ = run(capsys, "compute", "--space", "l2-2",
                          "--modulus", "delta", "--t", "1", "--budget", bad)
            assert code == 2

    def test_tiny_budget_exits_3(self, capsys):
        code, _ = run(capsys, "compute", "--space", "l2-2",
                      "--modulus", "delta", "--t", "1", "--budget", "100")
        assert code == 3

    def test_3d_delta_default_budget_exits_3(self, capsys):
        # 3-D delta compares all pairs of the sphere grid, 10242^2 on l2-3 at
        # the default resolution; a coarser grid returns a bracket
        args = ("compute", "--space", "l2-3", "--modulus", "delta", "--t", "0.5")
        code, _ = run(capsys, *args)
        assert code == 3
        code, out = run(capsys, *args, "--resolution", "0.3")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert 0.0 <= float(row["lower"]) <= float(row["upper"])


class TestSweep:
    def test_delta_sweep_monotone(self, capsys):
        code, out = run(capsys, "sweep", "--space", "l2-2",
                        "--modulus", "delta", "--t-range", "0.4:1.6",
                        "--steps", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r.strip() for r in out.splitlines()[0].split(",")] \
            == ["t", "lower", "upper", "method"]
        mids = [0.5 * (float(r["lower"]) + float(r["upper"])) for r in rows]
        assert mids == sorted(mids)

    def test_bad_range_exits_2(self, capsys):
        code, _ = run(capsys, "sweep", "--space", "l2-2", "--modulus",
                      "delta", "--t-range", "oops", "--steps", "3")
        assert code == 2


class TestVerify:
    def test_passing_suite_exits_0(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _ = run(capsys, "verify", "--suite", "mip-detect",
                      "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["summary"]["fail"] == 0
        assert "timestamp" in data

    def test_deterministic_modulo_timestamp(self, capsys):
        _, out1 = run(capsys, "verify", "--suite", "spaces", "--format", "json")
        _, out2 = run(capsys, "verify", "--suite", "spaces", "--format", "json")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2

    def test_unknown_suite_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "nosuch")
        assert code == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from ballmoduli import verify as vmod
        from ballmoduli.bracket import Bracket
        from ballmoduli.verify import Check

        def always_fail(spaces=None, seed=0, budget=None):
            check = Check(name="x", space="l2-2", params={}, status="fail",
                          lhs=Bracket.exact(0.0), rhs=Bracket.exact(1.0))
            return VerificationReport(suite="always-fail", checks=(check,),
                                      seed=seed, config={})

        monkeypatch.setitem(vmod.SUITES, "always-fail", always_fail)
        code, _ = run(capsys, "verify", "--suite", "always-fail")
        assert code == 1


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2


class TestOracleDiff:
    def test_budget_reaches_the_battery(self, capsys, monkeypatch):
        from ballmoduli.config import DEFAULT_BUDGET, Budget
        seen = []

        def battery(budget=None):
            seen.append(budget)
            return {"n_instances": 0, "n_overlap": 0, "records": []}

        monkeypatch.setattr(cli, "run_oracle_battery", battery)
        assert run(capsys, "oracle-diff", "--budget", "1000")[0] == 0
        assert run(capsys, "oracle-diff")[0] == 0
        assert seen == [Budget(max_evals=1000), DEFAULT_BUDGET]


class TestSeedOption:
    """Only the verification suites draw at random, so only verify takes a
    seed."""

    def test_verify_seed_reaches_the_suite(self, capsys, monkeypatch):
        from ballmoduli import verify as vmod
        seen = []

        def suite(spaces=None, seed=0, budget=None):
            seen.append(seed)
            return VerificationReport(suite="seen", checks=(), seed=seed, config={})

        monkeypatch.setitem(vmod.SUITES, "seen", suite)
        assert run(capsys, "verify", "--suite", "seen", "--seed", "3")[0] == 0
        assert run(capsys, "verify", "--suite", "seen")[0] == 0
        assert seen == [3, 0]

    def test_other_commands_refuse_a_seed(self, capsys):
        assert run(capsys, "oracle-diff", "--seed", "3")[0] == 2
        assert run(capsys, "compute", "--space", "l2-2", "--modulus", "beta",
                   "--t", "0.5", "--seed", "3")[0] == 2
        assert run(capsys, "sweep", "--space", "l2-2", "--modulus", "beta",
                   "--t-range", "0.1:0.5", "--steps", "2", "--seed", "3")[0] == 2

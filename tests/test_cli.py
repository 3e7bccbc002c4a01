import io
import json
from fractions import Fraction

import pytest

from ksettrace import cli, families


def run(argv):
    out = io.StringIO()
    # route --output through a buffer by invoking the command functions via main
    # with stdout capture handled by pytest; here we call main directly
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestTrace:
    def test_basic(self):
        code, out = run(
            ["trace", "--n", "6", "--cap", "10",
             "--perm", "(1 2 3 4 5 6)", "--subset", "{1,4}"]
        )
        assert code == 0
        assert "traced: 3" in out
        assert "exact: 3" in out

    def test_exceeds_cap(self):
        code, out = run(
            ["trace", "--n", "6", "--cap", "2",
             "--perm", "(1 2 3 4 5 6)", "--subset", "{1,2,4}"]
        )
        assert code == 0
        assert "ExceedsCap" in out
        assert "exact: 6" in out


class TestClassify:
    def test_basic(self):
        code, out = run(
            ["classify", "--group", "sym", "--n", "12", "--goal", "long-cycle",
             "--s", "7/10", "--perm", "(1 2 3 4 5 6)(7 8 9 10)(11 12)"]
        )
        assert code == 0
        assert "family: R" in out

    def test_degree_mismatch_is_usage_error(self):
        code, _ = run(
            ["classify", "--group", "sym", "--n", "12", "--goal", "long-cycle",
             "--s", "7/10", "--perm", "(1 2 3 4 5 6)(7 8 9 10)(11 12 13)"]
        )
        assert code == 2


class TestSeedPolicy:
    def test_find_mcycle_needs_seed(self):
        code, _ = run(
            ["find-mcycle", "--group", "sym", "--n", "20", "--goal", "long-cycle",
             "--k", "2", "--eps", "0.2"]
        )
        assert code == 2

    def test_experiment_needs_seed(self):
        code, _ = run(
            ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle",
             "--k", "2", "--trials", "10"]
        )
        assert code == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"group": "sym", "n": 20, "goal": "long-cycle",
                                       "k": 2, "trials": 5, "seed": 1}))
        code, out = run(["experiment", "--config", str(cfgfile), "--trials", "8", "--seed", "2"])
        assert code == 0
        assert '"trials": 8' in out
        assert '"seed": 2' in out

    def test_unknown_keys_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"group": "sym", "n": 20, "goal": "long-cycle",
                                       "seed": 1, "bogus": True}))
        code, _ = run(["experiment", "--config", str(cfgfile)])
        assert code == 2

    def test_config_echoed(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"group": "sym", "n": 20, "goal": "long-cycle",
                                       "k": 2, "trials": 5, "seed": 1}))
        code, out = run(["experiment", "--config", str(cfgfile)])
        assert code == 0
        assert out.startswith("# config:")


class TestVerify:
    def test_binom_suite(self):
        code, out = run(["verify", "--suite", "binom"])
        assert code == 0
        assert "0 failures" in out

    def test_sigma_suite(self):
        code, out = run(["verify", "--suite", "sigma"])
        assert code == 0

    def test_exhaustive_removed(self, tmp_path):
        # the flag was parsed and ignored; it is now an unknown option
        assert run(["verify", "--suite", "binom", "--exhaustive"])[0] == 2
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"suite": "binom", "exhaustive": True}))
        assert run(["verify", "--config", str(cfgfile)])[0] == 2


class TestBounds:
    def test_report(self):
        code, out = run(
            ["bounds", "--M", "4", "--s", "17/24", "--delta", "1/6",
             "--cdelta", "138.32", "--adelta", "25/4", "--eps", "1"]
        )
        assert code == 0
        assert "b_M: 112762003" in out
        assert "log10 n-threshold: 108.6" in out

    def test_inadmissible_exit_code(self):
        code, _ = run(["bounds", "--M", "3", "--s", "5/8", "--delta", "1/24"])
        assert code == 1


class TestOracle:
    def test_rho_agreeing_line(self):
        code, out = run(
            ["oracle", "--group", "sym", "--n", "7", "--goal", "transposition"]
        )
        assert code == 0
        assert "agree = True" in out

    def test_rho_disagreeing_line(self, monkeypatch):
        argv = ["oracle", "--group", "alt", "--n", "7", "--goal", "long-cycle"]
        code, out = run(argv)
        assert code == 0
        assert "agree = True" in out
        # a line whose rho differs from the enumeration: the command reports
        # the mismatch and exits nonzero
        monkeypatch.setattr(families, "exact_rho", lambda *a: Fraction(1))
        code, out = run(argv)
        assert code == 1
        assert "agree = False" in out

    def test_conditional(self):
        code, out = run(
            ["oracle", "--group", "sym", "--n", "7", "--goal", "transposition",
             "--what", "conditional", "--k", "2", "--M", "4"]
        )
        assert code == 0
        assert "p1:" in out


class TestUsage:
    def test_unknown_subcommand(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_help_all_subcommands(self):
        for sub in ["trace", "classify", "find-mcycle", "experiment",
                    "verify", "bounds", "oracle"]:
            code, _ = run([sub, "--help"])
            assert code == 0

    def test_output_file(self, tmp_path):
        path = tmp_path / "out.txt"
        code, _ = run(
            ["classify", "--group", "sym", "--n", "12", "--goal", "long-cycle",
             "--s", "7/10", "--perm", "(1 2)", "--output", str(path)]
        )
        assert code == 0
        assert "family:" in path.read_text()

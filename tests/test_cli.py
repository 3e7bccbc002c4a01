import dataclasses
import hashlib
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ksettrace import cli, combinatorics, families, ksets, montecarlo, perms


def run(argv):
    out = io.StringIO()
    # route --output through a buffer by invoking the command functions via main
    # with stdout capture handled by pytest; here we call main directly
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def seeded(out):
    """The output without its `# wall:` line, the one line a seed does not fix."""
    return "".join(line for line in out.splitlines(True) if not line.startswith("# wall: "))


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

    @pytest.mark.parametrize("subset", ["{1,4", "{1,1}", "{0,4}", "{1,7}", "{}"])
    def test_bad_subset_is_usage_error(self, subset):
        code, out = run(
            ["trace", "--n", "6", "--cap", "10",
             "--perm", "(1 2 3 4 5 6)", "--subset", subset]
        )
        assert code == 2
        assert "traced" not in out


    def test_cap_required(self, capsys):
        argv = ["trace", "--n", "6", "--perm", "(1 2 3 4 5 6)", "--subset", "{1,4}"]
        assert run(argv) == (2, "")
        assert "--cap" in capsys.readouterr().err
        # trace takes no line options
        assert run(argv + ["--group", "sym", "--goal", "long-cycle", "--cap", "6"])[0] == 2


class TestFindMCycle:
    def test_seeded_stdout_pinned(self):
        # transcript lines are numbered by entry position, from 1
        argv = next(argv for argv in readme_commands() if argv[0] == "find-mcycle")
        code, out = run(argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[1:3] == ["1, ugly-step, 18 - - -", "2, ugly-step, 28 - - -"]
        assert lines[61] == "61, good, 40 40 40 40"
        assert hashlib.sha256(seeded(out).encode()).hexdigest() == (
            "f4f6c5af69bc191e0bb8c5a46a8801dc61654f857903cbe020e7380918ed4dea")


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


class TestExperimentCost:
    def test_findmcycle_prints_cost_totals(self):
        code, out = run(
            ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle", "--k", "2",
             "--trials", "6", "--eps", "0.3", "--seed", "3", "--mode", "findmcycle"]
        )
        assert code == 0
        config = montecarlo.ExperimentConfig(
            group=perms.SYM, n=20, goal=families.LONG_CYCLE, k=2, trials=6, eps=0.3, seed=3)
        (line,) = [x for x in out.splitlines() if x.startswith("# cost: ")]
        assert json.loads(line[len("# cost: "):]) == montecarlo.run_findmcycle(config).cost

    def test_conditional_prints_cost_totals(self):
        code, out = run(
            ["experiment", "--group", "sym", "--n", "30", "--goal", "long-cycle", "--k", "2",
             "--trials", "50", "--seed", "3"]
        )
        assert code == 0
        config = montecarlo.ExperimentConfig(
            group=perms.SYM, n=30, goal=families.LONG_CYCLE, k=2, trials=50, seed=3)
        (line,) = [x for x in out.splitlines() if x.startswith("# cost: ")]
        assert json.loads(line[len("# cost: "):]) == montecarlo.run_conditional(config).cost


class TestWallTime:
    ARGS = ["--group", "sym", "--n", "20", "--goal", "long-cycle", "--k", "2", "--seed", "3"]

    def wall(self, argv):
        code, out = run(argv + self.ARGS)
        assert code == 0
        lines = out.splitlines()
        (at,) = [i for i, x in enumerate(lines) if x.startswith("# wall: ")]
        assert lines[at - 1].startswith("# cost: ")
        return json.loads(lines[at][len("# wall: "):])

    @pytest.mark.parametrize("argv, per", [
        (["find-mcycle", "--eps", "0.3"], "us_per_element"),
        (["experiment", "--trials", "40"], "us_per_trial"),
        (["experiment", "--trials", "4", "--eps", "0.3", "--mode", "findmcycle"], "us_per_trial"),
    ])
    def test_wall_line_follows_cost(self, argv, per):
        wall = self.wall(argv)
        experiment = argv[0] == "experiment"
        assert set(wall) == {"seconds", per} | ({"processes"} if experiment else set())
        assert all(isinstance(wall[k], float) and wall[k] > 0 for k in ("seconds", per))
        if experiment:
            assert wall["processes"] == 1  # one worker by default

    @pytest.mark.parametrize("mode", [[], ["--mode", "findmcycle", "--eps", "0.3"]])
    @pytest.mark.parametrize("cpus, workers, processes", [(2, 3, 2), (1, 3, 1), (4, 3, 3)])
    def test_wall_line_gives_processes(self, monkeypatch, mode, cpus, workers, processes):
        # min(workers, usable CPUs): a parallel wall time tells itself apart
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        wall = self.wall(["experiment", "--trials", "6", "--workers", str(workers)] + mode)
        assert wall["processes"] == processes


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

    def test_experiment_takes_no_delta(self, tmp_path, capsys):
        # delta is a `bounds` parameter; no harness reads it
        base = {"group": "sym", "n": 20, "goal": "long-cycle", "k": 2, "trials": 5, "seed": 1}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**base, "delta": "1/24"}))
        assert run(["experiment", "--config", str(cfgfile)]) == (2, "")
        assert "unknown config keys: ['delta']" in capsys.readouterr().err
        flags = [x for key, value in base.items() for x in (f"--{key}", str(value))]
        assert run(["experiment", *flags, "--delta", "1/24"]) == (2, "")
        assert run(["experiment", *flags])[0] == 0

    def test_config_echoed(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"group": "sym", "n": 20, "goal": "long-cycle",
                                       "k": 2, "trials": 5, "seed": 1}))
        code, out = run(["experiment", "--config", str(cfgfile)])
        assert code == 0
        assert out.startswith("# config:")


class TestVerify:
    def test_binom_suite(self, monkeypatch):
        code, out = run(["verify", "--suite", "binom"])
        rows = out.splitlines()
        assert code == 0
        assert "binom, 2, 3, 1, 15, 15, True" in rows
        assert rows[-1] == "# checked 140 instances, 0 failures"

        check = combinatorics.check_binom_lemma

        def failing(a, c, ell):
            verdict = check(a, c, ell)
            if (a, c, ell) == (2, 3, 1):
                return dataclasses.replace(verdict, holds=False)
            return verdict

        monkeypatch.setattr(combinatorics, "check_binom_lemma", failing)
        code, out = run(["verify", "--suite", "binom"])
        rows = out.splitlines()
        assert code == 1
        assert "binom, 2, 3, 1, 15, 15, False" in rows
        assert rows[-1] == "# checked 140 instances, 1 failures"

    def test_divisors_suite(self, monkeypatch):
        code, out = run(["verify", "--suite", "divisors"])
        rows = out.splitlines()
        assert code == 0
        # n = 4 (mod 6) on line 6 and n = 5 (mod 6) on line 7 are swept too
        assert "divisor-profile, 6, 10, [3], table, True" in rows
        assert "divisor-profile, 7, 11, [3], table, True" in rows
        assert rows[-1] == "# checked 39996 instances, 0 failures"

        profile = families.divisor_profile

        def violating(params):
            prof = profile(params)
            if (params.line, params.n) == (6, 10):
                prof["violations"].append("planted")
            return prof

        monkeypatch.setattr(families, "divisor_profile", violating)
        code, out = run(["verify", "--suite", "divisors"])
        rows = out.splitlines()
        assert code == 1
        assert "divisor-profile, 6, 10, [3], table, False" in rows
        assert rows[-1] == "# checked 39996 instances, 1 failures"

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

    @pytest.mark.parametrize("M", ["1", "2", "3"])
    def test_small_M_is_a_failed_check(self, M):
        code, out = run(["bounds", "--M", M, "--cdelta", "138.32"])
        assert code == 1
        assert f"violation: M = {M} < 4" in out


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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The commands of README's "From the command line" block, as argv lists."""
    text = README.read_text()
    block = text.split("From the command line:", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def config_of(out):
    first = out.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


class TestConfigTypes:
    BASE = {"group": "sym", "n": 20, "goal": "long-cycle", "k": 2, "trials": 5, "seed": 1}

    @pytest.mark.parametrize("bad", [
        {"trials": 2.9}, {"seed": True}, {"n": 20.7}, {"M": 4.5}, {"n": "twenty"},
        {"trials": True},
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, bad):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**self.BASE, **bad}))
        code, out = run(["experiment", "--config", str(cfgfile)])
        assert code == 2
        assert out == ""

    def test_echo_shows_converted_values(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**self.BASE, "n": "20", "s": 0.7, "eps": 1}))
        code, out = run(["experiment", "--config", str(cfgfile)])
        assert code == 0
        echoed = config_of(out)
        assert (echoed["n"], echoed["s"], echoed["eps"], echoed["group"]) == (20, "7/10", 1.0, "Sym")


class TestChoices:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "bogus"],
        ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle",
         "--seed", "1", "--trials", "5", "--mode", "bogus"],
        ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle",
         "--seed", "1", "--trials", "5", "--condition", "bogus"],
        ["oracle", "--group", "sym", "--n", "7", "--goal", "transposition", "--what", "bogus"],
    ])
    def test_unknown_value_is_usage_error(self, argv):
        code, out = run(argv)
        assert code == 2
        assert out == ""

    def test_unknown_value_in_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"suite": "bogus"}))
        assert run(["verify", "--config", str(cfgfile)]) == (2, "")


class TestReadmeExamples:
    def test_commands_run(self, tmp_path):
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "trace", "classify", "find-mcycle", "experiment", "verify", "bounds", "oracle",
        ]
        for i, argv in enumerate(commands):
            if "--output" in argv:
                argv = argv[:argv.index("--output")] + argv[argv.index("--output") + 2:]
            path = tmp_path / f"{i}.txt"
            assert run(argv + ["--output", str(path)]) == (0, ""), argv
            assert path.read_text().startswith("# config: ")

    def test_bounds_reference_values(self):
        claim = re.search(r"b_M = (\d+\.\d+e\d+) and log10 n-threshold (\d+\.\d+)", README.read_text())
        b_ref, thr_ref = claim.groups()
        bounds_argv = next(argv for argv in readme_commands() if argv[0] == "bounds")
        code, out = run(bounds_argv + ["--adelta", "25/4", "--r", "3"])
        assert code == 0
        b_M = float(re.search(r"^b_M: (\S+)$", out, re.M).group(1))
        thr = float(re.search(r"^log10 n-threshold: (\S+)$", out, re.M).group(1))
        mantissa, exponent = b_ref.split("e")
        assert round(b_M / 10 ** int(exponent), len(mantissa) - 2) == float(mantissa)
        assert round(thr, len(thr_ref.split(".")[1])) == float(thr_ref)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("argv", [
        ["experiment", "--group", "alt", "--n", "21", "--goal", "long-cycle", "--k", "3",
         "--trials", "300", "--seed", "5", "--s", "0.7", "--eps", "0.3",
         "--condition", "ngood"],
        ["find-mcycle", "--group", "sym", "--n", "30", "--goal", "long-cycle", "--k", "2",
         "--eps", "0.2", "--seed", "7"],
    ])
    def test_echo_reruns_byte_for_byte(self, tmp_path, argv):
        code, out = run(argv)
        assert code == 0
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config_of(out)))
        code, rerun = run([argv[0], "--config", str(cfgfile)])
        assert (code, seeded(rerun)) == (0, seeded(out))


class TestExitCodes:
    """2 for bad input only; a ValueError raised by a command's own run is
    a fault of the run and exits 1, with its error line."""

    EXPERIMENT = ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle",
                  "--seed", "1", "--trials", "5"]

    def test_internal_degree_mismatch_exits_1(self, monkeypatch, capsys):
        def mismatched(gamma, g):
            raise perms.DegreeMismatchError("cannot compose degree 6 with degree 7")

        monkeypatch.setattr(ksets, "cycle_length_exact", mismatched)
        code, out = run(["trace", "--n", "6", "--cap", "10",
                         "--perm", "(1 2 3 4 5 6)", "--subset", "{1,4}"])
        assert code == 1
        assert out.startswith("# config: ")
        assert capsys.readouterr().err == "error: cannot compose degree 6 with degree 7\n"

    def test_other_internal_value_error_exits_1(self, monkeypatch, capsys):
        def broken(config):
            raise ValueError("planted fault")

        monkeypatch.setattr(montecarlo, "run_conditional", broken)
        code, _ = run(self.EXPERIMENT)
        assert code == 1
        assert capsys.readouterr().err == "error: planted fault\n"

    @pytest.mark.parametrize("extra", [
        ["--k", "11"],  # k > n/2
        ["--mode", "findmcycle", "--M", "3"],  # the detector needs M >= 4
        ["--mode", "findmcycle", "--eps", "1.5"],
        ["--s", "1/2"],
        ["--mode", "findmcycle", "--condition", "ngood"],  # the detector draws uniformly
    ])
    def test_bad_flag_combination_exits_2(self, extra, capsys):
        code, _ = run(self.EXPERIMENT + extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["find-mcycle", "--group", "sym", "--n", "20", "--goal", "long-cycle", "--seed", "1",
         "--M", "2"],
        ["find-mcycle", "--group", "sym", "--n", "20", "--goal", "long-cycle", "--seed", "1",
         "--k", "11"],
        ["trace", "--n", "6", "--cap", "0", "--perm", "(1 2 3 4 5 6)", "--subset", "{1,4}"],
        ["classify", "--group", "alt", "--n", "12", "--goal", "long-cycle", "--perm", "(1 2)"],
        ["oracle", "--group", "sym", "--n", "7", "--goal", "transposition",
         "--what", "conditional", "--k", "9"],
        ["oracle", "--group", "sym", "--n", "7", "--goal", "transposition",
         "--what", "conditional", "--M", "0"],
        ["experiment", "--group", "sym", "--n", "20", "--goal", "no-such-goal", "--seed", "1"],
        ["oracle", "--group", "sym", "--n", "40", "--goal", "long-cycle", "--what", "conditional"],
        ["oracle", "--group", "sym", "--n", "12", "--goal", "long-cycle", "--what", "rho"],
        *(["bounds", "--M", "4", "--s", "17/24", "--delta", "1/6", "--cdelta", "138.32", *extra]
          for extra in (["--M", "0"], ["--r", "0"], ["--r", "-2"], ["--eps", "0"],
                        ["--eps", "-1"], ["--cdelta", "-5"], ["--adelta", "-1"])),
        # ell = 1 here, so eps enters no threshold; it is still checked
        ["bounds", "--M", "4", "--s", "5/8", "--delta", "1/8", "--cdelta", "5", "--eps", "-1"],
        ["bounds", "--delta", "0"],  # outside c_delta_search's 0 < delta <= 1
        ["bounds", "--delta", "2"],
        # a negative seed: random.Random would read -5 as 5
        ["find-mcycle", "--group", "sym", "--n", "20", "--goal", "long-cycle", "--seed", "-5"],
        ["experiment", "--group", "sym", "--n", "20", "--goal", "long-cycle", "--seed", "-5"],
    ])
    def test_bad_input_exits_2(self, argv, capsys):
        assert run(argv)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "40" in argv:  # refused by the class limit, not by a flag check
            assert "too large" in err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code, out = run(["verify", "--config", str(tmp_path / "missing.json")])
        assert (code, out) == (2, "")
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code, _ = run(["verify", "--suite", "binom", "--output", str(tmp_path / "no" / "out.txt")])
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

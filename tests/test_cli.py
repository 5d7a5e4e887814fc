"""CLI subcommands, output files and exit codes, driven in-process."""

from dataclasses import replace

import numpy as np
import pytest

from gradedheat import harness
from gradedheat.cli import main
from gradedheat.config import config_hash, parse_solve_config_file, parse_sweep_config
from gradedheat.harness import consistency_experiment, problem_builder
from gradedheat.solve import solve_duhamel, step_implicit
from gradedheat.groups import euclidean, make_grid
from gradedheat.mollify import bump_field

SOLVE_CFG = """
group = euclidean1
half_width = 1.0
points = 64
potential = constant:1
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625
T = 0.5
dt = 0.03125
"""

SWEEP_CFG = """
group = euclidean1
half_width = 1.0
points = 128
potential = delta
mollifier_radius = 1.5
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125
T = 0.5
dt = 0.015625
"""

# a small R^3 net: 16^3 cells still resolve the mollified delta at eps = 0.25
R3_CFG = (SWEEP_CFG.replace("euclidean1", "euclidean3").replace("points = 128", "points = 16")
          .replace("0.5,0.25,0.125,0.0625,0.03125", "0.5,0.4,0.3,0.25")
          .replace("T = 0.5", "T = 0.25").replace("dt = 0.015625", "dt = 0.03125"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def written_l2(out_dir):
    """The l2 column of a trajectory.csv, as written."""
    rows = (out_dir / "trajectory.csv").read_text().splitlines()[1:]
    return [row.split(",")[1] for row in rows]


class TestSolve:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,l2,sobolev_nu2,h_nu2,energy"
        assert len(lines) >= 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[4]) > 0  # nonneg V carries an energy column
        assert "final t" in capsys.readouterr().out

    def test_real_potential_blank_energy(self, tmp_path):
        cfg = write(tmp_path, "run.cfg",
                    SOLVE_CFG.replace("constant:1", "constant:-1"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert all(line.endswith(",") for line in lines[1:])

    def test_mollified_solve_is_the_sweep_problem_at_its_epsilon(self, tmp_path):
        # solve and every sweep eps take their problem from one builder
        cfg = write(tmp_path, "run.cfg",
                    SOLVE_CFG.replace("constant:1", "delta") + "epsilon = 0.25\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        traj = step_implicit(problem_builder(parse_solve_config_file(cfg)[0])(0.25))
        assert written_l2(tmp_path / "o") == [f"{x:.17g}" for x in traj.l2]

    def test_duhamel_solve_is_solve_duhamel_of_the_sweep_problem(self, tmp_path):
        text = SOLVE_CFG.replace("constant:1", "delta") + "epsilon = 0.25\nmethod = duhamel\n"
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        traj = solve_duhamel(problem_builder(parse_solve_config_file(cfg)[0])(0.25))
        assert written_l2(tmp_path / "o") == [f"{x:.17g}" for x in traj.l2]

    def test_classical_solve_is_the_consistency_reference(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # the reference is the one solve of the unregularised datum; each eps mollifies it
        sweep_cfg = replace(parse_solve_config_file(cfg)[0], experiment="consistency")
        datum = problem_builder(sweep_cfg)().u0.values
        references = []
        real_step = harness.step_implicit

        def spy(problem, **kwargs):
            traj = real_step(problem, **kwargs)
            if np.array_equal(problem.u0.values, datum):
                references.append(traj)
            return traj

        monkeypatch.setattr(harness, "step_implicit", spy)
        assert consistency_experiment(sweep_cfg).verdict.kind == "Moderate"
        assert len(references) == 1
        assert written_l2(tmp_path / "o") == [f"{x:.17g}" for x in references[0].l2]

    def test_delta_needs_epsilon(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg",
                    SOLVE_CFG.replace("constant:1", "delta"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_delta_with_epsilon(self, tmp_path):
        text = SOLVE_CFG.replace("constant:1", "delta") + "epsilon = 0.25\n"
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("method", ["duhamel", "oracle"])
    def test_alternative_integrators(self, tmp_path, method):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG + f"method = {method}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_overflowing_state_is_capability_error(self, tmp_path, capsys):
        text = (SOLVE_CFG.replace("constant:1", "constant:-50")
                .replace("T = 0.5", "T = 20").replace("dt = 0.03125", "dt = 0.015625"))
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("CapabilityError: the state's norms leave float64 range "
                              "at step 233 of 1280 (t = 3.64062)")

    def test_huge_step_count_is_capability_error(self, tmp_path, capsys):
        # 1e13 steps: refused before the norm series are allocated
        text = (SOLVE_CFG.replace("points = 64", "points = 4")
                .replace("T = 0.5", "T = 100000").replace("dt = 0.03125", "dt = 1e-8"))
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            "CapabilityError: 10000000000000 steps need 320000000000032 bytes of norm series")

    def test_unstable_step_is_numerical_error(self, tmp_path, capsys):
        text = SOLVE_CFG.replace("constant:1", "constant:-40")
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "StabilityError" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_key_rejected(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG + "sign_class = maybe\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line", ["method = bogus"])
    def test_bad_solve_only_key_rejected(self, tmp_path, capsys, line):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG + line + "\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("epsilons = 0.5,0.25,0.125,0.0625", "epsilons = 0.5"),
        ("points = 64", "points = 63"),
        ("epsilons = 0.5,", "schedule_u0 = log:1\nepsilons = 1.0,0.5,"),
        ("T = 0.5", "T = 0.5\nu0_amplitude = 0"),
    ], ids=["short-net", "odd-points", "epsilon-outside-schedule", "zero-datum"])
    def test_sweep_only_rules_do_not_apply(self, tmp_path, old, new):
        # solve fits no exponent, and without epsilon it neither convolves
        # nor takes omega, so the rules that keep a sweep from failing are not its
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG.replace(old, new))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("epsilon", ["", "epsilon = 0.25\n"], ids=["classical", "mollified"])
    def test_sampled_potential(self, tmp_path, epsilon):
        grid = make_grid(euclidean(1), 1.0, 64)
        np.save(tmp_path / "v.npy", bump_field(grid, 0.6, 0.8).values)
        text = SOLVE_CFG.replace("constant:1", "sampled:v.npy") + epsilon
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()


class TestSweep:
    def test_overflowing_state_fails_the_epsilon(self, tmp_path, capsys):
        text = (SWEEP_CFG.replace("potential = delta", "potential = constant:-50")
                .replace("T = 0.5", "T = 20"))
        cfg = write(tmp_path, "run.cfg", text)
        code = main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1
        assert ("Fail(epsilon=0.5: CapabilityError: the state's norms leave float64 range "
                "at step 233 of 1280 (t = 3.64062)") in capsys.readouterr().out

    def test_huge_step_count_fails_the_epsilon(self, tmp_path, capsys):
        text = (SWEEP_CFG.replace("points = 128", "points = 4")
                .replace("potential = delta", "potential = constant:1")
                .replace("T = 0.5", "T = 100000").replace("dt = 0.015625", "dt = 1e-8"))
        cfg = write(tmp_path, "run.cfg", text)
        code = main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1
        assert ("Fail(epsilon=0.5: CapabilityError: 10000000000000 steps need "
                "320000000000032 bytes of norm series") in capsys.readouterr().out

    def test_existence_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG)
        out = tmp_path / "results"
        code = main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "manifest.txt").exists()
        assert "Moderate" in capsys.readouterr().out
        manifest = (out / "manifest.txt").read_text()
        assert "VERDICT: Moderate" in manifest

    def test_euclidean3_existence_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", R3_CFG)
        out = tmp_path / "results"
        assert main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(out)]) == 0
        assert "Moderate" in capsys.readouterr().out
        manifest = dict(line.split(": ", 1)
                        for line in (out / "manifest.txt").read_text().splitlines())
        assert manifest["config_hash"] == (
            "e010c4781d9a2e68c8888175d96e7efca8c766e226ed2637b42cd3f5056389cc")
        # ||V_eps||_inf grows like omega^-Q, and Q = 3 on R^3
        assert float(manifest["extra_fit_v_linf"].split()[0]) == pytest.approx(3.0)
        # the new group token moves no other group's hash
        pinned = {
            "euclidean1": "da42dcc3210e1051c3c39ac307959f9e6f773fe5e65ae5e9546e43a21a4221cc",
            "euclidean2": "5fdde0b0637e129ab4777d55561cc035e316219a6fcff339bccffa4d3126e305",
            "heisenberg1": "857eb848f13271eb5f2ae10d526fbe3999cb20b087eb2dc98f087a94de7c497b",
        }
        for group, want in pinned.items():
            text = R3_CFG.replace("euclidean3", group)
            assert config_hash(parse_sweep_config(text, experiment="existence")) == want, group

    def test_failing_verdict_exits_one(self, tmp_path, capsys):
        # omega-sized perturbation: deliberately non-negligible
        text = SWEEP_CFG.replace("potential = delta", "potential = delta2")
        text += "perturbation = omega1\n"
        cfg = write(tmp_path, "run.cfg", text)
        out = tmp_path / "results"
        code = main(["sweep", "--experiment", "uniqueness",
                     "--config", cfg, "--out", str(out)])
        assert code == 1
        assert "Fail" in capsys.readouterr().out
        # the partial data is still persisted for inspection
        assert (out / "report.csv").exists()

    def test_a_sweep_with_no_record_replaces_the_last_verdict(self, tmp_path, capsys):
        # 4 points resolve no eps, and the second run must not leave the first's files
        text = SWEEP_CFG.replace("0.5,0.25,0.125,0.0625,0.03125", "0.5,0.25,0.125,0.0625")
        out = tmp_path / "out"
        fine = write(tmp_path, "fine.cfg", text)
        assert main(["sweep", "--experiment", "existence", "--config", fine,
                     "--out", str(out)]) == 0
        assert "VERDICT: Moderate" in (out / "manifest.txt").read_text()
        coarse = write(tmp_path, "coarse.cfg", text.replace("points = 128", "points = 4"))
        assert main(["sweep", "--experiment", "existence", "--config", coarse,
                     "--out", str(out)]) == 1
        assert "Fail(epsilon=0.5: ResolutionError: " in capsys.readouterr().out
        assert (out / "report.csv").read_text() == "epsilon,omega,norm_sup_t,fitted_flag\n"
        manifest = (out / "manifest.txt").read_text()
        assert "records: 0\n" in manifest
        assert "VERDICT: Fail(epsilon=0.5: ResolutionError: " in manifest

    def test_uniqueness_pass(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("potential = delta", "potential = delta2")
        cfg = write(tmp_path, "run.cfg", text)
        code = main(["sweep", "--experiment", "uniqueness",
                     "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 0
        assert "Negligible" in capsys.readouterr().out

    def test_consistency_with_sampled_potential(self, tmp_path):
        grid = make_grid(euclidean(1), 1.0, 128)
        np.save(tmp_path / "v.npy", bump_field(grid, 0.6, 0.8).values)
        text = SWEEP_CFG.replace("potential = delta", "potential = sampled:v.npy")
        cfg = write(tmp_path, "run.cfg", text)
        code = main(["sweep", "--experiment", "consistency",
                     "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 0

    def test_consistency_rejects_delta(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG)
        code = main(["sweep", "--experiment", "consistency",
                     "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "classical" in capsys.readouterr().err

    def test_numerical_error_is_a_failing_verdict(self, tmp_path, capsys, plant_error,
                                                  numerical_error):
        cls = numerical_error
        plant_error(cls("planted"), at_eps=0.125)
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG)
        out = tmp_path / "r"
        assert main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(out)]) == 1
        assert f"Fail(epsilon=0.125: {cls.__name__}: planted)" in capsys.readouterr().out
        # the partial report keeps the eps that succeeded
        assert len((out / "report.csv").read_text().splitlines()) == 1 + 4

    def test_value_error_in_a_sweep_is_not_a_verdict(self, tmp_path, capsys, plant_error):
        plant_error(ValueError("planted"), at_eps=0.125)
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG)
        out = tmp_path / "r"
        assert main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: planted\n" and "Fail" not in captured.out
        assert not out.exists()

    # schedule_u0 is a TestConfigErrors row
    @pytest.mark.parametrize("name", ["schedule", "schedule_v"])
    def test_epsilon_outside_its_schedule_never_solves(self, tmp_path, capsys, name):
        text = SWEEP_CFG.replace("epsilons = 0.5,", f"{name} = log:1\nepsilons = 1.0,0.5,")
        if name == "schedule":
            text = text.replace("schedule = poly\n", "")
        cfg = write(tmp_path, "run.cfg", text)
        out = tmp_path / "r"
        assert main(["sweep", "--experiment", "existence",
                     "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: key '{name}': logarithmic schedule needs eps in (0, 1), "
            "got 1.0\n")
        assert not out.exists()

    def test_zero_datum_never_solves_for_consistency(self, tmp_path, capsys):
        # with a constant V the error net is all zeros, which would read as a failed claim
        text = SWEEP_CFG.replace("potential = delta", "potential = constant:1")
        cfg = write(tmp_path, "run.cfg", text + "u0_amplitude = 0\n")
        out = tmp_path / "r"
        assert main(["sweep", "--experiment", "consistency",
                     "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: u0_amplitude = 0: consistency cannot judge a zero net\n")
        assert not out.exists()

    def test_experiment_conflict(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG + "experiment = existence\n")
        assert main(["sweep", "--experiment", "uniqueness",
                     "--config", cfg, "--out", str(tmp_path / "r")]) == 2


class TestNonFiniteNumbers:
    # float() accepts nan and inf, and nan passes every range check because
    # each comparison with it is false
    @pytest.mark.parametrize("command, line", [
        ("solve", "T = inf"),
        ("sweep", "T = nan"),
        ("sweep", "dt = nan"),
        ("sweep", "norm = lp:nan"),
        ("sweep", "norm = lp:inf"),
        ("solve", "mollifier_radius = nan"),
        ("solve", "u0_width = nan"),
        ("sweep", "potential = delta:nan"),
        ("sweep", "potential = constant:nan"),
    ])
    def test_rejected_as_config_error(self, tmp_path, capsys, command, line):
        key = line.split(" = ")[0]
        kept = [row for row in SOLVE_CFG.splitlines() if not row.startswith(key + " ")]
        cfg = write(tmp_path, "run.cfg", "\n".join(kept + [line]) + "\n")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv[1:1] = ["--experiment", "existence"]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err


class TestConfigErrors:
    # one case per input check of the config reader: drop the line of key
    # from SWEEP_CFG (if any), add line (if any), expect want in the message
    @pytest.mark.parametrize("command, key, line, want", [
        pytest.param("sweep", "perturbation", "perturbation = gaussian",
                     "perturbation must be one of", id="perturbation"),
        pytest.param("sweep", "dt", "dt = 1.0", "need 0 < dt <= T", id="dt-above-T"),
        # T/dt = inf has no step count; refused before any solve
        pytest.param("sweep", "T", "T = 1e308", "T/dt finite", id="step-count-overflows"),
        pytest.param("solve", "T", "T = 1e308", "T/dt finite", id="solve-step-count-overflows"),
        pytest.param("sweep", "k_max", "k_max = 0", "k_max must be a positive",
                     id="k_max-zero"),
        # the retired norms, whose sups read only the thinned states
        pytest.param("sweep", "norm", "norm = linf", "norm must be l2|hnu2, got 'linf'",
                     id="retired-linf"),
        pytest.param("sweep", "norm", "norm = lp:3", "norm must be l2|hnu2, got 'lp:3'",
                     id="retired-lp"),
        pytest.param("sweep", "norm", "norm = lp:0.5", "norm must be l2|hnu2, got 'lp:0.5'",
                     id="lp-below-one"),
        pytest.param("sweep", "norm", "norm = l3", "norm must be l2|hnu2, got 'l3'",
                     id="norm-token"),
        pytest.param("sweep", "potential", "potential = gaussian", "potential must be",
                     id="potential-token"),
        pytest.param("sweep", "potential", "potential = sampled:", "needs a path",
                     id="sampled-no-path"),
        pytest.param("sweep", "potential", "potential = sampled:short.npy",
                     "does not match grid", id="sampled-shape"),
        pytest.param("sweep", "potential", "potential = sampled:missing.npy",
                     "cannot read sampled potential", id="sampled-unreadable"),
        pytest.param("sweep", None, "points 128", "expected key = value", id="no-equals"),
        pytest.param("sweep", "T", "T =", "empty value", id="empty-value"),
        pytest.param("sweep", "group", None, "missing required key 'group'",
                     id="missing-key"),
        pytest.param("sweep", "T", None, "missing required key 'T'", id="missing-number"),
        pytest.param("sweep", "half_width", "half_width = wide", "not a number",
                     id="not-a-number"),
        pytest.param("sweep", "k_max", "k_max = two", "not an integer",
                     id="not-an-integer"),
        pytest.param("sweep", "points", "points = 12.5", "expected integers",
                     id="points-not-integers"),
        pytest.param("sweep", "group", "group = engel", "group must be one of",
                     id="unknown-group"),
        pytest.param("sweep", "points", "points = 2", "at least 4 points",
                     id="too-few-points"),
        # every sweep convolves the datum, so it is refused before any solve
        pytest.param("sweep", "points", "points = 63", "needs even point counts",
                     id="odd-points"),
        pytest.param("sweep", "epsilons", "epsilons = 1.0,0.5,0.25,0.125\nschedule_u0 = log:1",
                     "key 'schedule_u0': logarithmic schedule needs eps in (0, 1), got 1.0",
                     id="epsilon-outside-schedule"),
        pytest.param("sweep", "epsilons", "epsilons = 0.25,0.5,0.125,0.0625",
                     "strictly decreasing", id="epsilons-not-decreasing"),
        # refused before any solve, not by the exponent fit after every solve
        pytest.param("sweep", "epsilons", "epsilons = 0.5,0.25,0.125",
                     "needs at least 4 values, got 3", id="short-epsilon-net"),
        pytest.param("sweep", "mollifier_radius", "mollifier_radius = -1",
                     "mollifier_radius must be positive", id="negative-mollifier-radius"),
        pytest.param("sweep", "u0_width", "u0_width = -0.5", "u0_width must be positive",
                     id="negative-u0-width"),
        pytest.param("sweep", "u0_width", "u0_width = 1.5", "exceeds the box half-width 1.0",
                     id="u0-wider-than-box"),
        pytest.param("sweep", None, "sign_class = real", "unknown key 'sign_class'",
                     id="declared-sign-class"),
        # a zero datum is refused before any solve, not by the exponent fit after every solve
        pytest.param("sweep", "u0_amplitude", "u0_amplitude = 0",
                     "u0_amplitude = 0: existence cannot judge a zero net", id="zero-datum"),
        # sweep's --experiment choices reject this before the file is read
        pytest.param("solve", "experiment", "experiment = bogus",
                     "experiment must be one of", id="unknown-experiment"),
    ])
    def test_exits_two(self, tmp_path, capsys, command, key, line, want):
        np.save(tmp_path / "short.npy", np.zeros(7))
        kept = [row for row in SWEEP_CFG.splitlines()
                if key is None or not row.startswith(key + " ")]
        cfg = write(tmp_path, "run.cfg", "\n".join(kept + [line or ""]) + "\n")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv[1:1] = ["--experiment", "existence"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and want in err

    def test_unreadable_sweep_config(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["sweep", "--experiment", "existence", "--config", str(missing),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: cannot read config {missing}" in capsys.readouterr().err


class TestFit:
    def test_fit_from_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", SWEEP_CFG)
        out = tmp_path / "results"
        main(["sweep", "--experiment", "existence", "--config", cfg,
              "--out", str(out)])
        capsys.readouterr()
        code = main(["fit", "--in", str(out / "report.csv"), "--col", "norm_sup_t"])
        assert code == 0
        text = capsys.readouterr().out
        assert "exponent =" in text and "stderr =" in text

    @pytest.mark.parametrize("experiment, edits", [
        ("existence", ()),
        # sigma = e^{-64} leaves the twin equal to the problem: its row is 0, not fitted
        ("uniqueness", (("points = 128", "points = 256"), ("0.03125\n", "0.03125,0.015625\n"))),
    ])
    def test_refit_reproduces_the_manifest(self, tmp_path, capsys, experiment, edits):
        text = SWEEP_CFG
        for old, new in edits:
            text = text.replace(old, new)
        out = tmp_path / "results"
        main(["sweep", "--experiment", experiment, "--config", write(tmp_path, "run.cfg", text),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["fit", "--in", str(out / "report.csv"), "--col", "norm_sup_t"]) == 0
        manifest = (out / "manifest.txt").read_text()
        exponent = capsys.readouterr().out.splitlines()[0].split(" = ")[1]
        assert f"fitted_exponent: {exponent}\n" in manifest
        if experiment == "uniqueness":
            assert (out / "report.csv").read_text().splitlines()[-1].endswith(",0,0")

    def test_planted_csv(self, tmp_path, capsys):
        rows = ["omega,val"] + [f"{0.5*2**-k},{(0.5*2**-k)**-3}" for k in range(5)]
        path = tmp_path / "planted.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--in", str(path), "--col", "val"]) == 0
        assert "exponent = 3" in capsys.readouterr().out

    def test_missing_column(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("omega,x\n0.5,1\n")
        assert main(["fit", "--in", str(path), "--col", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["fit", "--in", str(tmp_path / "no.csv"), "--col", "x"]) == 2

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("omega,val\n0.5,1.0\n0.25,2.0\n")
        assert main(["fit", "--in", str(path), "--col", "val"]) == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("omega,val\n0.5,cheese\n0.25,1\n0.125,1\n0.0625,1\n")
        assert main(["fit", "--in", str(path), "--col", "val"]) == 2

    # capfd sees LAPACK's own stderr lines; warnings become errors
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column, values", [
        ("norm_sup_t", ["1.0", "inf", "nan", "8.0"]),
        ("omega", ["0.5", "0.25", "0.125", "0"]),
        ("omega", ["0.5", "0.25", "0.125", "-0.1"]),
    ], ids=["inf-nan-values", "zero-omega", "negative-omega"])
    def test_refuses_what_has_no_logarithm(self, tmp_path, capfd, column, values):
        table = {"omega": ["0.5", "0.25", "0.125", "0.0625"],
                 "norm_sup_t": ["1.0", "2.0", "4.0", "8.0"], column: values}
        rows = ["omega,norm_sup_t"] + [f"{w},{v}" for w, v in zip(*table.values())]
        path = tmp_path / "report.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--in", str(path), "--col", "norm_sup_t"]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("config error: ") and "finite positive" in err
        assert err.count("\n") == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["sweep", "--experiment", "existence"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

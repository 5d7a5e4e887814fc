"""CLI subcommands, output files and exit codes, driven in-process."""

import numpy as np
import pytest

from gradedheat.cli import main
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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    @pytest.mark.parametrize("line", ["method = bogus", "picard_depth = 0"])
    def test_bad_solve_only_key_rejected(self, tmp_path, capsys, line):
        cfg = write(tmp_path, "run.cfg", SOLVE_CFG + line + "\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["", "epsilon = 0.25\n"], ids=["classical", "mollified"])
    def test_sampled_potential(self, tmp_path, epsilon):
        grid = make_grid(euclidean(1), 1.0, 64)
        np.save(tmp_path / "v.npy", bump_field(grid, 0.6, 0.8).values)
        text = SOLVE_CFG.replace("constant:1", "sampled:v.npy") + epsilon
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()


class TestSweep:
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
        pytest.param("sweep", "k_max", "k_max = 0", "k_max must be a positive",
                     id="k_max-zero"),
        pytest.param("sweep", "norm", "norm = lp:0.5", "p >= 1", id="lp-below-one"),
        pytest.param("sweep", "norm", "norm = l3", "norm must be", id="norm-token"),
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
        pytest.param("sweep", "threads", "threads = two", "not an integer",
                     id="not-an-integer"),
        pytest.param("sweep", "points", "points = 12.5", "expected integers",
                     id="points-not-integers"),
        pytest.param("sweep", "group", "group = engel", "group must be one of",
                     id="unknown-group"),
        pytest.param("sweep", "points", "points = 2", "at least 4 points",
                     id="too-few-points"),
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

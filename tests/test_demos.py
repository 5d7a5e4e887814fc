"""The demos run end to end, in-process, and print the verdicts they show.

mollifier_scaling is left out: its 96 x 96 x 1536 Heisenberg grid takes
several seconds on its own, and gate 06 covers the same scaling fit.
"""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys) -> str:
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name, kinds", [
    ("consistency_study", ["Moderate", "Moderate"]),
    ("singular_well", ["Moderate", "Moderate"]),
    ("sweep_from_config", ["Moderate"]),
    ("uniqueness_perturbation", ["Negligible", "Fail"]),
])
def test_sweep_demo_verdicts(name, kinds, capsys):
    out = run_demo(name, capsys)
    verdicts = [line.split(":", 1)[1].split("(")[0].strip()
                for line in out.splitlines() if line.strip().lower().startswith("verdict:")]
    assert verdicts == kinds
    if name == "sweep_from_config":
        assert out.count("(exit code 0)") == 2  # sweep, then fit


def test_heat_flow_basics_matches_oracle(capsys):
    out = run_demo("heat_flow_basics", capsys)
    gaps = re.findall(r"\|u - u_exact\| = (\S+)  \(first order in dt = (\S+)\)", out)
    assert len(gaps) == 2  # the line and the Heisenberg group
    assert all(float(gap) < float(dt) for gap, dt in gaps)

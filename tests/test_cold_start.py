"""What a fresh interpreter pays to import the package, and the lazy SuperLU import.

Each test runs its script in a new interpreter, since this one has long
since imported whatever the other tests needed.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

from gradedheat import solve

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules scipy.integrate and scipy.sparse.linalg would pull in
HEAVY = ("scipy.integrate", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")

SWEEP_TEXT = """
group = {group}
half_width = 1.0
points = {points}
potential = delta
mollifier_radius = 1.5
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125
T = 0.5
dt = 0.015625
experiment = existence
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_numpy_and_scipy_sparse_only():
    script = f"""
import sys
import gradedheat, gradedheat.cli
from gradedheat.config import parse_sweep_config
from gradedheat.mollify import Mollifier
text = {SWEEP_TEXT!r}
for group, points in (("euclidean1", "64"), ("euclidean2", "16,16"), ("heisenberg1", "8,8,16")):
    parse_sweep_config(text.format(group=group, points=points))
for dim in (1, 2, 3):
    Mollifier(dim, 1.5)
print(",".join(m for m in {HEAVY!r} if m in sys.modules))
"""
    assert run_fresh(script).strip() == ""


def test_splu_is_a_module_function():
    # the benchmark's tracer and the tests replace it by this name
    assert inspect.isfunction(solve.splu)
    assert (solve.splu.__module__, solve.splu.__qualname__) == ("gradedheat.solve", "splu")


def test_first_splu_calls_of_two_workers_import_together(tmp_path):
    # the first two factorisations wait for each other, so both workers run
    # the first import of scipy.sparse.linalg at the same time
    script = f"""
import sys, threading
from dataclasses import replace
from pathlib import Path
from gradedheat import solve
from gradedheat.config import parse_sweep_config
from gradedheat.harness import persist_report, run_experiment

assert "scipy.sparse.linalg" not in sys.modules
barrier = threading.Barrier(2, timeout=60)
waiting = iter(range(2))
lock = threading.Lock()
factor = solve.splu

def together(matrix):
    with lock:
        wait = next(waiting, None) is not None
    if wait:
        barrier.wait()
    return factor(matrix)

solve.splu = together
cfg = parse_sweep_config({SWEEP_TEXT.format(group="euclidean1", points="128")!r})
for threads in (2, 1):
    rep = run_experiment(replace(cfg, threads=threads))
    assert rep.verdict.kind == "Moderate" and rep.workers == threads
    persist_report(rep, Path(sys.argv[1]) / f"t{{threads}}")
"""
    run_fresh(script, tmp_path)
    two = (tmp_path / "t2" / "report.csv").read_bytes()
    assert two == (tmp_path / "t1" / "report.csv").read_bytes()

"""What a fresh interpreter loads to import the package and to sweep on R^d, the
first LAPACK bind, and the names the package exports.

Each load test runs its script in a new interpreter, since this one has long
since imported whatever the other tests needed.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gradedheat
from gradedheat import solve

SRC = Path(__file__).resolve().parents[1] / "src"

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

# perfbench's h1_existence config
H1_EXISTENCE = """
group = heisenberg1
half_width = 1.5
points = 16,16,32
potential = delta
schedule = log:1
epsilons = 0.25,0.2,0.15,0.11
mollifier_radius = 1.4
T = 0.5
dt = 0.03125
norm = hnu2
experiment = existence
"""

# the scipy modules loaded so far, comma-separated
LOADED_SCIPY = '",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_euclidean_sweeps_load_no_scipy():
    # every backward-Euler route on R^d: the 1-D LAPACK step on R, CG and
    # Woodbury on R^2 (dt = 1/16 puts the two widest eps on CG), Woodbury on
    # R^3; then the benchmark's H1 existence sweep, which builds its CSR
    # operator with scipy.sparse
    script = f"""
import sys
import gradedheat, gradedheat.cli
from gradedheat import harness, solve
from gradedheat.config import parse_sweep_config
from gradedheat.mollify import Mollifier
text = {SWEEP_TEXT!r}
groups = (("euclidean1", "64"), ("euclidean2", "32,32"), ("euclidean3", "8,8,8"),
          ("heisenberg1", "16,16,32"))
configs = [parse_sweep_config(text.format(group=group, points=points))
           for group, points in groups]
configs[3] = parse_sweep_config({H1_EXISTENCE!r})
for dim in (1, 2, 3):
    Mollifier(dim, 1.5)
routes = []
for name in ("_periodic_tridiagonal_solver", "_woodbury_solver", "_cg_solver"):
    made = getattr(solve, name)
    setattr(solve, name, lambda *args, made=made, name=name: routes.append(name) or made(*args))
print({LOADED_SCIPY})
configs[1] = parse_sweep_config(text.format(group="euclidean2", points="32,32")
                                .replace("dt = 0.015625", "dt = 0.0625"))
for cfg in configs[:3]:
    harness.run_experiment(cfg)
print(" ".join(sorted(set(routes))))
print({LOADED_SCIPY})
print(harness.run_experiment(configs[3]).verdict.kind)
"""
    imported, routes, swept, h1 = run_fresh(script).splitlines()
    assert imported == ""
    assert routes.split() == ["_cg_solver", "_periodic_tridiagonal_solver", "_woodbury_solver"]
    assert swept == ""
    assert h1 == "Moderate"


def test_every_export_resolves():
    # a name left in an __all__ after its definition is gone breaks `import *`
    submodules = [f"gradedheat.{m.name}" for m in pkgutil.iter_modules(gradedheat.__path__)]
    for name in ["gradedheat", *submodules]:
        module = importlib.import_module(name)
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == [], name
        exec(f"from {name} import *", {})


def test_splu_is_a_module_function():
    # the benchmark's tracer and the tests replace it by this name
    assert inspect.isfunction(solve.splu)
    assert (solve.splu.__module__, solve.splu.__qualname__) == ("gradedheat.solve", "splu")


def test_first_factorisations_of_two_workers_import_together(tmp_path):
    # a sweep on R runs one worker, so two threads start the first two 1-D
    # solves; their factorisations wait for each other, so both make the
    # first bind of numpy's LAPACK at the same time
    script = f"""
import sys, threading
from pathlib import Path
from gradedheat import _lapack, solve
from gradedheat.config import parse_sweep_config
from gradedheat.harness import problem_builder

barrier = threading.Barrier(2, timeout=60)
waiting = iter(range(2))
lock = threading.Lock()
factor = solve._periodic_tridiagonal_solver

def together(*args):
    with lock:
        wait = next(waiting, None) is not None
    if wait:
        barrier.wait()
    return factor(*args)

def trajectory_bytes(p):
    traj = solve.step_implicit(p)
    return traj.l2.tobytes() + b"".join(s.values.tobytes() for s in traj.states)

solve._periodic_tridiagonal_solver = together
cfg = parse_sweep_config({SWEEP_TEXT.format(group="euclidean1", points="128")!r})
problem = problem_builder(cfg)
problems = [problem(0.5), problem(0.25)]
assert _lapack._bind.cache_info().currsize == 0
out = Path(sys.argv[1])
workers = [threading.Thread(target=lambda i=i: (out / f"together{{i}}").write_bytes(
               trajectory_bytes(problems[i]))) for i in range(2)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
assert next(waiting, None) is None  # both workers went through the barrier
info = _lapack._bind.cache_info()
assert (info.misses, info.currsize) == (1, 1)
assert {LOADED_SCIPY} == ""
for i, p in enumerate(problems):
    (out / f"alone{{i}}").write_bytes(trajectory_bytes(p))
"""
    run_fresh(script, tmp_path)
    for i in range(2):
        assert (tmp_path / f"together{i}").read_bytes() == (tmp_path / f"alone{i}").read_bytes()


def test_one_dimensional_solve_leaves_out_sparse_linalg(tmp_path):
    # `gradedheat solve` on R loads no scipy module at all
    config = tmp_path / "run.cfg"
    config.write_text(SWEEP_TEXT.format(group="euclidean1", points="64") + "epsilon = 0.25\n")
    script = f"""
import sys
from gradedheat.cli import main
assert main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("scipy:" + {LOADED_SCIPY})
"""
    assert run_fresh(script, config, tmp_path / "out").splitlines()[-1] == "scipy:"


def test_pooled_cg_sweep_leaves_out_scipy_linalg():
    # a pool of two on R^2 whose every eps runs CG (a constant V covers the
    # whole grid) loads no scipy module
    script = f"""
import sys
from gradedheat import harness
from gradedheat.config import parse_sweep_config
harness._cores = lambda: 2
text = {SWEEP_TEXT.format(group="euclidean2", points="16,16")!r}
rep = harness.run_experiment(parse_sweep_config(text.replace("delta", "constant:1")))
print(rep.workers, rep.verdict.kind, "scipy:" + {LOADED_SCIPY})
"""
    assert run_fresh(script).split() == ["2", "Moderate", "scipy:"]

"""The four benchmark workloads: set-up, one operation, and its output check.

Every workload is driven through the public API (the three sweeps through
the in-process CLI, ``gradedheat.cli.main(["sweep", ...])``).  The sweep
configurations are fixed; the workload seed only draws the random fields
of ``h1_spectral``.  Reference values come from the seed commit and live
in ``reference.json``; why each workload was chosen is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def use_checkout_source(root: Path) -> None:
    """Import gradedheat from root/src and nowhere else."""
    package = root / "src" / "gradedheat" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(f"no gradedheat sources at {package.parent}")
    sys.path.insert(0, str(root / "src"))
    import gradedheat

    if Path(gradedheat.__file__).resolve() != package.resolve():
        raise ImportError(f"gradedheat was imported from {gradedheat.__file__}, "
                          f"not from {package}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class OpResult:
    problems: list[str]
    report_sha256: str | None = None


def _close(got: float, want: float, rel: float, floor: float) -> bool:
    if abs(got) <= floor and abs(want) <= floor:
        return True
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


@dataclass(frozen=True)
class Sweep:
    """An epsilon sweep run as ``gradedheat sweep`` from a config file.

    rel is the relative tolerance on omega and norm_sup_t; values at or
    below floor on both sides count as equal (the difference nets of a
    uniqueness sweep end in rounding noise and exact zeros); exponent_rel
    is the relative tolerance on the fitted exponent.
    """

    name: str
    experiment: str
    config: str
    threads: int
    verdict: str
    rel: float
    floor: float
    exponent_rel: float

    def setup(self, out_dir: Path, seed: int):
        from gradedheat import cli  # noqa: F401 - set-up pays for the imports
        from gradedheat.config import parse_sweep_config_file
        from gradedheat.mollify import Mollifier

        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / "run.cfg"
        cfg_path.write_text(self.config)
        cfg = parse_sweep_config_file(cfg_path, experiment=self.experiment)
        Mollifier(cfg.group.dim, cfg.mollifier_radius)
        return {"cfg_path": cfg_path, "report_dir": out_dir / "report"}

    def prepare(self, state) -> None:
        # a stale report must not pass the check of a run that wrote none
        for name in ("report.csv", "manifest.txt"):
            (state["report_dir"] / name).unlink(missing_ok=True)

    def operation(self, state):
        from gradedheat import cli

        argv = ["sweep", "--experiment", self.experiment,
                "--config", str(state["cfg_path"]), "--out", str(state["report_dir"])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(self, state, outcome, ref: dict) -> OpResult:
        code, stdout = outcome
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        lines = stdout.strip().splitlines()
        kind = lines[-1].split("(")[0] if lines else ""
        if kind != self.verdict:
            problems.append(f"verdict {lines[-1] if lines else '<none>'!r}, "
                            f"expected {self.verdict}")
        csv_path = state["report_dir"] / "report.csv"
        if not csv_path.is_file():
            return OpResult(problems + ["report.csv missing"])
        body = csv_path.read_bytes()
        sha = hashlib.sha256(body).hexdigest()
        rows = [line.split(",") for line in body.decode().splitlines()[1:]]
        want_rows = ref["records"]
        if len(rows) != len(want_rows):
            problems.append(f"{len(rows)} records, expected {len(want_rows)}")
        for row, want in zip(rows, want_rows):
            eps, om, value, flag = float(row[0]), float(row[1]), float(row[2]), int(row[3])
            if eps != want[0] or flag != want[3]:
                problems.append(f"record {row} differs from {want}")
            elif not (_close(om, want[1], self.rel, 0.0)
                      and _close(value, want[2], self.rel, self.floor)):
                problems.append(f"epsilon={eps:g}: got ({om!r}, {value!r}), "
                                f"expected ({want[1]!r}, {want[2]!r})")
        exponent = manifest_exponent(state["report_dir"] / "manifest.txt")
        if exponent is None or not _close(exponent, ref["exponent"], self.exponent_rel, 0.0):
            problems.append(f"fitted exponent {exponent!r}, expected {ref['exponent']!r}")
        return OpResult(problems, sha)


def manifest_exponent(path: Path) -> float | None:
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        if key == "fitted_exponent":
            try:
                return float(value)
            except ValueError:
                return None
    return None


@dataclass(frozen=True)
class Spectral:
    """Dense spectral calculus on H1 plus the Duhamel-vs-implicit check.

    Builds the operator, diagonalises it, applies the heat semigroup at
    three times to fresh Gaussian fields, then solves one bump problem by
    Picard-Duhamel and by backward Euler.
    """

    name: str
    points: int
    half_width: float
    n_fields: int
    times: tuple[float, ...]
    T: float
    dt: float
    picard_depth: int
    threads: int
    gap_rel: float
    verdict: str = "checks pass"

    def setup(self, out_dir: Path, seed: int):
        import numpy as np
        from gradedheat import groups, mollify, operators, solve  # noqa: F401

        grid = groups.make_grid(groups.heisenberg1(), self.half_width, self.points)
        return {"grid": grid, "rng": np.random.default_rng(seed)}

    def prepare(self, state) -> None:
        from gradedheat.groups import Field

        grid = state["grid"]
        state["fields"] = [Field(grid, state["rng"].standard_normal(grid.shape))
                           for _ in range(self.n_fields)]

    def operation(self, state):
        # module attributes are looked up at call time, so the tracer's wrappers apply
        import numpy as np
        from gradedheat import mollify, solve
        from gradedheat import operators as ops

        grid = state["grid"]
        op = ops.build_rockland(grid)
        op.eigensystem()
        worst = 0.0
        for f in state["fields"]:
            norm = np.linalg.norm(f.values)
            for t in self.times:
                worst = max(worst, np.linalg.norm(ops.semigroup_apply(op, t, f).values) / norm)
        problem = solve.CauchyProblem(op, mollify.bump_field(grid, 1.0, 0.8),
                                      mollify.bump_field(grid, 1.125), self.T, self.dt)
        duhamel = solve.solve_duhamel(problem, n_picard=self.picard_depth)
        implicit = solve.step_implicit(problem)
        gap = max(math.sqrt(float(np.sum((a.values - b.values) ** 2)) * grid.cell_volume)
                  for a, b in zip(duhamel.states, implicit.states))
        return worst, gap, len(duhamel.states), len(implicit.states)

    def check(self, state, outcome, ref: dict) -> OpResult:
        worst, gap, n_duhamel, n_implicit = outcome
        problems = []
        if n_duhamel != n_implicit:
            problems.append(f"{n_duhamel} Duhamel states vs {n_implicit} implicit states")
        if not worst <= 1.0 + 1e-12:
            problems.append(f"semigroup contraction ratio {worst!r} > 1 + 1e-12")
        if not gap <= 10.0 * self.dt:
            problems.append(f"Duhamel-implicit L2 gap {gap!r} > 10*dt")
        if not _close(gap, ref["gap"], self.gap_rel, 0.0):
            problems.append(f"Duhamel-implicit L2 gap {gap!r}, expected {ref['gap']!r}")
        return OpResult(problems)


_H1_EXISTENCE = """\
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
threads = 2
"""

_E2_EXISTENCE = """\
group = euclidean2
half_width = 2.0
points = 256
potential = delta
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625
mollifier_radius = 1.5
T = 0.5
dt = 0.015625
norm = hnu2
threads = 1
"""

_E1_UNIQUENESS = """\
group = euclidean1
half_width = 1.0
points = 256
potential = delta2
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125,0.015625
perturbation = exp
mollifier_radius = 1.5
T = 2.0
dt = 0.0009765625
norm = l2
threads = 2
"""

WORKLOADS = {
    w.name: w for w in (
        Sweep("h1_existence", "existence", _H1_EXISTENCE, threads=2, verdict="Moderate",
              rel=1e-9, floor=0.0, exponent_rel=1e-9),
        Sweep("e2_existence", "existence", _E2_EXISTENCE, threads=1, verdict="Moderate",
              rel=1e-9, floor=0.0, exponent_rel=1e-9),
        # The difference net ends at 1.3e-14 and then exactly 0, so values up to
        # 1e-12 are rounding noise; the exponent is fitted through that noisy
        # point, hence the looser exponent tolerance.
        Sweep("e1_uniqueness", "uniqueness", _E1_UNIQUENESS, threads=2, verdict="Negligible",
              rel=1e-6, floor=1e-12, exponent_rel=0.05),
        Spectral("h1_spectral", points=14, half_width=1.5, n_fields=100,
                 times=(0.01, 0.1, 1.0), T=0.5, dt=1.0 / 32, picard_depth=8, threads=1,
                 gap_rel=1e-8),
    )
}

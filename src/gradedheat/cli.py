"""Command line front end.

    gradedheat solve --config run.cfg --out results/
    gradedheat sweep --experiment existence --config run.cfg --out results/
    gradedheat fit --in results/report.csv --col norm_sup_t

solve integrates harness.problem_builder's problem at the config's epsilon
(the classical one without it): the setup every sweep eps gets.  fit refits
a report; where the file has a fitted_flag column it takes only the rows
flagged 1, the ones the sweep's own fit took.

Exit codes: 0 success or passing verdict, 1 failing verdict, 2 usage or
configuration error, 3 numerical error.  Only a numerical error
(errors.NumericalError) at some eps makes a sweep's verdict Fail; any other
error stops the sweep, and exits 2 if it is a ValueError or OSError.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import EXPERIMENTS, parse_solve_config_file, parse_sweep_config_file
from .errors import ConfigError, NumericalError
from .harness import fit_exponent, persist_report, problem_builder, run_experiment
from .solve import oracle_expm, solve_duhamel, step_implicit

EXIT_OK = 0
EXIT_FAIL_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedheat",
        description="Heat flow with singular potentials on graded groups: "
                    "single solves, epsilon sweeps, exponent fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one Cauchy solve, trajectory CSV out")
    p_solve.add_argument("--config", required=True, help="flat key = value file")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with verdict")
    p_sweep.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_sweep.add_argument("--config", required=True, help="flat key = value file")
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="exponent fit on an existing report")
    p_fit.add_argument("--in", dest="in_path", required=True, help="report CSV")
    p_fit.add_argument("--col", required=True, help="value column name")
    return parser


def _write_trajectory(traj, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trajectory.csv"
    lines = ["t,l2,sobolev_nu2,h_nu2,energy"]
    has_energy = traj.energy is not None
    h_nu2 = traj.h_nu2
    for i, t in enumerate(traj.times):
        tail = f"{traj.energy[i]:.17g}" if has_energy else ""
        lines.append(f"{t:.17g},{traj.l2[i]:.17g},{traj.sobolev_nu2[i]:.17g},"
                     f"{h_nu2[i]:.17g},{tail}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_solve(args) -> int:
    cfg, opts = parse_solve_config_file(args.config)
    integrate = {"implicit": step_implicit, "duhamel": solve_duhamel,
                 "oracle": oracle_expm}[opts.method]
    traj = integrate(problem_builder(cfg)(opts.epsilon))
    path = _write_trajectory(traj, Path(args.out))
    print(f"wrote {path}")
    print(f"final t = {traj.times[-1]:.6g}, l2 = {traj.l2[-1]:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = parse_sweep_config_file(args.config, experiment=args.experiment)
    report = run_experiment(cfg)
    csv_path, manifest_path = persist_report(report, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {manifest_path}")
    print(str(report.verdict))
    return EXIT_OK if report.verdict.passed else EXIT_FAIL_VERDICT


def cmd_fit(args) -> int:
    try:
        with open(args.in_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {args.in_path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{args.in_path} has no data rows")
    if "omega" not in rows[0] or args.col not in rows[0]:
        have = ", ".join(rows[0] or ())
        raise ConfigError(
            f"need columns 'omega' and {args.col!r}; file has: {have}")
    if "fitted_flag" in rows[0]:
        rows = [r for r in rows if r["fitted_flag"] == "1"]  # the rows the sweep fitted
    try:
        pairs = [(float(r["omega"]), float(r[args.col])) for r in rows]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric data in {args.in_path}: {exc}") from exc
    try:
        fit = fit_exponent(pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"exponent = {fit.exponent:.17g}")
    print(f"stderr = {fit.stderr:.17g}")
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "fit": cmd_fit}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; keep the process-free contract
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Drive the command line interface end to end from a config file.

Writes a flat key = value config, runs `sweep` and `fit` through the
in-process entry point, and shows the artifacts: report.csv, manifest.txt
and the exit codes a shell would see.
"""

import tempfile
from pathlib import Path

from gradedheat.cli import main

CONFIG = """\
# point-mass potential on the line, five halvings of eps
group = euclidean1
half_width = 2.0
points = 256
potential = delta
mollifier_radius = 1.5
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125
T = 0.5
dt = 0.015625
norm = hnu2
"""

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(CONFIG)
        out = Path(tmp) / "results"

        print("$ gradedheat sweep --experiment existence --config run.cfg --out results/")
        code = main(["sweep", "--experiment", "existence",
                     "--config", str(cfg), "--out", str(out)])
        print(f"(exit code {code})\n")

        print("--- results/report.csv ---")
        print((out / "report.csv").read_text())
        print("--- results/manifest.txt ---")
        print((out / "manifest.txt").read_text())

        print("$ gradedheat fit --in results/report.csv --col norm_sup_t")
        code = main(["fit", "--in", str(out / "report.csv"), "--col", "norm_sup_t"])
        print(f"(exit code {code})")

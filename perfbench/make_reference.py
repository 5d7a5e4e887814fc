"""Regenerate reference.json from the current source tree.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right (reference.json
was written on the seed commit); a change that alters results on purpose
regenerates it and says why.  One traced operation per workload supplies
the exact counts.
"""

import hashlib
import json
from pathlib import Path

import workloads
from tracing import EXACT_COUNTS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def _sweep_reference(state) -> dict:
    report = state["report_dir"]
    body = (report / "report.csv").read_bytes()
    rows = [line.split(",") for line in body.decode().splitlines()[1:]]
    return {
        "records": [[float(r[0]), float(r[1]), float(r[2]), int(r[3])] for r in rows],
        "exponent": workloads.manifest_exponent(report / "manifest.txt"),
        "report_sha256": hashlib.sha256(body).hexdigest(),
    }


def main() -> None:
    workloads.use_checkout_source(ROOT)
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(ROOT / ".perfbench_out" / name / "reference", seed=0)
        workload.prepare(state)
        with Tracer() as tracer:
            outcome = workload.operation(state)
        if tracer.missing:
            raise RuntimeError(f"trace wrappers missing: {tracer.missing}")
        if isinstance(workload, workloads.Sweep):
            ref = _sweep_reference(state)
        else:
            ref = {"gap": outcome[1]}
        problems = workload.check(state, outcome, ref).problems
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        layers = layer_metrics(tracer.spans, workload.threads)
        ref["exact_counts"] = {m: layers[m] for m in EXACT_COUNTS}
        out[name] = ref
        print(name, json.dumps(ref["exact_counts"]))
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

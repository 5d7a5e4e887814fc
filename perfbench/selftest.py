"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the metric names a run emits match BENCHMARK.json, each with
its unit, for both the untraced (end-to-end) and traced (per-layer) runs,
that the self-time arithmetic handles nested and parallel children, and
that epsilons failing inside a sweep are counted.  Runs the cheapest
workload for one second each way.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _emitted(trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "e1_uniqueness",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
    return result["metrics"]


def check_metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _emitted(trace)
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m.get("unit") for name, m in metrics.items()}
        assert got == want, f"{section}: emitted {got}, BENCHMARK.json has {want}"
        for name, m in metrics.items():
            assert isinstance(m["value"], (int, float)), (name, m)


def check_self_times() -> None:
    def span(i, parent, start, end):
        return SimpleNamespace(id=i, parent=parent, start=start, end=end, cover_end=end)

    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 5.0), span(3, 1, 2.0, 6.0),  # overlap: parallel workers
             span(4, 2, 1.5, 2.5),
             span(5, 1, 9.0, 12.0)]                        # runs past its parent
    own = self_times(spans)
    assert own == {1: 10.0 - 6.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 3.0}, own


def check_failed_eps() -> None:
    """A sweep whose finer eps trip the resolution guard: the failures are
    caught inside the harness, and the trace must still count them."""
    workloads.use_checkout_source(ROOT)
    from gradedheat import cli

    out = ROOT / ".perfbench_out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "coarse.cfg"
    cfg.write_text(workloads.WORKLOADS["h1_existence"].config
                   .replace("points = 16,16,32", "points = 16"))
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", "--experiment", "existence", "--config", str(cfg),
                         "--out", str(out / "report")])
    layers = layer_metrics(tracer.spans, threads=2)
    assert code == 1 and not tracer.missing, (code, tracer.missing)
    assert layers["harness.eps_attempted"] == 4, layers
    assert 1 <= layers["harness.eps_failed"] <= 3, layers


if __name__ == "__main__":
    check_self_times()
    check_failed_eps()
    check_metric_names()
    print("perfbench self-test passed")

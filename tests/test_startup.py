"""Startup footprint: numpy and networkx load only where they are used.

``repro serve``, its pool workers and a uniform-graph run import neither
numpy nor networkx (nor hypothesis or matplotlib); the SBM generator and
the NetworkX references import theirs as they run.  Every check runs in a
fresh interpreter, because this test process has loaded them all.
"""

import json
import subprocess
import sys

from helpers import requires_numpy, subprocess_env

HEAVY = ("hypothesis", "matplotlib", "networkx", "numpy")


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        check=True, timeout=120, env=subprocess_env()).stdout
    return json.loads(out.splitlines()[-1])


_LEAN_SERVE = """
import json, sys
import repro, repro.cli, repro.serve
from repro.harness.runner import run_scenario
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario
from repro.serve import ScenarioService, ServeConfig

HEAVY = set(json.loads(sys.argv[2]))
scenario = Scenario(
    name="lean", algorithm="bfs", chip=ChipSpec(side=4),
    dataset=DatasetSpec(vertices=40, edges=200, num_increments=4,
                        sampling="snowball", seed=3, generator="uniform"))
record = run_scenario(scenario)
service = ScenarioService(ServeConfig(port=0, jobs=1, store=sys.argv[1]))
service.start()
try:
    job, status = service.submit(scenario.spec_dict(), "lean")
    job.wait_until(lambda: job.terminal, 120)
    # eval is a builtin, so the task pickles by reference and evaluates
    # its expression in the worker.
    worker = service.pools[0].run(
        eval, (f"sorted({HEAVY!r} & set(__import__('sys').modules))",))
finally:
    service.stop()
print(json.dumps({
    "cycles": record["total_cycles"], "status": status, "state": job.state,
    "served": service.record_bytes(job.id) is not None,
    "worker": worker.value, "process": sorted(HEAVY & set(sys.modules)),
}))
"""


def test_serve_and_a_uniform_run_load_no_heavy_library(tmp_path):
    out = run_python(_LEAN_SERVE, str(tmp_path / "store.jsonl"),
                     json.dumps(HEAVY))
    assert out["cycles"] > 0
    assert (out["status"], out["state"], out["served"]) == (201, "done", True)
    assert out["worker"] == [], "pool worker loaded " + ", ".join(out["worker"])
    assert out["process"] == [], "process loaded " + ", ".join(out["process"])


_ON_USE = """
import json, sys
from repro.algorithms.bfs import StreamingBFS
from repro.baselines import build_networkx
from repro.harness.runner import materialize_dataset
from repro.harness.scenario import DatasetSpec

loaded = {"start": sorted({"numpy", "networkx"} & set(sys.modules))}
dataset = materialize_dataset(DatasetSpec(vertices=40, edges=200,
                                          num_increments=4, seed=3))
loaded["sbm"] = sorted({"numpy", "networkx"} & set(sys.modules))
edges = dataset.prefix_edges(dataset.num_increments)
levels = StreamingBFS(root=0).reference(build_networkx(edges, 40), root=0)
loaded["reference"] = sorted({"numpy", "networkx"} & set(sys.modules))
print(json.dumps({"loaded": loaded, "edges": [[e.src, e.dst] for e in edges],
                  "levels": sorted(levels.items())}))
"""


@requires_numpy
def test_sbm_and_the_reference_load_their_libraries_as_they_run():
    from repro.algorithms.bfs import StreamingBFS
    from repro.baselines import build_networkx
    from repro.harness.runner import materialize_dataset
    from repro.harness.scenario import DatasetSpec

    out = run_python(_ON_USE)
    assert out["loaded"] == {"start": [], "sbm": ["numpy"],
                             "reference": ["networkx", "numpy"]}
    # Both still answer as they do in this process, which loaded both first.
    dataset = materialize_dataset(DatasetSpec(vertices=40, edges=200,
                                              num_increments=4, seed=3))
    edges = dataset.prefix_edges(dataset.num_increments)
    assert out["edges"] == [[e.src, e.dst] for e in edges]
    levels = StreamingBFS(root=0).reference(build_networkx(edges, 40), root=0)
    assert out["levels"] == [list(item) for item in sorted(levels.items())]


_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from repro._compat import HAVE_NUMPY
from repro.datasets.sbm import SBMParams, generate_sbm

try:
    generate_sbm(SBMParams(num_vertices=40, num_edges=200, seed=3))
    error = None
except RuntimeError as exc:
    error = str(exc)
print(json.dumps({"have_numpy": HAVE_NUMPY, "error": error}))
"""


def test_blocked_numpy_reads_as_missing():
    out = run_python(_NUMPY_BLOCKED)
    assert out["have_numpy"] is False
    assert out["error"].startswith("SBM dataset generation requires numpy")

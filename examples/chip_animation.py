#!/usr/bin/env python3
"""Visualising parallel control transfer over the chip (the paper's animations).

The paper renders animations from simulation traces showing how streaming
dynamic BFS moves parallel control over the cellular grid.  This example
runs one declarative harness scenario through
:func:`repro.harness.run_scenario_traced`, which captures an activity frame
every ``frames_every`` cycles (one character per compute cell, ``#`` =
active that cycle) and writes a Chrome trace-event JSON of the run — open
``chip_trace.json`` in Perfetto (https://ui.perfetto.dev) to see the phase
spans.  Instrumentation is observer-only: the record returned here is
byte-identical to an untraced ``run_scenario``.

The full frame stack is additionally saved to ``chip_trace.npz`` (frame
capture itself is stdlib-only; the export, like the suite's SBM dataset,
needs numpy).

The workload is the registered ``chip-animation`` harness suite, and the
record lands in the shared demo store (``results/demo.jsonl``), so the
same measurement can be rebuilt later without re-simulating::

    repro report --preset chip-animation --store results/demo.jsonl

Run with:  python examples/chip_animation.py
"""

from repro.harness import ResultStore, get_suite
from repro.harness.runner import run_scenario_traced


def main() -> None:
    # The exact spec lives in the suite registry (shared with `repro suite
    # run --preset chip-animation`); tracing it changes nothing about the
    # record because instrumentation is observer-only.
    (scenario,) = get_suite("chip-animation")

    # frames_every=25: capture an activity frame every 25 cycles.
    record, device = run_scenario_traced(scenario, frames_every=25,
                                         trace_path="chip_trace.json")
    store = ResultStore("results/demo.jsonl")
    store.put(record)
    print(f"record stored in {store.path} "
          f"({scenario.spec_hash()[:16]}…)\n")

    trace = device.trace
    print(f"captured {len(trace.frames)} frames over "
          f"{device.simulator.cycle} cycles\n")
    print(trace.ascii_animation(max_frames=8))

    print("\nChrome trace saved to chip_trace.json "
          "(open in https://ui.perfetto.dev)")
    trace.save_npz("chip_trace.npz")
    print("full frame stack saved to chip_trace.npz "
          "(load with repro.arch.trace.TraceRecorder.load_npz)")
    print(f"total cycles: {record['total_cycles']}, "
          f"BFS reached {record['algo_metrics']['reached']} "
          f"of {scenario.dataset.vertices} vertices")


if __name__ == "__main__":
    main()

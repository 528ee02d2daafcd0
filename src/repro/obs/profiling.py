"""Profiling hooks: cProfile wrapping with collapsed-stack output.

``repro suite run --profile out.folded`` wraps the run in
:func:`profile_to_collapsed`, which drives the stdlib
:mod:`cProfile` and writes two side artifacts:

* ``<path>`` — collapsed stacks (``frame;frame;frame count`` per line),
  the input format of Brendan Gregg's ``flamegraph.pl`` and of most
  flamegraph viewers (e.g. https://www.speedscope.app),
* ``<path>.pstats`` — the raw profile for ``python -m pstats`` digging.

The collapse is *approximate*: cProfile records a caller→callee edge
multiplied-out call graph, not true stacks, so :func:`collapse_stats`
walks the caller edges greedily from each leaf and apportions inclusive
time.  That is plenty for "where does the cycle loop spend its time" —
use an external sampling profiler when exact stacks matter.

Wall-clock only, observer-only: profiles never touch result records.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

FrameKey = Tuple[str, int, str]


def _label(frame: FrameKey) -> str:
    filename, lineno, funcname = frame
    if filename.startswith("~"):  # builtins
        return funcname
    base = os.path.basename(filename)
    return f"{base}:{funcname}"


def collapse_stats(stats: pstats.Stats, max_depth: int = 64) -> Dict[str, float]:
    """Collapse a :class:`pstats.Stats` call graph into folded stacks.

    Returns ``{"root;caller;callee": seconds}`` with cumulative time
    apportioned down the heaviest caller chain of each function.  Entries
    are keyed leaf-last like ``flamegraph.pl`` expects.
    """
    # stats.stats: {func: (cc, nc, tt, ct, callers)} with callers
    # {caller_func: (cc, nc, tt, ct)} — ct here is time func spent when
    # called from that caller, which is exactly the edge weight we need.
    raw = stats.stats  # type: ignore[attr-defined]
    folded: Dict[str, float] = {}

    def chain_of(func: FrameKey) -> List[str]:
        chain = [_label(func)]
        seen = {func}
        current = func
        for _ in range(max_depth):
            callers = raw.get(current, (0, 0, 0, 0, {}))[4]
            best, best_ct = None, 0.0
            for caller, (_cc, _nc, _tt, ct) in callers.items():
                if caller not in seen and ct >= best_ct:
                    best, best_ct = caller, ct
            if best is None:
                break
            chain.append(_label(best))
            seen.add(best)
            current = best
        chain.reverse()
        return chain

    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        if tt <= 0:
            continue
        key = ";".join(chain_of(func))
        folded[key] = folded.get(key, 0.0) + tt
    return folded


def write_collapsed(folded: Dict[str, float], path: str | os.PathLike,
                    scale: float = 1000.0) -> Path:
    """Write folded stacks, weights scaled to integer milliseconds."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for key in sorted(folded):
        weight = int(round(folded[key] * scale))
        if weight > 0:
            lines.append(f"{key} {weight}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@contextmanager
def profile_to_collapsed(path: str | os.PathLike) -> Iterator[cProfile.Profile]:
    """Profile the body; on exit write collapsed stacks + raw ``.pstats``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        write_collapsed(collapse_stats(stats), path)
        stats.dump_stats(str(path) + ".pstats")

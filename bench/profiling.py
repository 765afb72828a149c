"""``--profile``: cProfile one segment per workload, bucketed by layer.

The cross-check for the span shares of the traced run: self time per
``src/repro/<package>`` plus buckets for what spans cannot see inside
(asyncio, pickle, sockets, epoll).  cProfile taxes every Python call
and no native code, so the proportions are a guide to *where to look*,
never a measurement; results go to ``bench/out/`` only.
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
from collections import Counter
from typing import Dict, List

from bench.run import write_out
from bench.segment import run_segment
from bench.workloads import WORKLOADS, make_script

_NATIVE = (("pickle", "pickle"), ("socket", "socket"), ("epoll", "epoll"), ("select", "epoll"))


def bucket_of(filename: str, function: str) -> str:
    filename = filename.replace("\\", "/")
    if "/src/repro/" in filename:
        head = filename.split("/src/repro/", 1)[1].split("/", 1)[0]
        return "repro." + head.removesuffix(".py")
    if "/bench/" in filename:
        return "bench"
    if "/asyncio/" in filename:
        return "asyncio"
    if filename == "~":  # built-in: tell the interesting native calls apart
        for needle, bucket in _NATIVE:
            if needle in function:
                return bucket
        return "builtins"
    for needle, bucket in _NATIVE:
        if f"/{needle}" in filename:
            return bucket
    return "stdlib"


def profile_workload(name: str, seed: int) -> Dict[str, float]:
    workload = WORKLOADS[name]
    script = make_script(workload, seed)
    asyncio.run(run_segment(workload, script))  # warm-up, unprofiled
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        asyncio.run(run_segment(workload, script))
    finally:
        profiler.disable()
    self_s: Counter = Counter()
    for (filename, _line, function), (_cc, _nc, tt, _ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        self_s[bucket_of(filename, function)] += tt
    total = sum(self_s.values())
    return {bucket: seconds / total for bucket, seconds in self_s.most_common()}


def run_profile(names: List[str], seed: int) -> int:
    for name in names:
        shares = profile_workload(name, seed)
        path = write_out(f"profile-{name}-seed{seed}.json", shares)
        print(f"{name}: self-time shares under cProfile (wrote {path})")
        for bucket, share in shares.items():
            if share >= 0.005:
                print(f"  {bucket:24s} {share:6.1%}")
    return 0

"""The workload's process: runs CLI call lists in-process through cli.main.

Usage: python3 bench/worker.py PLAN.json

The plan (written by run.py) names the checkout root, the warm-up and
measured call lists, the measuring window and whether to trace.  One client
makes sequential calls (closed loop, no threads of its own).  The result,
with per-call times, exit codes, report digests, layer metrics of traced
passes, peak memory and the environment, goes to the plan's ``out`` path.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import sys
import time

import hostspeed
from tracer import Tracer, pass_metrics


def run_pass(cli, calls):
    """Run the call list once; each call's time is also scaled by the host
    speed probed just before and just after it (see hostspeed.py)."""
    out = []
    speed = hostspeed.probe()
    for call in calls:
        path = call["argv"][call["argv"].index("--out") + 1]
        if os.path.exists(path):
            os.remove(path)
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = cli.main(call["argv"])
        except Exception as exc:  # a crash counts as a failed call, not a lost run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        before, speed = speed, hostspeed.probe()
        digest = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        out.append({"label": call["label"], "verb": call["verb"],
                    "seconds": seconds, "probe_s": [before, speed],
                    "scaled_s": hostspeed.normalize(seconds, before, speed),
                    "rc": rc, "digest": digest})
    return {"calls": out, "wall_s": sum(c["seconds"] for c in out),
            "scaled_wall_s": sum(c["scaled_s"] for c in out)}


def run_window(seconds, one_round):
    """Repeat ``one_round`` while at least half a round fits in the window."""
    rounds = 0
    start = time.perf_counter()
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return


def traced_pass(skconverse, cli, calls, tracer):
    tracer.reset()
    tracer.install(skconverse)
    try:
        one = run_pass(cli, calls)
    finally:
        tracer.uninstall()
    one["layers"] = pass_metrics(tracer)
    return one


def peak_rss_mb():
    """This process's own high-water resident set size.

    ru_maxrss would also count the parent's resident set at fork time.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import skconverse
    import skconverse.cli as cli

    if not os.path.abspath(skconverse.__file__).startswith(src + os.sep):
        print(f"error: imported skconverse from {skconverse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "SKCONVERSE_THREADS": os.environ.get("SKCONVERSE_THREADS", "unset"),
        "blas_threads": blas_threads(),
    }

    for argv in plan["warmup"]:
        cli.main(argv)
    result = {"env": env, "passes": [], "traced": [], "ref": None}
    calls, passes, traced = plan["calls"], result["passes"], result["traced"]
    if not plan["trace"]:
        run_window(plan["seconds"], lambda: passes.append(run_pass(cli, calls)))
    else:
        # untraced and traced passes alternate, so both see the same machine
        tracer = Tracer()

        def one_round():
            passes.append(run_pass(cli, calls))
            traced.append(traced_pass(skconverse, cli, calls, tracer))

        run_window(plan["seconds"], one_round)
        if plan["ref_calls"]:
            result["ref"] = run_pass(cli, plan["ref_calls"])
    result["peak_rss_mb"] = peak_rss_mb()
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""skconverse benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-hyptest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, with a table

Each run generates the workload's inputs from the seed, times fresh
interpreters importing the CLI (``setup_s``), then starts one worker process
that drives ``skconverse.cli.main(argv)`` sequentially: a warm-up on tiny
inputs, then whole passes of the workload's call list for ``--seconds``.
Times are scaled by the host speed probed around them (``hostspeed.py``):
``wall_s`` is the median over passes of the scaled pass time, ``setup_s``
the median of scaled start-up times; the measured medians are printed as
``raw_wall_s`` and ``raw_setup_s``.
Every report is checked against references in ``oracles.py`` that share no
code with the library, and must be byte-identical across passes.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the worker alternates untraced and traced passes (see
``tracer.py``), then makes one pass on the reference seed's inputs whose
report digests are compared with ``reference_digests.json``; the last line
holds the per-layer metrics.  Everything else is printed above it, one metric per
line with its unit, and the full record is written to
``.bench_work/results/``.  A single workload exits 0 whenever it ran (the
result says whether the outputs were correct); ``all`` exits 1 if any check
failed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORK = ".bench_work"
SETUP_STARTS = 7
WORKER_TIMEOUT_S = 170
VERBS = ("beta", "smooth", "scan", "bound", "reduce", "fuzz")
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import skconverse.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t, cli.__file__)\n"
)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # leave the library's thread default (1) in force
    env.pop("SKCONVERSE_THREADS", None)
    return env


def _fresh(root, code):
    return subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=60, check=True).stdout.split()


def measure_setup(root):
    """Fresh interpreters' time to import skconverse.cli and build the parser.

    Each timed start is followed by a start-up probe (hostspeed.py) and
    scaled by it.  Returns the median of the scaled times and the median of
    the raw ones.  The first pair is not counted: it fills the file cache.
    """
    times, scaled = [], []
    for i in range(SETUP_STARTS + 1):
        out = _fresh(root, SETUP_CODE)
        if not os.path.abspath(out[1]).startswith(os.path.join(root, "src") + os.sep):
            raise RuntimeError(f"fresh interpreter imported {out[1]}")
        probe_s = float(_fresh(root, hostspeed.STARTUP_PROBE_CODE)[0])
        if i:
            times.append(float(out[0]))
            scaled.append(hostspeed.normalize_startup(times[-1], probe_s))
    return statistics.median(scaled), statistics.median(times)


def src_lines(root):
    lines = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "skconverse", "*.py"))):
        with open(path, "rb") as fh:
            lines[os.path.basename(path)[:-3]] = fh.read().count(b"\n")
    return lines


def _plan_calls(calls):
    return [{"label": c.label, "verb": c.verb, "argv": c.argv} for c in calls]


def run_workload(name, seed, seconds, trace, root):
    work = os.path.join(WORK, name, f"s{seed}")
    ref_dir = os.path.join(WORK, name, f"s{workloads.REF_SEED}")
    shutil.rmtree(work, ignore_errors=True)
    calls = workloads.build(name, seed, work)
    warm = workloads.build(name, seed, os.path.join(work, "warm"), small=True)
    ref_calls = None
    if trace and ref_dir != work:
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_calls = workloads.build(name, workloads.REF_SEED, ref_dir)
    setup = None if trace else measure_setup(root)

    plan_path = os.path.join(work, "plan.json")
    out_path = os.path.join(work, "worker.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"root": root, "seconds": seconds, "trace": bool(trace),
                   "warmup": [c.argv for c in warm], "calls": _plan_calls(calls),
                   "ref_calls": _plan_calls(ref_calls) if ref_calls else None,
                   "out": out_path}, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                   cwd=root, env=child_env(root), stdout=sys.stderr,
                   timeout=WORKER_TIMEOUT_S, check=True)
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)

    problems = check_outputs(calls, res)
    measured = res["passes"] + res["traced"] + ([res["ref"]] if res["ref"] else [])
    attempted = sum(len(p["calls"]) for p in measured)
    failed = sum(1 for p in measured for c in p["calls"] if c["failed"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": res["env"] | {"SKCONVERSE_THREADS_outside": os.environ.get(
            "SKCONVERSE_THREADS", "unset")},
        "src_lines": src_lines(root),
        "report_digest": workload_digest(res["passes"][0]),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "passes": res["passes"], "traced": res["traced"], "ref": res["ref"],
    }
    record["end_to_end"] = end_to_end(res, setup, attempted, failed)
    if trace:
        ref_pass = res["ref"] or res["passes"][0]
        record["per_layer"] = per_layer(name, res, ref_pass, record["src_lines"])
        if abs(record["per_layer"]["trace.self_coverage"] - 1.0) > 0.01:
            problems["trace"] = ["layer self times do not add up to the traced wall time"]
    shutil.rmtree(work, ignore_errors=True)
    if ref_dir != work:
        shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}-s{seed}-t{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def check_outputs(calls, res):
    """Mark failed calls in ``res`` in place; return the problems found.

    A call fails when it exits non-zero, when its report differs from the
    first report of the same call in this run, or when the report fails its
    check (then every run of that call counts as failed).
    """
    problems = {}
    for call in calls:
        path = call.argv[call.argv.index("--out") + 1]
        try:
            with open(path, encoding="utf-8") as fh:
                bad = call.check(fh.read())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            bad = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if bad:
            problems[call.label] = bad
    first = {}
    for p in res["passes"] + res["traced"]:
        for c in p["calls"]:
            want = first.setdefault(c["label"], c["digest"])
            c["failed"] = (c["rc"] != 0 or c["digest"] is None
                           or c["digest"] != want or c["label"] in problems)
            if c["digest"] != want:
                problems.setdefault(c["label"], []).append("report bytes differ between passes")
    if res["ref"]:
        for c in res["ref"]["calls"]:
            c["failed"] = c["rc"] != 0 or c["digest"] is None
    return problems


def workload_digest(one_pass):
    joined = "".join(c["digest"] or "-" for c in one_pass["calls"])
    return hashlib.sha256(joined.encode()).hexdigest()


def _verb_seconds(one_pass, key="seconds"):
    out = dict.fromkeys(VERBS, 0.0)
    for c in one_pass["calls"]:
        out[c["verb"]] += c[key]
    return out


def end_to_end(res, setup, attempted, failed):
    """``wall_s``, ``setup_s`` and the per-verb times are medians of seconds
    scaled to the reference host speed (hostspeed.py); ``raw_*`` are the
    medians of the measured seconds."""
    passes = res["passes"]
    m = {"wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
         "raw_wall_s": statistics.median(p["wall_s"] for p in passes)}
    if setup is not None:
        m["setup_s"], m["raw_setup_s"] = setup
    m["peak_rss_mb"] = res["peak_rss_mb"]
    m["probe_s"] = statistics.median(c["probe_s"][1] for p in passes for c in p["calls"])
    per_verb = [_verb_seconds(p, "scaled_s") for p in passes]
    for verb in VERBS:
        if per_verb[0][verb] > 0:
            m[f"{verb}_s"] = statistics.median(v[verb] for v in per_verb)
    m["failed_frac"] = failed / attempted
    m["passes"] = len(passes)
    return m


def per_layer(name, res, ref_pass, lines):
    traced = res["traced"]
    for p in traced:
        p["layers"].update({f"cli.{v}_s": t for v, t in _verb_seconds(p).items()})
    m = {}
    for k in traced[0]["layers"]:
        if k.endswith("_s"):
            m[k] = statistics.median(p["layers"][k] for p in traced)
            if not k.startswith("trace."):
                # the result line carries layer times as shares of the pass:
                # a layer the workload never calls takes exactly 0 s in every
                # run, which is no measurement of time
                m[k[:-2] + "_share"] = statistics.median(
                    p["layers"][k] / p["wall_s"] for p in traced)
        else:
            # counts repeat in every pass; median_low keeps them whole numbers
            m[k] = statistics.median_low(p["layers"][k] for p in traced)
    # scaled like wall_s, so that host drift between passes does not swamp
    # the overhead; shares and coverage above use the raw pass times
    wall = statistics.median(p["scaled_wall_s"] for p in traced)
    untraced = statistics.median(p["scaled_wall_s"] for p in res["passes"])
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = wall - untraced
    m["trace.self_coverage"] = statistics.median(
        p["layers"]["trace.layer_self_s"] / p["wall_s"] for p in traced)
    with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(name, {})
    m["cli.report_digest_changed"] = sum(
        1 for c in ref_pass["calls"] if reference.get(c["label"]) != c["digest"])
    m["src.lines"] = sum(lines.values())
    for mod, n in lines.items():
        m[f"src.lines.{mod}"] = n
    return m


def update_reference(name, one_pass):
    path = os.path.join(HERE, "reference_digests.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference[name] = {c["label"]: c["digest"] for c in one_pass["calls"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio", "_share", "_headroom", "_coverage")):
        return "ratio"
    return "count"


def report(record, bench):
    """Print every metric with its unit; return the driver's result object."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for key, value in record["env"].items():
        print(f"  env {key} = {value}")
    print(f"  report_digest = {record['report_digest']}")
    for label, bad in record["problems"].items():
        for text in bad:
            print(f"  CHECK FAILED {label}: {text}")
    measured = dict(record["end_to_end"])
    wanted = bench["end_to_end"]
    if record["trace"]:
        measured.update(record["per_layer"])
        wanted = bench["per_layer"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for key, value in measured.items():
        print(f"  {key:34s} {value:.6g} {units.get(key) or unit_of(key)}")
    return {
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help=f"store this run's report digests as the reference "
                         f"(needs --seed {workloads.REF_SEED})")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.update_reference and args.seed != workloads.REF_SEED:
        ap.error(f"--update-reference needs --seed {workloads.REF_SEED}")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skconverse", "cli.py")):
        print("error: src/skconverse not found; run from the root of a skconverse "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        start = time.perf_counter()
        record = run_workload(name, args.seed, seconds, args.trace, root)
        results[name] = report(record, bench)
        print(f"  run took {time.perf_counter() - start:.1f} s")
        if args.update_reference:
            update_reference(name, record["passes"][0])
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""dinersim benchmark: times three workloads end to end and, with --trace 1,
breaks one of them down by layer.

    python3 perfbench/run.py --workload dining-long --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The script builds
bin/dinersim.exe and perfbench/probe.exe with dune, then repeats the
workload sequentially, one process at a time, within --seconds.
Each repetition is checked (exit code, report verdicts, violations,
truncation, byte-identical stripped reports across repetitions). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics at --trace 0 and the per-layer metrics at
--trace 1. A fuller record (every repetition, exact counts, environment)
goes to .perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
DINERSIM = os.path.join(ROOT, "_build", "default", "bin", "dinersim.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 150
JOBS = 1

# Workload sizes (see README.md for why each was chosen).
DINING_HORIZON = 50_000
SCALE_N = 100_000
SCALE_BUDGET = 2_000_000
MC_HORIZON = 15
MC_MAX_SCHEDULES = 1_000_000
MC_ARGS = ["--algo", "wf", "--topology", "pair", "--delta", "3", "--phi", "1", "--eat-ticks", "1"]
SETUP_SAMPLES = 21


class Failed(Exception):
    """The benchmark cannot run here (no source tree, build failure)."""


def declared_units():
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise Failed("BENCHMARK.json not found: run from the root of a dinersim source checkout")
    b = read_json(path)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]}, {m["name"]: m["unit"] for m in b["per_layer"]})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(argv, cwd):
    """Run one child to completion, sequentially; returns (wall_s, exit code,
    peak RSS in MB). os.wait4 gives this child's own resource usage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(*args, cwd):
    out = subprocess.run([PROBE, *map(str, args)], cwd=cwd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {out.stderr.decode()[-300:]}")
    return out.stdout.decode().strip()


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Workloads. Each rep(work, seed) runs one full execution and returns a dict:
#   wall, rss_mb, rc, ops, failed, proc_ticks, schedules,
#   key (what must repeat exactly), counts (exact simulated statistics).


def report_path(work):
    return os.path.join(work, "report.json")


def dining_cmd(seed, horizon, work):
    return [DINERSIM, "dining", "--seed", str(seed), "--horizon", str(horizon), "--report", report_path(work)]


def mc_cmd(seed, horizon, work):
    return [
        DINERSIM, "check", *MC_ARGS, "--horizon", str(horizon), "--seed", str(seed), "-j", str(JOBS),
        "--max-schedules", str(MC_MAX_SCHEDULES), "--out", os.path.join(work, "cex"), "--report", report_path(work),
    ]


def run_report(argv, work):
    path = report_path(work)
    if os.path.exists(path):
        os.remove(path)
    wall, rc, rss = run_child(argv, work)
    report = read_json(path) if rc in (0, 1) and os.path.exists(path) else None
    key = probe("strip", path, cwd=work) if report is not None else None
    return wall, rc, rss, report, key


def rep_dining(work, seed):
    wall, rc, rss, report, key = run_report(dining_cmd(seed, DINING_HORIZON, work), work)
    ok = rc == 0 and report is not None and all(c["holds"] for c in report["checks"])
    counts = {}
    if report is not None:
        m = report["metrics"]
        counts = {
            "dining.meals": m["counters"].get("dining.din.meals", 0),
            "engine.msgs_sent": m["gauges"]["engine.sent_total"],
        }
    n = report["config"]["n"] if report else 5
    return dict(wall=wall, rss_mb=rss, rc=rc, ops=1, failed=0 if ok else 1, proc_ticks=n * DINING_HORIZON,
                schedules=1, key=key, counts=counts)


def rep_mc(work, seed):
    wall, rc, rss, report, key = run_report(mc_cmd(seed, MC_HORIZON, work), work)
    if report is None:
        return dict(wall=wall, rss_mb=rss, rc=rc, ops=1, failed=1, proc_ticks=0, schedules=1, key=None,
                    counts={})
    sched = report["schedules"]
    failed = sched if report["truncated"] else report["violations"]
    counts = {"mc.schedules": sched, "mc.pruned": report["pruned"], "mc.max_decisions": report["max_decisions"]}
    n = 2  # --topology pair
    return dict(wall=wall, rss_mb=rss, rc=rc, ops=sched, failed=failed, proc_ticks=sched * n * MC_HORIZON,
                schedules=sched, key=key, counts=counts)


def scale_counts(r):
    """The exact counts of a scale-ring result; they must repeat exactly."""
    return {"dining.meals": r["meals"], "engine.msgs_sent": r["msgs_sent"], "trace.events": r["trace_events"],
            "engine.proc_ticks": r["proc_ticks"]}


def rep_scale(work, seed):
    out = os.path.join(work, "scale.json")
    if os.path.exists(out):
        os.remove(out)
    wall, rc, rss = run_child([PROBE, "scale-ring", str(seed), str(SCALE_N), str(SCALE_BUDGET), out], work)
    if rc != 0 or not os.path.exists(out):
        return dict(wall=wall, rss_mb=rss, rc=rc, ops=1, failed=1, proc_ticks=0, schedules=1, key=None,
                    counts={}, setup_s=None)
    r = read_json(out)
    counts = scale_counts(r)
    return dict(wall=wall, rss_mb=rss, rc=rc, ops=1, failed=0, proc_ticks=r["proc_ticks"], schedules=1,
                key=json.dumps(counts, sort_keys=True), counts=counts, setup_s=r["setup_s"])


def probe_setup(workload, knobs):
    """Set-up time of one execution of a CLI workload (one schedule for
    mc-check), measured in-process by `probe setup`."""

    def measure(work, seed):
        return float(probe("setup", workload, seed, SETUP_SAMPLES, *knobs, cwd=work))

    return measure


WORKLOADS = {
    "dining-long": dict(rep=rep_dining, knobs=[DINING_HORIZON]),
    "scale-ring": dict(rep=rep_scale, knobs=[SCALE_N, SCALE_BUDGET]),
    "mc-check": dict(rep=rep_mc, knobs=[MC_HORIZON, MC_MAX_SCHEDULES]),
}
for _name, _spec in WORKLOADS.items():
    # scale-ring times its own set-up inside each repetition.
    _spec["setup"] = probe_setup(_name, _spec["knobs"]) if _name != "scale-ring" else None


# --------------------------------------------------------------------------


def build():
    for f in ("dune-project", "bin/dinersim.ml", "perfbench/probe.ml", "perfbench/dune"):
        if not os.path.isfile(os.path.join(ROOT, f)):
            raise Failed(f"{f} not found: run from the root of a dinersim source checkout")
    if shutil.which("dune") is None:
        raise Failed("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/dinersim.exe", "./perfbench/probe.exe"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise Failed("build timed out")
    if r.returncode != 0:
        raise Failed("build failed:\n" + r.stderr.decode()[-2000:])


def environment(args):
    def cmd(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=30).stdout.decode().strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = cmd(["git", "rev-parse", "HEAD"])
    else:
        commit = "unknown (not a git checkout)"
    return {
        "ocaml": cmd(["ocamlopt", "-version"]),
        "nproc": os.cpu_count(),
        "commit": commit,
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "workload": args.workload,
        "seed": args.seed,
        "jobs": JOBS,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_reps(spec, work, seed, seconds):
    """Sequential repetitions within `seconds` (at least one): another
    repetition starts only if a typical one still fits."""
    reps = []
    t0 = time.perf_counter()
    while True:
        # Set-up is sampled before every repetition, across the whole run.
        setup_s = spec["setup"](work, seed) if spec["setup"] else None
        reps.append(spec["rep"](work, seed))
        if setup_s is not None:
            reps[-1]["setup_s"] = setup_s
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall"] for r in reps)
        # Never start a repetition that would overrun the per-run limit.
        if reps[-1]["rc"] != 0 or elapsed + typical > seconds or elapsed + typical > 120:
            return reps


def end_to_end(reps, setup_samples, units):
    # Timings come from totals over the whole run, not medians of
    # repetitions: on a shared host the CPU can switch between speeds for
    # minutes at a time, and a median of repetitions then jumps from one
    # speed to the other while the run's total moves smoothly.
    wall = sum(r["wall"] for r in reps)
    values = {
        "wall_s": wall / len(reps),
        "setup_s": statistics.median(setup_samples),
        "proc_ticks_per_s": sum(r["proc_ticks"] for r in reps) / wall,
        "schedules_per_s": sum(r["schedules"] for r in reps) / wall,
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in reps]),
    }
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def traced(workload, spec, work, seed, untraced_wall, untraced_key, untraced_counts):
    tdir = os.path.join(work, "trace")
    os.makedirs(tdir, exist_ok=True)
    wall, rc, _ = run_child([PROBE, "trace", workload, str(seed), tdir, *map(str, spec["knobs"])], work)
    if rc != 0:
        return None, [f"traced run exited {rc}"]
    layers = read_json(os.path.join(tdir, "layers.json"))
    metrics = dict(layers["metrics"])
    metrics["trace.overhead_s"] = wall - untraced_wall
    problems = []
    # Both runs must be the same program: identical stripped report (or
    # identical counts, for scale-ring) and identical exact counts.
    if workload == "scale-ring":
        counts = scale_counts(read_json(os.path.join(tdir, "report.json")))
        if json.dumps(counts, sort_keys=True) != untraced_key:
            problems.append("traced counts differ from the untraced run")
    else:
        key = probe("strip", os.path.join(tdir, "report.json"), cwd=work)
        if key != untraced_key:
            problems.append("traced report differs from the untraced report")
    for k, v in untraced_counts.items():
        if k in metrics and int(metrics[k]) != int(v):
            problems.append(f"{k}: traced {int(metrics[k])} != untraced {int(v)}")
    layers["metrics"] = metrics
    return layers, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        e2e_units, layer_units = declared_units()
        build()
    except Failed as e:
        log(f"perfbench: {e}")
        return 2
    spec = WORKLOADS[args.workload]
    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    env = environment(args)
    problems = []

    # At --trace 1 half the time goes to untraced repetitions, the rest to
    # the traced run.
    reps = timed_reps(spec, work, args.seed, args.seconds / (2 if args.trace else 1))
    # 0 only when every scale-ring repetition failed (the run is then incorrect).
    setup_samples = [r["setup_s"] for r in reps if r.get("setup_s") is not None] or [0.0]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    keys = {r["key"] for r in reps}
    if len(keys) != 1 or None in keys:
        problems.append(f"repetitions are not byte-identical ({len(keys)} distinct stripped reports)")
    for r in reps:
        if r["rc"] != 0:
            problems.append(f"exit code {r['rc']}")
    counts = reps[0]["counts"]
    e2e = end_to_end(reps, setup_samples, e2e_units)

    record = {"environment": env, "repetitions": reps, "setup_samples_s": setup_samples, "counts": counts,
              "end_to_end": e2e}
    if args.trace:
        tr, tproblems = traced(args.workload, spec, work, args.seed, e2e["wall_s"]["value"], reps[0]["key"], counts)
        problems += tproblems
        record["traced"] = tr
        if tr is None:
            metrics = {}
        else:
            metrics = {
                k: {"value": int(tr["metrics"][k]) if u in ("count", "B") else tr["metrics"][k], "unit": u}
                for k, u in layer_units.items()
            }
    else:
        metrics = e2e
    record["problems"] = problems
    correct = failed == 0 and not problems and bool(metrics)
    record["correct"] = correct

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=2)
    # Keep the spans beside the result; drop the scratch working directory.
    spans = os.path.join(work, "trace", "spans.tsv")
    if os.path.exists(spans):
        shutil.copy(spans, os.path.join(results_dir, f"{args.workload}-seed{args.seed}-spans.tsv"))
    shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"perfbench: {p}")
    print(
        f"# {args.workload} seed={args.seed} reps={len(reps)} ocaml={env['ocaml']} nproc={env['nproc']} "
        f"commit={env['commit']} OCAMLRUNPARAM={env['OCAMLRUNPARAM']!r} jobs={JOBS} counts={json.dumps(counts)}"
    )
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

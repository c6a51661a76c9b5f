"""Benchmark of `hochschild-kit verify`: cold runs, end to end and per layer.

    python3 kitbench/run.py --workload order --seed 1 --seconds 35 --trace 0
    python3 kitbench/run.py --seed 1       # every workload, untraced and traced
    python3 kitbench/run.py --self-test    # the same workloads at bound 4

Run from the root of a source checkout; the kit is imported from `src/`.

Each sample is a fresh interpreter (kitbench/child.py), because every
`lru_cache` and `cached_property` in the kit is process-global and a CLI user
pays the cold cost on every run.  The suite calls of one workload share their
process, the way `verify --suite all` does.  Samples run one at a time, with
every thread-count knob pinned to 1, until `--seconds` is spent; the run
reports medians.

The workloads are fixed exhaustive sweeps, so there is no random input.  The
seed picks the hash seed of each child, which keeps hash randomisation in
play (a dependence on set or dict order fails the output gate) while a
failing run stays replayable, and the order in which the workloads of an
all-workload run are measured.

Output gate: every suite call must exit 0, say `"ok": true`, and print the
very document whose sha256 is in kitbench/reference.json.  A failed check or
a failed gate counts toward `fail_frac`.

Times are scaled to a reference host speed, because a shared host's speed
can swing by up to 1.7x within seconds (seen on a 2-core Xeon virtual
machine, in CPU time as much as in wall time).  Each child
times a fixed calibration loop before set-up and every 0.1 s during its
suite calls (child.SpeedProbe); the unscaled medians are printed as `raw.*`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced samples (kitbench/tracer.py) and prints the
per-layer metrics, including the tracing overhead.  The spans, counts and
`cache_info()` of the last traced sample go to
kitbench/results/trace-<workload>.json, and every run's samples to
kitbench/results/<workload>-trace<0|1>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# workload -> suite calls, run in this order in one process.  The bounds keep
# a sample between 0.3 and 6 s, so that a run of BENCHMARK.json's
# run_seconds holds several samples per workload.
WORKLOADS = {
    # rotation lattices: meet/join tables, semidistributivity, morphism
    # checks; morphism reuses the posets lattice cached.
    "order": (("lattice", 5), ("morphism", 5)),
    # the appendix tables: painted and shade enumeration over all ranks,
    # shadow fibers, series; no poset is built.
    "census": (("tables", 6),),
    # polytope certificates and cubic realizations: containment, full leq
    # and refinement orders, no meet tables.
    "certify": (("fan", 5), ("cubic", 4)),
}
SMOKE_BOUND = 4
# Times are scaled to a host on which one round of child.calibrate() takes
# this long, about its median on the 2-core machine of kitbench/baseline.json.
CALIBRATION_REF_S = 0.001
RUN_LIMIT_S = 170  # hard cap on one run, so that it ends within 180 s
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def machine_facts(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "commit": _commit(),
        "seed": seed,
    }


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# -- samples --------------------------------------------------------------------


def spawn(calls, hash_seed, deadline, trace_path=None):
    """Run one child; its result dict, or None when it failed or timed out."""
    env = {k: v for k, v in os.environ.items() if k != "HOCHSCHILD_KIT_THREADS"}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    argv = [f"{suite}:{bound}" for suite, bound in calls]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv = [sys.executable, str(HERE / "child.py"), repr(time.monotonic())] + argv
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"sample {calls} timed out", file=sys.stderr)
        return None
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"sample {calls} exited with {proc.returncode}", file=sys.stderr)
        return None
    result["hash_seed"] = hash_seed
    return result


def gate(sample, calls, reference):
    """(attempted, failed) operations of one sample.

    An operation is each check in a verify document, plus each suite call;
    a call fails unless it exits 0, reports ok and matches its digest.
    """
    if sample is None:
        return len(calls), len(calls)
    attempted = failed = 0
    for rec in sample["calls"]:
        attempted += rec["checks"] + 1
        failed += rec["failed_checks"]
        expected = reference.get(f"{rec['suite']}@{rec['bound']}")
        if rec["code"] != 0 or not rec["ok"] or rec["sha256"] != expected:
            failed += 1
    return attempted, failed


def spread(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(workload, calls, seconds, trace, rng, reference, deadline):
    """Samples of one workload until `seconds` are spent (at least one)."""
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{workload}.json" if trace else None
    start = time.monotonic()
    plain, traced, durations = [], [], []
    attempted = failed = 0
    while not durations or (
        time.monotonic() - start + statistics.median(durations) <= seconds
        and time.monotonic() + 2 * statistics.median(durations) < deadline
    ):
        began = time.monotonic()
        batch = [(plain, None)] + ([(traced, trace_path)] if trace else [])
        for bucket, path in batch:
            sample = spawn(calls, rng.randrange(1, 2**32), deadline, path)
            a, f = gate(sample, calls, reference)
            attempted, failed = attempted + a, failed + f
            if sample is None:
                return plain, traced, attempted, failed
            bucket.append(sample)
        durations.append(time.monotonic() - began)
    return plain, traced, attempted, failed


def speedup(round_s):
    """How much faster than the reference host a stretch of time ran.

    The mean over its calibration rounds of reference / measured round
    time: the probes are evenly spaced in time, and a wall time is the
    integral of the host's slowness over time.
    """
    return statistics.fmean(CALIBRATION_REF_S / r for r in round_s)


def speed(sample):
    """Speedup of a sample's suite calls; set-up's when too short to probe."""
    return speedup(sample["probe_round_s"] or sample["setup_round_s"])


def end_to_end(plain):
    return {
        "wall_s": spread([s["wall_s"] * speed(s) for s in plain]),
        "setup_s": spread([s["setup_s"] * speedup(s["setup_round_s"]) for s in plain]),
        "peak_rss_mb": spread([s["peak_rss_mb"] for s in plain]),
    }


def unscaled(plain):
    """Raw times, printed beside the scaled ones and kept in the results."""
    return {
        "raw.wall_s": spread([s["wall_s"] for s in plain]),
        "raw.setup_s": spread([s["setup_s"] for s in plain]),
        "raw.round_s": spread(
            [r for s in plain for r in s["probe_round_s"] + s["setup_round_s"]]
        ),
    }


def per_layer(plain, traced):
    out = {}
    for name in traced[0]["layers"]:
        timed = name.endswith(("_s", "_per_object"))
        out[name] = spread([
            s["layers"][name] * (speed(s) if timed else 1) for s in traced
        ])
    untraced = [s["elapsed_s"] * speed(s) for s in plain]
    out["trace.untraced_wall_s"] = spread(untraced)
    # each traced sample ran right after its untraced partner
    out["trace.overhead_s"] = spread([
        t["layers"]["trace.wall_s"] * speed(t) - u for t, u in zip(traced, untraced)
    ])
    return out


# -- reporting -----------------------------------------------------------------


def run_workload(name, calls, seconds, trace, rng, config, reference):
    """Measure one workload in one mode; the record of the run and its specs."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain, traced, attempted, failed = measure(
        name, calls, seconds, trace, rng, reference, deadline
    )
    specs = config["per_layer"] if trace else config["end_to_end"]
    stats, raw = {}, {}
    if plain and (traced or not trace):
        stats = per_layer(plain, traced) if trace else end_to_end(plain)
        raw = unscaled(plain)
    quartiles = lambda d: {k: dict(zip(("q1", "median", "q3"), v)) for k, v in d.items()}
    record = {
        "workload": name,
        "calls": [f"{s}@{b}" for s, b in calls],
        "trace": trace,
        "samples": {"untraced": plain, "traced": traced},
        "attempted": attempted,
        "failed": failed,
        "metrics": quartiles(stats),
        "raw": quartiles(raw),
    }
    return record, specs


def report_lines(record, specs):
    calls = ", ".join(record["calls"])
    n = len(record["samples"]["traced" if record["trace"] else "untraced"])
    lines = [f"{record['workload']}: {calls}; {n} samples"
             + (" (traced)" if record["trace"] else "")]
    for spec in specs:
        m = record["metrics"].get(spec["name"])
        if m is None:
            lines.append(f"  {spec['name']:28s} not measured")
            continue
        lines.append(
            f"  {spec['name']:28s} {m['median']:.6g} {spec['unit']}"
            f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={n})"
        )
    for name, m in record["raw"].items():
        lines.append(
            f"  {name:28s} {m['median']:.6g} s, unscaled, untraced"
            f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        )
    frac = record["failed"] / max(1, record["attempted"])
    lines.append(
        f"  {'fail_frac':28s} {frac:.6g} ratio  "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    return lines


def load_config():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())["sha256"]
    return config, reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload and mode "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hochschild_kit" / "cli.py").is_file():
        print(f"error: no hochschild_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config, reference = load_config()
    if args.self_test:
        return self_test(config, reference)
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    facts = machine_facts(args.seed)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    if args.workload is not None:
        jobs = [(args.workload, args.trace)]
    else:
        order = sorted(WORKLOADS)
        random.Random(args.seed).shuffle(order)
        jobs = [(w, t) for t in (0, 1) for w in order]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in jobs:
        rng = random.Random(f"{args.seed}/{name}/{trace}")
        record, specs = run_workload(
            name, WORKLOADS[name], seconds, trace, rng, config, reference
        )
        record["machine"] = facts
        path = RESULTS / f"{name}-trace{trace}-seed{args.seed}.json"
        path.write_text(json.dumps(record, indent=1))
        print("\n".join(report_lines(record, specs)))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if args.workload else f"{name}."
        for spec in specs:
            if spec["name"] in record["metrics"]:
                metrics[prefix + spec["name"]] = {
                    "value": record["metrics"][spec["name"]]["median"],
                    "unit": spec["unit"],
                }
            else:
                correct = False
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- self-test -----------------------------------------------------------------


def self_test(config, reference):
    """Every workload at bound 4: metrics, digest gate, trace accounting."""
    sys.path.insert(0, str(HERE))
    import child

    problems = []
    for name, calls in WORKLOADS.items():
        smoke = tuple((suite, SMOKE_BOUND) for suite, _ in calls)
        for trace in (0, 1):
            rng = random.Random(f"self-test/{name}/{trace}")
            record, specs = run_workload(name, smoke, 0, trace, rng, config, reference)
            lines = report_lines(record, specs)
            print("\n".join(lines))
            if record["failed"] or not record["metrics"]:
                problems.append(f"{name} trace={trace}: {record['failed']} failed")
            for spec in specs + [{"name": "fail_frac", "unit": "ratio"}]:
                if not any(
                    line.split()[:1] == [spec["name"]] and f" {spec['unit']} " in line
                    for line in lines
                ):
                    problems.append(f"{name}: {spec['name']} not printed with {spec['unit']}")
            if trace:
                problems += check_trace_file(name, RESULTS / f"trace-{name}.json")

        # the gate passes the real document, and fails it when one byte
        # changes (still valid JSON that says ok) or the reference is wrong
        sample = record["samples"]["untraced"][0]
        suite, bound = smoke[0]
        doc = _document(suite, bound)
        real = child.record(suite, bound, 0, doc)
        corrupted = child.record(
            suite, bound, 0, doc.replace('"detail": ""', '"detail": " "', 1)
        )
        if corrupted["sha256"] == real["sha256"] or not corrupted["ok"]:
            problems.append(f"{name}: could not corrupt the {suite} document")
        wrong = dict(reference, **{f"{suite}@{bound}": "0" * 64})
        cases = (
            ("real document", real, reference, False),
            ("corrupted document", corrupted, reference, True),
            ("wrong reference digest", real, wrong, True),
        )
        for label, rec, ref, should_fail in cases:
            trial = dict(sample, calls=[rec] + sample["calls"][1:])
            if (gate(trial, smoke, ref)[1] > 0) != should_fail:
                problems.append(f"{name}: gate misjudged the {label}")

    for problem in problems:
        print(f"self-test problem: {problem}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def _document(suite, bound):
    """The verify document of one suite call, made in this process."""
    import contextlib
    import io

    sys.path.insert(0, str(ROOT / "src"))
    from hochschild_kit.cli import main as cli_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["verify", "--suite", suite, "--bound", str(bound), "--format", "json"])
    return buf.getvalue()


def check_trace_file(name, path):
    """Layer self times plus the unwrapped remainder must add up to the wall."""
    doc = json.loads(path.read_text())
    wall = doc["metrics"]["trace.wall_s"]
    accounted = sum(doc["layer_self_s"].values()) + doc["metrics"]["trace.unwrapped_s"]
    problems = []
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"{name}: layer self times add up to {accounted}, wall is {wall}")
    if min(doc["self_s"]) < -1e-9:
        problems.append(f"{name}: negative self time")
    return problems


if __name__ == "__main__":
    raise SystemExit(main())

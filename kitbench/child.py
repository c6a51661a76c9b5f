"""One benchmark sample: a fresh interpreter that runs `hochschild-kit verify`.

Usage (the runner starts it; it is not meant to be run by hand):

    python3 kitbench/child.py SPAWNED SUITE:BOUND [SUITE:BOUND ...] [--trace FILE]

SPAWNED is the runner's `time.monotonic()` just before the spawn, so set-up
time covers interpreter start and the kit's imports.  The suite calls run in
this one process, in order, through `hochschild_kit.cli.main`, the way
`verify --suite all` shares its caches.  Calibration probes (SpeedProbe) run
during set-up and during the calls; their own time is taken off both.

Prints one JSON line: set-up and wall time, peak RSS, the probes' round
times, and per call the exit code, the verdict, the check counts and the
sha256 of the JSON document.  With --trace, per-layer metrics too, and the
spans go to FILE.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

SETUP_ROUNDS = 40  # calibration before the kit is imported
PROBE_ROUNDS = 2  # calibration per probe while the suite calls run
PROBE_PERIOD_S = 0.1


def record(suite: str, bound: int, code, doc: str) -> dict:
    """What the runner's output gate needs to know about one suite call."""
    try:
        parsed = json.loads(doc)
        checks = [c["ok"] is True for s in parsed["suites"] for c in s["checks"]]
        ok = parsed["ok"] is True
    except (ValueError, KeyError, TypeError):
        checks, ok = [], False
    return {
        "suite": suite, "bound": bound, "code": code, "ok": ok,
        "checks": len(checks), "failed_checks": checks.count(False),
        "bytes": len(doc.encode("utf-8")),
        "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
    }


def calibrate(rounds: int) -> float:
    """Seconds per round of a fixed pure-Python loop, independent of the kit.

    A round builds tuples, updates a dict, sorts and takes frozenset unions,
    like the kit's own inner loops, with the collector off so the kit's heap
    does not slow it.  The runner divides by it to cancel the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen = frozenset()
    for _ in range(rounds):
        table, items = {}, []
        for i in range(1000):
            key = (i % 251, (i * 7) % 127)
            table[key] = table.get(key, 0) + (i ^ (i >> 3))
            items.append((key[1], key[0], i & 1023))
        items.sort()
        for a, _, c in items[:400]:
            seen = seen | {a} if c & 1 else seen
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed / rounds


class SpeedProbe:
    """Runs PROBE_ROUNDS calibration rounds every PROBE_PERIOD_S while active.

    A shared host's speed changes from one second to the next, so a single
    calibration does not describe a sample that lasts several seconds;
    probes spread over the sample do.  Their time is kept apart so it can be
    taken off the sample's wall time.
    """

    def __init__(self):
        self.round_s = []  # seconds per round, one entry per probe
        self.spent_s = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def measure(self, rounds=PROBE_ROUNDS):
        start = time.perf_counter()
        self.round_s.append(calibrate(rounds))
        self.spent_s += time.perf_counter() - start

    def _probe(self, signum, frame):
        self.measure()


def main(argv) -> int:
    spawned = float(argv[0])
    trace_path = None
    if "--trace" in argv:
        at = argv.index("--trace")
        trace_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    calls = [(s, int(b)) for s, b in (arg.split(":") for arg in argv[1:])]

    with SpeedProbe() as setup_probe:
        setup_probe.measure(SETUP_ROUNDS)
        import hochschild_kit.cli
        import hochschild_kit.verify  # noqa: F401  (what `verify` imports on first use)

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([src, os.path.abspath(hochschild_kit.cli.__file__)]) != src:
        print(f"hochschild_kit imported from outside {src}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - spawned - setup_probe.spent_s

    tracer = None
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer().install()

    def verify(suite, bound):
        argv = ["verify", "--suite", suite, "--bound", str(bound), "--format", "json"]
        if tracer is not None:
            return tracer.call("cli.main", hochschild_kit.cli.main, (argv,))
        return hochschild_kit.cli.main(argv)

    outputs = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for suite, bound in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = verify(suite, bound)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    code = None
            outputs.append((code, buf.getvalue()))
        elapsed_s = time.perf_counter() - start

    records = [record(s, b, code, doc) for (s, b), (code, doc) in zip(calls, outputs)]
    result = {
        "setup_s": setup_s,
        "wall_s": elapsed_s - probe.spent_s,
        "elapsed_s": elapsed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_round_s": setup_probe.round_s,
        "probe_round_s": probe.round_s,
        "calls": records,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(
            elapsed_s,
            sum(r["checks"] for r in records),
            sum(r["bytes"] for r in records),
        )
        tracer.write(trace_path, result["layers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

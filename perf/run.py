"""The repo benchmark's one command.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload, prints every metric by name with its unit, checks
every answer against ``perf/reference.py``, and ends with one JSON line:
``correct``, ``attempted``, ``failed``, ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs traced (spans kept in memory, written to
``perf/out/trace-<workload>.json`` at exit) and reports the per-layer
ones.  End-to-end numbers only ever come from the untraced run.

Without ``--workload`` it runs all five, one after the other (so nothing
competes for the cores), and ``--out F`` collects their results in one
file for ``perf/compare.py``.  ``--smoke`` runs one block of token counts
and replays three batches: it checks the plumbing only.

A workload always runs in a child interpreter of its own (so peak RSS is
per workload), and this process, its supervisor, does not return before
every process the workload started has ended: the cluster's workers and
``multiprocessing``'s resource tracker, which outlives the interpreter
that started it and which nobody else would wait for.

Exit code: 0 when every answer was correct, 1 when any was not, 2 when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import json
import os
import signal
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT_DIR = os.path.join(PERF, "out")

#: The contract gives a run 180 s; dump every thread's stack and exit
#: non-zero before that rather than hang on a future nobody resolves.
WATCHDOG_S = 170
#: Seconds an orphan of a finished workload gets to end by itself (the
#: resource tracker does, at the end of its pipe) before it is killed.
ORPHAN_GRACE_S = 2.0

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv):
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts: checks the plumbing, measures nothing")
    parser.add_argument("--out", help="write the result as JSON to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv), spec


def prctl(option: int, value: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(option, value, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl failed")


def children() -> list:
    """The live or unreaped processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...; comm may hold spaces.
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap() -> None:
    """Waits until this process has no child left.  As a subreaper it
    inherits every orphan of a workload; one still alive after the grace
    is killed, and so is whatever it leaves behind in turn."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def kill_children(signum, frame):
    """The supervisor was told to stop: nothing of it may run on."""
    for child in children():
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass
    reap()
    sys.exit(128 + signum)


def run_one(args, spec):
    """One workload, in this interpreter."""
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    import_began = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perf: cannot import the program under test from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from timing import host_fingerprint
    import_s = time.perf_counter() - import_began
    host = host_fingerprint()

    seconds = min(args.seconds, 0.3) if args.smoke else args.seconds
    if args.trace:
        kind = "per_layer"
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        outcome = layers.run_traced(
            args.workload, args.seed, seconds, trace_path, args.smoke
        )
        outcome.metrics["bench.import_s"] = import_s
    else:
        kind = "end_to_end"
        outcome = workloads.run_untraced(
            args.workload, args.seed, seconds, args.smoke
        )

    metrics = {}
    for metric in spec[kind]:
        # A per-layer metric this workload never produced is a layer it
        # does not run: no work was done there.
        value = outcome.metrics[metric["name"]] if kind == "end_to_end" \
            else outcome.metrics.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:14s} {metric['name']:44s} {value:16.6f} {metric['unit']}")
    undeclared = sorted(set(outcome.metrics) - set(metrics))
    if undeclared:
        raise SystemExit(f"perf: metrics not declared in BENCHMARK.json: {undeclared}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**result, "workload": args.workload, "seed": args.seed,
                       "seconds": seconds, "trace": args.trace, "host": host,
                       "spread": outcome.spread}, handle, indent=1)
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


def supervise(args, spec):
    """Every workload in a child interpreter of its own, sequentially;
    each one's processes are all gone before the next starts."""
    prctl(PR_SET_CHILD_SUBREAPER, 1)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, kill_children)
    one = args.workload is not None
    names = [args.workload] if one else [w["name"] for w in spec["workloads"]]
    if not one:
        os.makedirs(OUT_DIR, exist_ok=True)
    combined = {"seed": args.seed, "runs": []}
    status = 0
    for workload in names:
        for trace in ((args.trace,) if one else (0, 1) if args.trace else (0,)):
            part = args.out if one else os.path.join(
                OUT_DIR, f"result-{workload}-trace{trace}.json"
            )
            command = [
                sys.executable, os.path.abspath(__file__), "--child",
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--out", part] if part else []) + (["--smoke"] if args.smoke else [])
            try:
                code = subprocess.run(command).returncode
            finally:
                reap()
            if code != 0:
                status = status or code
            elif not one:
                with open(part) as handle:
                    combined["runs"].append(json.load(handle))
    if args.out and not one:
        with open(args.out, "w") as handle:
            json.dump(combined, handle, indent=1)
    return status


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.child:
        return run_one(args, spec)
    return supervise(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""A pool-worker entry that reports how its process was started.

A worker imports this module to unpickle its target.  The first thing
the module does is note whether ``repro.serve.worker`` is already in
``sys.modules``: true only in a worker forked from a server that
preloaded it, false in a spawned worker (or one forked from a server
that could not import ``repro``).  Nothing of ``repro`` is imported
before that line.
"""

import sys

PRELOADED = "repro.serve.worker" in sys.modules

import json  # noqa: E402
import os  # noqa: E402


def probe_worker_main(out_dir, conn, worker_id, epoch):
    """Write ``{preloaded, pid, ppid}`` to ``out_dir``, then serve as
    :func:`repro.serve.worker.worker_main` does.  Use it as
    ``functools.partial(probe_worker_main, out_dir)``."""
    path = os.path.join(out_dir, f"worker-{worker_id}-{epoch}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump({
            "preloaded": PRELOADED, "pid": os.getpid(), "ppid": os.getppid(),
        }, handle)
    os.replace(path + ".tmp", path)  # a reader sees all of it or none
    from repro.serve.worker import worker_main

    worker_main(conn, worker_id, epoch)


def probes(out_dir, count, timeout=60.0):
    """The records of ``count`` probed workers, once all are written."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        names = sorted(
            n for n in os.listdir(out_dir) if n.endswith(".json")
        )
        if len(names) >= count or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    records = []
    for name in names:
        with open(os.path.join(out_dir, name)) as handle:
            records.append(json.load(handle))
    return records

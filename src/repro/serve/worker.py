"""The serve-cluster worker process: receive models once, evaluate batches.

:func:`worker_main` is the target of every pool process (forked from
the fork server that preloaded this module, or spawned).  A
worker is deliberately dumb — the detect/schedule/verify intelligence
lives in the router — and holds no scheduling state at all:

* ``("load", ShippedModel)`` — verify the envelope fail-closed
  (:meth:`~repro.serve.transport.ShippedModel.verify`) and cache the
  rebuilt registered model.  The router ships each model at most once
  per (worker, epoch), so this is the only time the multi-megabyte
  bundle crosses the pipe.
* ``("eval", BatchRequest)`` — :func:`_eval_result`: run the batches
  together through :func:`~repro.serve.faults.evaluate_batches_down_ladder`
  (one kernel pass when the engine can share one) and send back a
  :class:`~repro.serve.transport.BatchResult` of plain numbers — what an
  in-process service's pump thread runs too, without the pipe.
  Worker-side failures are caught and returned per batch as an
  ``error`` — the router decides retry vs. fail, the worker never dies
  on a bad batch.
* ``("ping",)`` / ``("stop",)`` — heartbeat and shutdown.

Everything a worker computes is a pure function of the shipped model
and the batch's features, which is what makes 1-worker and N-worker
clusters bit-identical: the same batches produce the same bitvectors no
matter which process evaluates them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.serve.batched_runtime import evaluate_registered_batch
from repro.serve.faults import evaluate_batches_down_ladder
from repro.serve.transport import (
    MSG_EVAL,
    MSG_LOAD,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESULT,
    MSG_STOP,
    BatchPart,
    BatchRequest,
    BatchResult,
)

__all__ = ["evaluate_batch", "worker_main"]


def evaluate_batch(
    registered,
    features: List[List[int]],
    verify_oracle: bool = False,
    engine: Optional[str] = None,
) -> Tuple[List[List[int]], dict, float, float, Optional[List[bool]]]:
    """Evaluate one batch of raw features against a registered model.

    :func:`~repro.serve.batched_runtime.evaluate_registered_batch`
    distilled to the plain numbers a
    :class:`~repro.serve.transport.BatchResult` carries (futures and
    spans stay with the facade).  ``engine`` overrides the
    registered engine.  Returns ``(bitvectors, phase_ms, inference_ms,
    data_encrypt_ms, oracle_ok)``.
    """
    evaluation = evaluate_registered_batch(
        registered, features, engine=engine, verify_oracle=verify_oracle
    )
    return (
        evaluation.bitvectors,
        evaluation.phase_ms,
        evaluation.inference_ms,
        evaluation.data_encrypt_ms,
        evaluation.oracle_ok,
    )


def _eval_result(
    worker_id: int, request: BatchRequest, models, on_stage=None
) -> BatchResult:
    """Reduce one assignment to its :class:`BatchResult` against
    ``models`` (name -> model); ``on_stage`` is the routine's hook."""
    groups = request.batches()
    try:
        registered = models.get(request.model)
        if registered is None:
            raise KeyError(
                f"worker {worker_id} has no model {request.model!r} "
                f"loaded (epoch {request.epoch}); the router must ship "
                f"before it assigns"
            )
        outcomes = evaluate_batches_down_ladder(
            registered, groups, verify_oracle=request.verify_oracle,
            on_stage=on_stage,
        )
    except BaseException as exc:  # contained: the router decides
        outcomes = [exc] * len(groups)
    bitvectors: List[List[int]] = []
    verdicts: List[bool] = []
    parts: List[BatchPart] = []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            parts.append(BatchPart(
                {}, 0.0, 0.0,
                error=f"{type(outcome).__name__}: {outcome}",
            ))
            continue
        evaluation, degraded = outcome
        bitvectors.extend(evaluation.bitvectors)
        oracle_failures = None
        if evaluation.oracle_ok is not None:
            verdicts.extend(evaluation.oracle_ok)
            oracle_failures = evaluation.oracle_ok.count(False)
        parts.append(BatchPart(
            evaluation.phase_ms,
            evaluation.inference_ms,
            evaluation.data_encrypt_ms,
            oracle_failures,
            degraded_engine=None if degraded is None else degraded[1],
            phase_op_counts=evaluation.phase_op_counts,
        ))
    return BatchResult(
        batch_id=request.batch_id,
        model=request.model,
        worker=worker_id,
        epoch=request.epoch,
        bitvectors=tuple(bitvectors) or None,
        # Every answered batch of a verified model has verdicts.
        oracle_ok=tuple(verdicts) or None,
        rest=tuple(parts[1:]),
        **parts[0]._asdict(),
    )


def worker_main(conn, worker_id: int, epoch: int) -> None:
    """Run one pool worker over ``conn`` until ``("stop",)`` or EOF.

    ``epoch`` is the router's incarnation counter for this worker slot
    at start time; every message the worker sends echoes it, so results
    from a superseded incarnation are recognizable router-side.
    """
    models = {}
    conn.send((MSG_READY, worker_id, epoch))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # router went away; nothing left to serve
        tag = message[0]
        if tag == MSG_LOAD:
            shipped = message[1]
            models[shipped.name] = shipped.to_registered()  # fail-closed
        elif tag == MSG_EVAL:
            conn.send((MSG_RESULT, _eval_result(worker_id, message[1],
                                                models)))
        elif tag == MSG_PING:
            conn.send((MSG_PONG, worker_id, epoch))
        elif tag == MSG_STOP:
            break
    conn.close()

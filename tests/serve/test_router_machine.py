"""A model checker over the decision core's whole input alphabet.

:class:`RouterMachine` is a hypothesis ``RuleBasedStateMachine`` that
drives one :class:`~repro.serve.cluster.RouterCore` (traced, hedging on
or off) through arbitrary interleavings of what an engine can do to it:
admit a block (refusals and ill-typed fields included), dispatch under
a cut limit, complete (ok, some batches failed, all failed, a stale
epoch, a duplicate), crash, heartbeat and health-check, add / retire /
abandon / restart a worker, flush, set lanes, add and remove a model,
and close.  After every step it checks what must always hold:

* conservation — every admitted query is terminal or outstanding, and
  outstanding is exactly the queries queued, in flight, parked or in a
  quarantine cohort, each in one place only;
* no future is resolved twice;
* epochs only grow, retired ids only accumulate and never run again;
* every breaker is in a legal state;
* no exception but a typed :mod:`repro.errors` one escapes a call;
* every span ends at or after it began;
* the ``router``-track instants are the decision records, in order.

Teardown drains the core to quiescence: every parked query is
eventually released or failed, and every admitted future is done.
The case set is the derandomized ``repro-plan-ci`` profile, at least
500 examples.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import CopseError, RejectedQuery
from repro.obs.trace import Tracer
from repro.serve.cluster import AssignAction, HedgeAction, RouterCore
from repro.serve.faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.scheduler import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    QueryFuture,
    deliver_failures,
    settle,
)

MODELS = ("a", "b")
NAMES = MODELS + ("ghost",)
MAX_WORKERS = 5
PICK = st.integers(0, 63)

CI = settings.get_profile("repro-plan-ci")


class Payload:
    def __init__(self):
        self.future = QueryFuture()


def futures_of(runs):
    return [future for run in runs for future in run.futures]


def queued_futures(router):
    return futures_of(
        run for q in router._queues.values() for _, run in q.heap
    )


def running_assignments(router):
    """Each in-flight assignment once (a hedge replica shares it)."""
    return list({id(a): a for a in router._running.values()}.values())


class RouterMachine(RuleBasedStateMachine):
    router = None

    @initialize(
        workers=st.integers(1, 3),
        hedged=st.booleans(),
        max_retries=st.integers(0, 2),
    )
    def open(self, workers, hedged, max_retries):
        self.tracer = Tracer()
        self.router = RouterCore(
            workers=workers,
            max_retries=max_retries,
            tracer=self.tracer,
            heartbeat_timeout_s=1.0,
            retry_policy=RetryPolicy(
                hedge_factor=2.0 if hedged else 0.0, hedge_min_ms=20.0,
            ),
            breaker=CircuitBreaker(failure_threshold=2, open_s=0.2),
            dlq_limit=4,
        )
        self.now = 0.0
        self.registered = set()
        for name in MODELS:
            self._add_model(name)
        for worker in range(workers):
            self.router.worker_started(worker, 0.0)
        #: (assignment, epoch, worker) handed to an executor, unanswered.
        self.flights = []
        #: Completions the router accepted (replayed as duplicates).
        self.answered = []
        self.admitted = []
        self.resolved = Counter()
        self.epochs = list(self.router.epochs)
        self.retired = set()

    # -- helpers ---------------------------------------------------------

    def _call(self, fn, *args, **kwargs):
        """Run one input; a typed refusal is an answer, anything else
        escapes.  Then deliver what it failed, as engines do."""
        try:
            return fn(*args, **kwargs)
        except CopseError as exc:
            return exc
        finally:
            failures = self.router.drain_failures()
            for future, _ in failures:
                self.resolved[future] += 1
            deliver_failures(failures)

    def _add_model(self, name):
        if name == "a":
            self.router.add_model("a", capacity=2, service_ms=10.0)
        else:
            self.router.add_model("b", capacity=3, max_pending=5,
                                  weight=2.0)
        self.registered.add(name)

    def _worker(self, pick):
        return pick % self.router.workers

    def _dispatch(self, limit=None):
        actions = self._call(self.router.dispatch, self.now, limit)
        assert isinstance(actions, list), actions
        for action in actions:
            if isinstance(action, (AssignAction, HedgeAction)):
                worker = (
                    action.worker if isinstance(action, HedgeAction)
                    else action.assignment.worker
                )
                assert worker not in self.router.retired
                assert self.router.alive[worker]
                self.flights.append((action.assignment, action.epoch, worker))

    def _answer(self, flight, failed=None, outcome=OUTCOME_OK):
        assignment, epoch, worker = flight
        accepted = self._call(
            self.router.complete, assignment, epoch, self.now, outcome,
            worker=worker, failed=failed,
        )
        if accepted is True:
            self.answered.append(flight)
            if outcome == OUTCOME_OK:
                served = [
                    future
                    for position, part in enumerate(assignment.parts)
                    if position not in (failed or {})
                    for future in futures_of(part)
                ]
                for future in served:
                    assert not future.done()
                    self.resolved[future] += 1
                settle(served, ["served"] * len(served))
        return accepted

    # -- the alphabet ----------------------------------------------------

    @rule(
        name=st.sampled_from(NAMES),
        size=st.integers(0, 4),
        tenant=st.sampled_from(["acme", "zeta", None]),
        priority=st.sampled_from([0, 1, "x"]),
        deadline=st.sampled_from([None, 0.01, 0.5, "soon"]),
        cancel=st.booleans(),
    )
    def submit_many(self, name, size, tenant, priority, deadline, cancel):
        payloads = [Payload() for _ in range(size)]
        if isinstance(deadline, float):
            deadline += self.now
        outcome = self._call(
            self.router.submit_many, name, payloads, self.now,
            tenant=tenant, priority=priority, deadline=deadline,
        )
        if isinstance(outcome, RejectedQuery):
            futures = list(outcome.admitted)
        elif isinstance(outcome, CopseError):
            futures = []
        else:
            assert outcome.payloads == payloads
            futures = outcome.futures
        assert futures == [p.future for p in payloads[:len(futures)]]
        self.admitted += futures
        if cancel and futures:
            assert futures[0].cancel()

    @rule(dt=st.sampled_from([0.0, 0.005, 0.03, 0.3]),
          limit=st.sampled_from([None, 1, 2]))
    def dispatch(self, dt, limit):
        self.now += dt
        self._dispatch(limit)

    @precondition(lambda self: self.flights)
    @rule(pick=PICK, kind=st.sampled_from(["ok", "partial", "error"]))
    def complete(self, pick, kind):
        flight = self.flights.pop(pick % len(self.flights))
        if kind == "ok":
            self._answer(flight)
        elif kind == "partial":
            self._answer(flight, failed={0: "RuntimeError: boom"})
        else:
            self._answer(flight, outcome=OUTCOME_ERROR)

    @precondition(lambda self: self.flights)
    @rule(pick=PICK)
    def complete_stale_epoch(self, pick):
        assignment, epoch, worker = self.flights[pick % len(self.flights)]
        assert self._answer((assignment, epoch - 1, worker)) is False

    @precondition(lambda self: self.answered)
    @rule(pick=PICK)
    def complete_duplicate(self, pick):
        assert self._answer(self.answered[pick % len(self.answered)]) is False

    @rule(pick=PICK)
    def crash(self, pick):
        worker = self._worker(pick)
        if self.router.alive[worker]:
            self._call(self.router.crash_worker, worker, self.now)

    @rule(pick=PICK, stale=st.booleans())
    def heartbeat(self, pick, stale):
        worker = self._worker(pick)
        epoch = self.router.epochs[worker] - stale
        self._call(self.router.heartbeat, worker, epoch, self.now)

    @rule()
    def check_health(self):
        for worker in self._call(self.router.check_health, self.now):
            self._call(self.router.crash_worker, worker, self.now)

    @precondition(lambda self: self.router.workers < MAX_WORKERS)
    @rule()
    def add_worker(self):
        worker = self._call(self.router.add_worker, self.now)
        self.router.worker_started(worker, self.now)

    @rule(pick=PICK)
    def retire(self, pick):
        self._call(self.router.retire_worker, self._worker(pick), self.now)

    @rule(pick=PICK)
    def abandon(self, pick):
        worker = self._worker(pick)
        if not self.router.alive[worker] and worker not in self.router.retired:
            self._call(self.router.abandon_worker, worker, 3, self.now)

    @rule(pick=PICK)
    def restart(self, pick):
        self._call(self.router.restart_worker, self._worker(pick), self.now)

    @rule(name=st.sampled_from((None,) + NAMES))
    def flush(self, name):
        self._call(self.router.flush, name)

    @rule(name=st.sampled_from(NAMES),
          lanes=st.sampled_from([1, 2, 3, 0, "x"]))
    def set_lanes(self, name, lanes):
        self._call(self.router.set_lanes, name, lanes)

    @rule(name=st.sampled_from(MODELS))
    def remove_model(self, name):
        self._call(self.router.remove_model, name, now=self.now)
        self.registered.discard(name)

    @rule(name=st.sampled_from(MODELS))
    def add_model(self, name):
        if name not in self.registered:
            self._call(self._add_model, name)

    @rule()
    def close(self):
        self._call(self.router.close)

    # -- what always holds -----------------------------------------------

    @invariant()
    def conservation(self):
        router = self.router
        stats = router.stats()
        terminal = (
            stats.completed + stats.failed + stats.cancelled
            + stats.dead_lettered
        )
        assert stats.submitted - stats.rejected == len(self.admitted)
        assert len(self.admitted) == terminal + router.outstanding

    @invariant()
    def one_place_per_query(self):
        router = self.router
        places = queued_futures(router)
        for assignment in running_assignments(router):
            places += futures_of(assignment.runs())
        places += futures_of(run for _, _, run in router._parked)
        for _, _, cohort in router._cohorts:
            places += futures_of(cohort["runs"])
        assert len({id(f) for f in places}) == len(places)
        assert len(places) == router.outstanding

    @invariant()
    def in_flight_map_holds_primaries_and_replicas(self):
        router = self.router
        for worker, assignment in router._running.items():
            flight = router._flights.get(assignment.batch_id)
            assert worker == assignment.worker or (
                flight is not None and flight.hedge_worker == worker
            )
            assert router._running.get(assignment.worker) is assignment

    @invariant()
    def resolved_at_most_once(self):
        assert all(count == 1 for count in self.resolved.values())

    @invariant()
    def epochs_grow_and_retired_stay_retired(self):
        router = self.router
        assert len(router.epochs) >= len(self.epochs)
        assert all(new >= old for old, new in zip(self.epochs, router.epochs))
        assert router.retired >= self.retired
        assert not router.retired & set(router._running)
        assert not any(router.alive[w] for w in router.retired)
        self.epochs = list(router.epochs)
        self.retired = set(router.retired)

    @invariant()
    def breakers_legal(self):
        for (model, worker), entry in self.router.breaker._states.items():
            assert entry.state in (
                BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN
            )
            assert entry.failures >= 0
            assert 0 <= worker < self.router.workers

    @invariant()
    def spans_end_after_they_begin(self):
        for span in self.tracer.spans():
            assert span.end >= span.start, span.as_record()

    @invariant()
    def router_instants_are_the_decisions(self):
        instants = [
            (span.name, *span.attrs["fields"], span.start)
            for span in self.tracer.spans() if span.track == "router"
        ]
        assert instants == self.router.decisions

    def teardown(self):
        router = self.router
        if router is None:
            return
        for worker in range(router.workers):
            if not router.alive[worker] and worker not in router.retired:
                router.restart_worker(worker, self.now)
        for _ in range(200):
            if not router.outstanding:
                break
            self._call(router.flush)
            self._dispatch()
            while self.flights:
                self._answer(self.flights.pop())
            wake = router.next_wake_time(self.now)
            self.now = max(self.now + 0.05, wake or 0.0)
        assert router.outstanding == 0
        self.conservation()
        self.spans_end_after_they_begin()
        self.router_instants_are_the_decisions()
        assert all(future.done() for future in self.admitted)


RouterMachine.TestCase.settings = settings(
    CI, max_examples=max(500, CI.max_examples), stateful_step_count=30,
)
TestRouterMachine = RouterMachine.TestCase

INVARIANTS = (
    RouterMachine.conservation,
    RouterMachine.one_place_per_query,
    RouterMachine.in_flight_map_holds_primaries_and_replicas,
    RouterMachine.resolved_at_most_once,
    RouterMachine.epochs_grow_and_retired_stay_retired,
    RouterMachine.breakers_legal,
    RouterMachine.spans_end_after_they_begin,
    RouterMachine.router_instants_are_the_decisions,
)


class TestSeededCounterExamples:
    """Counter-examples the machine found, replayed step by step with
    every invariant checked after each one, then drained."""

    @staticmethod
    def opened(**opening):
        state = RouterMachine()
        state.open(**opening)
        return state

    @staticmethod
    def step(state, rule, **kwargs):
        getattr(state, rule)(**kwargs)
        for check in INVARIANTS:
            check(state)

    def block(self, state, name, size):
        self.step(state, "submit_many", name=name, size=size,
                  tenant="acme", priority=0, deadline=None, cancel=False)

    def test_a_parked_retry_of_a_removed_model_fails_when_it_wakes(self):
        """Its failure was timed at the submission (0.0), before the
        crash (1.0) that parked it: the failure had no clock."""
        state = self.opened(workers=1, hedged=False, max_retries=1)
        self.block(state, "a", 2)
        self.step(state, "dispatch", dt=0.0, limit=None)
        self.step(state, "dispatch", dt=1.0, limit=None)
        self.step(state, "crash", pick=0)
        self.step(state, "restart", pick=0)
        state.now = 1.5
        self.step(state, "remove_model", name="a")
        self.step(state, "dispatch", dt=3.5, limit=None)
        fails = [s for s in state.tracer.spans() if s.name == "fail"]
        assert sorted((s.start, s.attrs["seq"]) for s in fails) == [
            (5.0, 0), (5.0, 1),
        ]
        assert state.router.stats().failed == 2
        state.teardown()

    def test_a_hedge_is_not_placed_for_a_removed_model(self):
        """Hedging tried to ship the removed model: a raw ``KeyError``
        out of ``dispatch``."""
        state = self.opened(workers=2, hedged=True, max_retries=0)
        self.block(state, "b", 3)
        self.step(state, "dispatch", dt=0.0, limit=None)
        self.step(state, "remove_model", name="b")
        self.step(state, "dispatch", dt=0.03, limit=None)
        assert state.router.next_wake_time(state.now) is None
        (flight,) = state.flights
        assert state._answer(flight) is True  # the primary still answers
        state.teardown()

    def test_a_quarantine_cohort_of_a_removed_model_fails_when_due(self):
        """The cohort was placed and shipped: a raw ``KeyError``."""
        state = self.opened(workers=2, hedged=False, max_retries=0)
        self.block(state, "a", 2)
        self.step(state, "dispatch", dt=0.0, limit=None)
        (assignment, _, worker) = state.flights[0]
        self.step(state, "crash", pick=worker)
        self.step(state, "remove_model", name="a")
        self.step(state, "dispatch", dt=0.3, limit=None)
        stats = state.router.stats()
        assert (stats.failed, stats.dead_lettered) == (2, 0)
        assert state.router.outstanding == 0
        state.teardown()

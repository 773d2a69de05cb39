"""Counted work of an observed run: one observer, one derivation per triple.

What an observer derives from an event, apart from its time stamp, is a
value of the event's (topic, name, attrs).  A session folds each event
once, in one all-topic observer: a trace line's text, a profiler
attribution and the metric series keys are each derived once per
distinct triple in total, not once per observer, and the session retains
no event (DESIGN §3.6d).  The wall-clock side of that claim lives in
gridbench (``harness_report``); this is its tier-1 gate, in the spirit of
``tests/condor/test_negotiation_work.py`` and
``tests/campaign/test_campaign_work.py``: exact counts, no clock, and the
counters are wrapped around the functions from here -- ``src/`` carries
none.

"Distinct" means distinct among the triples the bus's admission rule
(``repro.obs.bus.memoisable``: every attribute value exactly ``str`` or
``int``) lets key a memo; every other event -- in these runs, the ones
that carry a ``bool`` -- is derived afresh, and counted so here.
"""

import gc
import math

import pytest

from repro.harness.__main__ import EXPERIMENTS, run_experiment_record, run_experiments
from repro.obs import export, metrics
from repro.obs.bus import TelemetryEvent, Topic, memoisable
from repro.obs.export import ObservationSession

#: Topics with a labelled family besides ``events_total`` (one more key each).
FAMILY_TOPICS = {Topic.JOB, Topic.ERROR, Topic.INTERFACE, Topic.IO, Topic.FAULT}


def _plain(value) -> bool:
    """A value the trace encodes without ``to_jsonable``."""
    return type(value) in (str, int, bool, type(None)) or (
        type(value) is float and math.isfinite(value)
    )


def _alive_events() -> int:
    gc.collect()
    return sum(isinstance(obj, TelemetryEvent) for obj in gc.get_objects())


@pytest.fixture(scope="module", params=["churn", "fig3"])
def observed(request):
    """One experiment under a session, every derivation and every
    subscriber call counted."""
    calls = {}

    def counted(fn, name):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (export, "_line_parts"), (export, "to_jsonable"),
            (export, "_derive_attribution"), (metrics, "_key"),
        ):
            patch.setattr(module, name, counted(getattr(module, name), name))
        alive_before = _alive_events()
        session = ObservationSession()
        for subscribers in (session.bus._subs, *session.bus._topic_subs.values()):
            subscribers[:] = [counted(fn, "subscriber") for fn in subscribers]
        admitted: set[tuple] = set()
        afresh: list[tuple] = []  # triples, not events: nothing here keeps one alive

        def tally(event):
            triple = (event.topic, event.name, event.attrs)
            if memoisable(event.attrs):
                admitted.add(triple)
            else:
                afresh.append(triple)

        session.bus.subscribe(tally)
        with session:
            run_experiment_record(request.param, seed=0)
        series = len(session.registry)  # the fold ends: the series are derived now
        settled = dict(calls)  # the spans' lines are rendered after this
        text = session.trace_text()
        alive = _alive_events() - alive_before
    return {
        "session": session, "calls": settled, "text": text, "alive": alive, "series": series,
        "derived": [*admitted, *afresh],
    }


def test_the_run_is_mostly_repeats(observed):
    """The premise: far fewer distinct triples than events."""
    assert 0 < len(observed["derived"]) < observed["session"].bus.dispatched / 3


def test_a_session_bus_calls_one_observer_per_event(observed):
    """One all-topic subscriber, the session's fold (it was four: trace
    sink, metrics recorder, profiler, run summary), plus the span
    builder's own handler on a JOB or ERROR event."""
    session = observed["session"]
    journeys = sum(session.summary.counts[key] for key in session.summary.counts
                   if key[0] in ("job", "error"))
    assert observed["calls"]["subscriber"] == session.bus.dispatched + journeys


def test_a_trace_line_is_encoded_once_per_distinct_triple(observed):
    assert observed["calls"]["_line_parts"] == len(observed["derived"])
    assert observed["text"].count('"kind":"event"') == observed["session"].bus.dispatched


def test_attribute_values_are_converted_once_per_distinct_triple(observed):
    """Only a triple with a value the direct encoder does not take goes
    through ``to_jsonable``: none in these runs."""
    values = sum(len(attrs) for _, _, attrs in observed["derived"]
                 if not all(_plain(value) for _, value in attrs))
    assert observed["calls"].get("to_jsonable", 0) == values == 0


def test_series_keys_are_built_once_per_distinct_triple(observed):
    """``events_total`` and the topic's labelled family, once per triple
    when the fold ends, plus the ``sim_time_seconds`` gauge."""
    builds = sum(1 + (topic in FAMILY_TOPICS) for topic, _, _ in observed["derived"]) + 1
    assert observed["calls"]["_key"] == builds
    assert observed["series"] < builds


def test_an_attribution_is_derived_once_per_distinct_triple(observed):
    assert observed["calls"]["_derive_attribution"] == len(observed["derived"])
    assert observed["session"].profiler.total_events == observed["session"].bus.dispatched


def test_the_session_retains_no_event(observed):
    assert observed["alive"] == 0
    assert not hasattr(observed["session"], "events")


def test_the_folds_of_a_parallel_run_dispatch_what_a_serial_run_does(monkeypatch):
    """Each experiment of ``run_experiments`` is observed on a bus of its
    own, in the worker that runs it: over ``--jobs 2`` those buses together
    carry every event one serial session does."""
    with ObservationSession() as serial:
        for name in sorted(EXPERIMENTS):
            run_experiment_record(name, seed=7)
    folded = []
    merge = ObservationSession.merge
    monkeypatch.setattr(ObservationSession, "merge",
                        lambda self, fold: merge(self, fold) or folded.append(fold))
    with ObservationSession() as parallel:
        run_experiments(sorted(EXPERIMENTS), seed=7, jobs=2)
    assert len(folded) == len(EXPERIMENTS) and parallel.bus.dispatched == 0
    dispatched = sum(fold.profiler.total_events for fold in folded)
    assert dispatched == serial.bus.dispatched == 33_090
    assert parallel.profiler.total_events == 33_090

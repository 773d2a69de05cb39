"""Counted work of an observed run: one derivation per distinct triple.

What an observer derives from an event, apart from its time stamp, is a
value of the event's (topic, name, attrs) -- so a trace line's text, a
metric series key and a profiler attribution are each derived once per
distinct triple, and the session retains no event (DESIGN §3.6d).  The
wall-clock side of that claim lives in gridbench (``harness_report``);
this is its tier-1 gate, in the spirit of
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

import pytest

from repro.harness.__main__ import EXPERIMENTS, run_experiment_record, run_experiments
from repro.obs import export, metrics, profile
from repro.obs.bus import TelemetryEvent, Topic, memoisable
from repro.obs.export import ObservationSession

#: Series keys a recorder builds before the first event: ``events_total``
#: per topic, ``sim_time_seconds``, ``io_bytes``.
PREBUILT_KEYS = len(Topic) + 2


def _alive_events() -> int:
    gc.collect()
    return sum(isinstance(obj, TelemetryEvent) for obj in gc.get_objects())


@pytest.fixture(scope="module", params=["churn", "fig3"])
def observed(request):
    """One experiment under a session, every derivation counted."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (export, "_line_parts"), (export, "to_jsonable"),
            (metrics, "_key"), (profile, "_derive_attribution"),
        ):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            patch.setattr(module, name, counted)
        alive_before = _alive_events()
        session = ObservationSession()
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
        in_block = dict(calls)  # the spans' lines are rendered after this
        text = session.trace_text()
        alive = _alive_events() - alive_before
    return {
        "session": session, "calls": in_block, "text": text, "alive": alive,
        "admitted": admitted, "afresh": afresh,
    }


def test_the_run_is_mostly_repeats(observed):
    """The premise: far fewer distinct triples than events."""
    events = observed["session"].bus.dispatched
    derived = len(observed["admitted"]) + len(observed["afresh"])
    assert 0 < derived < events / 3


def test_a_trace_line_is_encoded_once_per_distinct_triple(observed):
    derived = len(observed["admitted"]) + len(observed["afresh"])
    assert observed["calls"]["_line_parts"] == derived
    assert observed["text"].count('"kind":"event"') == observed["session"].bus.dispatched


def test_attribute_values_are_converted_once_per_distinct_triple(observed):
    values = sum(len(attrs) for _, _, attrs in observed["admitted"]) + sum(
        len(attrs) for _, _, attrs in observed["afresh"]
    )
    assert observed["calls"]["to_jsonable"] == values


def test_a_series_key_is_built_once_per_series(observed):
    """At most one build per series, plus one per event whose labels the
    admission rule keeps out of the memo (a ``declared=True`` crossing)."""
    builds = observed["calls"]["_key"]
    series = len(observed["session"].registry)
    assert series <= builds <= series + PREBUILT_KEYS + len(observed["afresh"])
    assert builds < observed["session"].bus.dispatched / 20


def test_an_attribution_is_derived_once_per_distinct_triple(observed):
    derived = len(observed["admitted"]) + len(observed["afresh"])
    assert observed["calls"]["_derive_attribution"] == derived
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
    dispatched = []
    merge = ObservationSession.merge
    monkeypatch.setattr(ObservationSession, "merge",
                        lambda self, fold: merge(self, fold) or dispatched.append(fold.dispatched))
    with ObservationSession() as parallel:
        run_experiments(sorted(EXPERIMENTS), seed=7, jobs=2)
    assert len(dispatched) == len(EXPERIMENTS) and parallel.bus.dispatched == 0
    assert sum(dispatched) == serial.bus.dispatched == 33_090
    assert parallel.profiler.total_events == 33_090

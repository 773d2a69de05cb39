"""Error journeys read off the span tree.

The journey builder is :class:`~repro.obs.span.SpanBuilder`: one root
span per error (``error:<id>``), one child span per hop through the
management chain.  These cases drive a bare management chain with a
telemetry bus attached and read each journey -- its hops, its handler,
its terminal -- from the spans, the way the trace, the profiler and the
fuzzer's signatures read them.
"""

from collections import Counter

from repro.core.errors import explicit
from repro.core.propagation import Action, ManagementChain, ScopeManager
from repro.core.scope import ErrorScope
from repro.obs.bus import TelemetryBus
from repro.obs.span import SpanBuilder, children_of


def make_chain(mask_at=None):
    """The Java Universe chain with a span builder on its bus."""
    policies = {}
    if mask_at:
        policies[mask_at] = lambda mgr, err: Action.MASK
    spec = [
        ("wrapper", {ErrorScope.PROGRAM, ErrorScope.PROCESS}),
        ("starter", {ErrorScope.VIRTUAL_MACHINE}),
        ("shadow", {ErrorScope.REMOTE_RESOURCE}),
        ("schedd", {ErrorScope.LOCAL_RESOURCE, ErrorScope.JOB}),
    ]
    chain = ManagementChain(
        [ScopeManager(name, scopes, policies.get(name)) for name, scopes in spec]
    )
    chain.bus = TelemetryBus()
    return chain, SpanBuilder(chain.bus)


def hops(spans: SpanBuilder, journey) -> list[tuple[str, str]]:
    """(hop, manager) for each hop of *journey*, in order."""
    return [
        (hop.name.split(":", 1)[1], hop.attrs["manager"])
        for hop in children_of(spans.spans).get(journey.span_id, [])
    ]


class TestJourneys:
    def test_single_journey_reconstruction(self):
        chain, spans = make_chain()
        err = explicit("OutOfMemoryError", ErrorScope.VIRTUAL_MACHINE)
        chain.propagate(err, "wrapper", time=3.0)
        [journey] = spans.journeys()
        assert journey.attrs == {"error": "OutOfMemoryError", "scope": "VIRTUAL_MACHINE"}
        assert (journey.start, journey.end, journey.status) == (3.0, 3.0, "reported")
        assert hops(spans, journey) == [
            ("discovered", "wrapper"),
            ("escalated", "wrapper"),
            ("delivered", "starter"),
            ("reported", "starter"),
        ]
        assert spans.scope_to_handlers() == {"VIRTUAL_MACHINE": {"starter"}}

    def test_multiple_errors_grouped_separately(self):
        chain, spans = make_chain()
        for i in range(3):
            chain.propagate(explicit(f"E{i}", ErrorScope.JOB), "wrapper", time=float(i))
        journeys = spans.journeys()
        assert [j.name for j in journeys] == ["error:1", "error:2", "error:3"]
        assert [j.attrs["error"] for j in journeys] == ["E0", "E1", "E2"]

    def test_rescoped_error_stays_one_journey(self):
        """rescoped() preserves error_id, so both legs -- each closed by
        its own terminal hop -- are spans of one error."""
        chain, spans = make_chain()
        low = explicit("ConnectionLost", ErrorScope.PROCESS)
        chain.propagate(low, "wrapper", time=1.0)
        high = low.rescoped(ErrorScope.REMOTE_RESOURCE)
        chain.propagate(high, "shadow", time=2.0)
        legs = spans.journeys()
        assert [j.name for j in legs] == ["error:1", "error:1"]
        assert [j.attrs["scope"] for j in legs] == ["PROCESS", "REMOTE_RESOURCE"]
        assert spans.scope_to_handlers() == {"PROCESS": {"wrapper"}, "REMOTE_RESOURCE": {"shadow"}}

    def test_mishandled_journey(self):
        chain, spans = make_chain()
        err = explicit("X", ErrorScope.VIRTUAL_MACHINE)
        chain.misdeliver(err, consumed_by="user", time=1.0)
        [journey] = spans.journeys()
        assert journey.status == "mishandled"
        assert hops(spans, journey) == [("mishandled", "user")]
        assert spans.scope_to_handlers() == {}  # consumed, not handled

    def test_unmanaged_journey(self):
        chain, spans = make_chain()
        err = explicit("MatchmakerGone", ErrorScope.POOL)
        chain.propagate(err, "wrapper")
        [journey] = spans.journeys()
        assert journey.status == "unmanaged"
        assert hops(spans, journey)[-1] == ("unmanaged", "schedd")
        assert spans.scope_to_handlers() == {}


class TestStats:
    def test_empty_trace(self):
        _, spans = make_chain()
        assert spans.journeys() == [] and spans.scope_to_handlers() == {}

    def test_mixed_trace_statistics(self):
        chain, spans = make_chain(mask_at="starter")
        chain.propagate(explicit("A", ErrorScope.VIRTUAL_MACHINE), "wrapper")  # masked
        chain.propagate(explicit("B", ErrorScope.JOB), "wrapper")  # reported, 3 hops
        chain.propagate(explicit("C", ErrorScope.POOL), "wrapper")  # unmanaged
        chain.misdeliver(explicit("D", ErrorScope.JOB), "user")  # mishandled
        journeys = spans.journeys()
        assert Counter(j.status for j in journeys) == {
            "masked": 1, "reported": 1, "unmanaged": 1, "mishandled": 1,
        }
        assert Counter(j.attrs["scope"] for j in journeys)["JOB"] == 2
        assert spans.scope_to_handlers() == {"VIRTUAL_MACHINE": {"starter"}, "JOB": {"schedd"}}
        escalations = [
            sum(hop == "escalated" for hop, _ in hops(spans, j)) for j in journeys
        ]
        assert max(escalations) == 4  # C escalated through all four managers


class TestObservedScopeMap:
    def test_map_matches_figure_3(self):
        chain, spans = make_chain()
        chain.propagate(explicit("A", ErrorScope.VIRTUAL_MACHINE), "wrapper")
        chain.propagate(explicit("B", ErrorScope.JOB), "wrapper")
        observed = spans.scope_to_handlers()
        assert observed == {"VIRTUAL_MACHINE": {"starter"}, "JOB": {"schedd"}}
        for scope, handlers in observed.items():
            assert handlers == {ErrorScope[scope].managing_program}

    def test_pool_trace_feeds_analysis(self):
        """End to end: a real pool run's error journeys, read off its spans."""
        from repro.condor import Job, Pool, PoolConfig, ProgramImage, Universe
        from repro.faults import FaultInjector, MisconfiguredJvm
        from repro.jvm.program import JavaProgram, Step
        from repro.obs.export import ObservationSession

        with ObservationSession() as session:
            pool = Pool(PoolConfig(n_machines=3))
            FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
            job = Job("1.0", owner="t", universe=Universe.JAVA,
                      image=ProgramImage("x.class",
                                         program=JavaProgram(steps=[Step.compute(3.0)])))
            pool.submit(job)
            pool.run_until_done(max_time=100_000)
        journeys = session.spans.journeys()
        assert len(journeys) >= 1
        assert {j.status for j in journeys} <= {"masked", "reported"}

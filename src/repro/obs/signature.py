"""Coverage signatures: a run's behaviour as a set of feature strings.

The fault-space fuzzer (:mod:`repro.campaign.fuzz`) needs to know when
two cells behaved *differently*, not merely that they ran.  This module
derives that judgement from the observability layer's own artifacts --
principle verdicts, the span tree, terminal job states -- as a
**pure function**: no bus access, no globals, no wall clock, so the
signature of a cell is as deterministic as the cell itself.

A signature is a sorted tuple of feature strings in four families:

- ``viol:P<n>:<subject>:<description>`` -- one per distinct principle
  violation, with job ids and site names normalized away (the *shape*
  of the violation matters for coverage; which job tripped it does not);
- ``journey:<scope>:<hop>><hop>...`` -- the hop sequence of each error
  journey, keyed by the scope the error was born with (FIG3 live);
- ``shape:<phase>...`` -- each job journey's phase sequence with
  per-phase statuses (a retry loop, a flocked job and a clean run all
  fingerprint differently);
- ``outcome:<state>`` -- which terminal job states occurred (plus
  ``outcome:<state>=all`` when the whole workload agreed).

The fuzzer's :class:`~repro.campaign.coverage.CoverageMap` treats each
feature as one coordinate of the fault space: a cell earns corpus
membership by producing a feature no earlier cell produced.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from repro.obs.span import Span, children_of

__all__ = ["normalize_violation", "signature", "violation_features"]

#: Cap on hops kept per journey feature; longer journeys are truncated
#: with a marker so two distinct very-long loops still collide into one
#: "pathologically long" coordinate instead of infinitely many.
MAX_HOPS = 12

#: ``1.3@exec000`` / ``1.0@a-exec001`` -- a job id bound to a site.
_JOB_AT_SITE = re.compile(r"\b\d+\.\d+@[\w-]+")
#: A bare job id (``1.3``); applied after the bound form.
_JOB_ID = re.compile(r"\b\d+\.\d+\b")


def _normalize_text(text: str) -> str:
    """Strip run-specific identities (job ids, sites) from *text*."""
    text = _JOB_AT_SITE.sub("<job>@<site>", text)
    return _JOB_ID.sub("<job>", text)


def normalize_violation(violation: dict) -> str:
    """The identity-free feature string of one violation record.

    Two cells that present the same kind of error the same wrong way
    produce the same feature even when different jobs trip it.
    """
    return (
        f"viol:P{violation['principle']}"
        f":{_normalize_text(str(violation['subject']))}"
        f":{_normalize_text(str(violation['description']))}"
    )


def violation_features(violations: Iterable[dict]) -> tuple[str, ...]:
    """Sorted, deduplicated violation features of a record's verdicts."""
    return tuple(sorted({normalize_violation(v) for v in violations}))


def _phase_label(phase: Span) -> str:
    # "attempt:2" -> "attempt": the retry count shows up as repeated
    # phases, not as an ordinal that would make every retry depth a
    # fresh coordinate.
    name = phase.name.split(":", 1)[0]
    return f"{name}[{phase.status}]" if phase.status else name


def _span_features(spans: Sequence[Span]) -> set[str]:
    """The ``journey:`` feature of each error root, the ``shape:`` ones of
    each job root, each read off the root's children."""
    children = children_of(spans)
    features: set[str] = set()
    for span in spans:
        if span.kind == "error":
            hops = [hop.name.split(":", 1)[-1] for hop in children.get(span.span_id, ())]
            if len(hops) > MAX_HOPS:
                hops = hops[:MAX_HOPS] + ["..."]
            scope = span.attrs.get("scope") or "?"
            features.add(f"journey:{scope}:" + ">".join(hops))
        elif span.kind == "job":
            shape = ">".join(map(_phase_label, children.get(span.span_id, ())))
            features.add(f"shape:{shape}")
            if "flocked" in span.attrs:
                features.add("shape:flocked")
    return features


def signature(
    violations: Iterable[dict],
    spans: Sequence[Span],
    job_states: Sequence[str],
) -> tuple[str, ...]:
    """The full coverage signature of one cell run (sorted, deduped).

    *violations* are JSON-ready verdict dicts (``principle`` /
    ``subject`` / ``description``), *spans* the cell's assembled span
    list, *job_states* the terminal :class:`~repro.condor.job.JobState`
    names of the workload.
    """
    features = set(violation_features(violations)) | _span_features(spans)
    states = [state.lower() for state in job_states]
    for state in states:
        features.add(f"outcome:{state}")
    if states and len(set(states)) == 1:
        features.add(f"outcome:{states[0]}=all")
    return tuple(sorted(features))

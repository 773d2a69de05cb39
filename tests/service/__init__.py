"""Helpers the service tests share."""


def drain_once(executor) -> int:
    """One synchronous drain cycle (collect, execute, record); runs finished."""
    items = executor.collect_items()
    if not items:
        return 0
    return executor.record_results(items, executor.execute_items(items))


def event_journal(store, run_id: int) -> list[tuple[str, str]]:
    """A run's full (state, detail) history, read straight off the store."""
    return list(store._db.execute(
        "SELECT state, detail FROM run_events WHERE run_id=? ORDER BY seq", (run_id,)
    ))

from benchmarks.gridbench.spans import SpanRecorder, layer_of, self_time_by_layer, self_times


def span(span_id, name, start, end, parent):
    return {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "workload": "w", "round": 0}


# root [0, 100]
#   a.call [10, 40]
#     b.inner [20, 30]
#   c.client.x [50, 80]   two concurrent children: overlap [60, 80)
#   c.client.y [60, 90]
#   d.open  [95, None]    never closed: ignored
TREE = [
    span(0, "gridbench.run", 0, 100, None),
    span(1, "a.call", 10, 40, 0),
    span(2, "b.inner", 20, 30, 1),
    span(3, "c.client.x", 50, 80, 0),
    span(4, "c.client.y", 60, 90, 0),
    span(5, "d.open", 95, None, 0),
]


def test_self_time_is_duration_minus_the_union_of_children():
    own = self_times(TREE)
    assert own[2] == 10
    assert own[1] == 30 - 10
    assert own[3] == 30 and own[4] == 30
    # Children cover [10,40) and [50,90): 70 of the root's 100, overlap once.
    assert own[0] == 100 - 70
    assert 5 not in own


def test_self_time_by_layer_and_subtree():
    layers = self_time_by_layer(TREE)
    assert layers == {"c.client": 60 / 1e9, "gridbench": 30 / 1e9, "a": 20 / 1e9, "b": 10 / 1e9}
    assert list(layers) == ["c.client", "gridbench", "a", "b"]  # heaviest first
    assert self_time_by_layer(TREE, under=1) == {"a": 20 / 1e9, "b": 10 / 1e9}


def test_child_sticking_out_of_its_parent_is_clipped():
    tree = [span(0, "p.call", 0, 10, None), span(1, "q.call", 5, 30, 0)]
    assert self_times(tree)[0] == 5


def test_layer_is_everything_before_the_last_dot():
    assert layer_of("service.client.POST") == "service.client"
    assert layer_of("pool.run_until_done") == "pool"
    assert layer_of("bare") == "bare"


def test_recorder_parents_by_block_and_by_explicit_id():
    rec = SpanRecorder("w", 3, enabled=True)
    with rec.span("outer.block") as outer:
        inner = rec.start("inner.call")
        rec.end(inner)
        explicit = rec.start("other.call", parent=inner)
        rec.end(explicit)
    after = rec.start("late.call")
    rec.end(after)
    parents = {s["name"]: s["parent"] for s in rec.spans}
    assert parents == {"outer.block": None, "inner.call": outer,
                       "other.call": inner, "late.call": None}
    assert all(s["end_ns"] >= s["start_ns"] and s["round"] == 3 for s in rec.spans)


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder("w", 0, enabled=False)
    with rec.span("outer.block") as outer:
        rec.end(rec.start("inner.call", parent=outer))
    assert outer == -1 and rec.spans == []

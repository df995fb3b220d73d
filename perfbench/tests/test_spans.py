"""Span arithmetic and the tracer's wrapping, on fake clocks and modules."""

import types

import pytest

import spans
from spans import Span


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert spans.union_length([]) == 0


def test_subtract_leaves_the_uncovered_parts():
    assert spans.subtract((0, 10), [(2, 3), (2.5, 4), (8, 12), (-1, 0.5)]) == [(0.5, 2), (4, 8)]


def test_self_time_is_duration_minus_sequential_children():
    sp = [Span(0, "op", 0.0, 10.0, None), Span(1, "a", 1.0, 3.0, 0), Span(2, "a", 4.0, 8.0, 0),
          Span(3, "b", 5.0, 6.0, 2)]
    assert spans.self_time(sp, "op") == pytest.approx(4.0)
    assert spans.self_time(sp, "a") == pytest.approx(5.0)
    assert spans.covered_time(sp, ["a"]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # two pool-thread children of one span run at the same time
    sp = [Span(0, "main", 0.0, 10.0, None), Span(1, "verify", 1.0, 6.0, 0),
          Span(2, "verify", 2.0, 7.0, 0)]
    assert spans.self_time(sp, "main") == pytest.approx(4.0)
    assert spans.covered_time(sp, ["verify"]) == pytest.approx(6.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_modules():
    lib = types.ModuleType("lib")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    def outer(x, scale=3):
        return lib.leaf(x) * scale

    lib.leaf, lib.outer = leaf, outer
    user = types.ModuleType("user")
    user.leaf = leaf  # as ``from lib import leaf`` binds it
    return lib, user, leaf, outer


def test_tracer_wraps_every_binding_and_restores_them():
    lib, user, leaf, outer = make_modules()
    seen = []
    tracer = spans.Tracer(FakeClock(), hooks={"lib.outer": lambda args, r: seen.append((args, r))})
    tracer.install([lib, user], {"lib.leaf": leaf, "lib.outer": outer})
    assert lib.outer(2) == 12
    assert user.leaf(1) == 2
    with pytest.raises(ValueError):
        user.leaf(-1)
    tracer.uninstall()
    assert lib.leaf is leaf and user.leaf is leaf and lib.outer is outer

    by_name = [(s.name, s.parent, s.error) for s in tracer.spans]
    outer_span = next(s for s in tracer.spans if s.name == "lib.outer")
    assert by_name == [("lib.leaf", outer_span.id, False), ("lib.outer", None, False),
                       ("lib.leaf", None, False), ("lib.leaf", None, True)]
    assert seen == [({"x": 2, "scale": 3}, 12)]


def test_pool_tasks_are_children_of_the_submitting_span():
    lib, user, leaf, outer = make_modules()
    tracer = spans.Tracer(FakeClock())
    tracer.install([lib], {"lib.leaf": leaf})
    pool_class = tracer.pool_class()

    def submit_two():
        with pool_class(max_workers=2) as pool:
            return list(pool.map(lib.leaf, [1, 2]))

    assert tracer.call("op", submit_two, (), {}) == [2, 4]
    tracer.uninstall()
    op = next(s for s in tracer.spans if s.name == "op")
    assert [s.parent for s in tracer.spans if s.name == "lib.leaf"] == [op.id, op.id]

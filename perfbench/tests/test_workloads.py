"""Seeded inputs, the failure rules, and the import-time split."""

import random

import pytest

import machine
import workloads


def test_draws_repeat_for_a_seed_and_fill_every_stratum():
    a = workloads.draws(random.Random(3), 20)
    assert a == workloads.draws(random.Random(3), 20)
    lo, hi = workloads.Q_RANGE
    strata = sorted(int((q - lo) / (hi - lo) * 20) for q, _, _ in a)
    assert strata == list(range(20))


def test_verify_trunc_is_the_policy_minimum_for_degree_twelve():
    from qhaar import min_truncation

    for q in (0.3, 0.9, 0.95):
        assert workloads.verify_trunc(q) == max(160, min_truncation(12, workloads.TOL, q))


def judge(argv):
    op = workloads.cli_op(argv, workloads.no_check)
    return op.check(op.run())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm4", "--q", "0.95", "--trunc-n", "170"],
        ["identity", "poisson", "--q", "0.882", "--seed", "11"],
    ],
)
def test_known_misses_count_as_failures(argv):
    kinds = {kind for kind, _ in judge(argv)}
    assert kinds == {"exit", "row"}


def test_a_passing_command_has_no_failures():
    assert judge(["identity", "mass", "--q", "0.5"]) == []


def test_reference_mismatch_is_reported():
    failures = workloads.moment_failures("thm4", [1.0, 0.0, 0.3], [1.0, 0.0, 0.25])
    assert [kind for kind, _ in failures] == ["reference"]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy.core
import time:       200 |        300 |     numpy
import time:        20 |         20 |         numpy.extra
import time:        50 |         70 |       scipy
import time:        30 |        100 |     scipy.linalg
import time:        10 |        410 |   qhaar.spectral
import time:         5 |        415 | qhaar
import time:        40 |         40 | qhaar.cli
"""


def test_importtime_split_takes_outermost_cumulative_times():
    # numpy.extra is nested in scipy, not in another numpy import, so it counts for numpy
    got = machine.parse_importtime(IMPORTTIME)
    assert got == pytest.approx({"numpy": 320e-6, "scipy": 100e-6, "qhaar": 455e-6})


def test_execute_judges_the_first_pass_and_keeps_the_median_timing(monkeypatch):
    import run

    # start, A, B, end of the first pass; then A alone in passes two and three
    ticks = iter([0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 10.0, 14.0, 20.0, 22.0])
    monkeypatch.setattr(run, "CLOCK", lambda: next(ticks))
    calls = {"a": 0, "b": 0}

    def counted(name):
        def fn():
            calls[name] += 1
            return name
        return fn

    ops = [
        workloads.Op("a", counted("a"), lambda value: []),
        workloads.Op("b", counted("b"), lambda value: [("row", value)], retimed=False),
    ]
    result = run.execute(ops, passes=3)
    assert calls == {"a": 4, "b": 1}  # a also runs once untimed, to warm up
    assert result.sweep_s == 3.0
    assert [o.timings for o in result.outcomes] == [[1.0, 4.0, 2.0], [2.0]]
    assert [o.seconds for o in result.outcomes] == [2.0, 2.0]
    assert [o.label for o in result.failed] == ["b"]


def test_sweep_seconds_reads_the_median_group_where_groups_are_alike():
    import dataclasses

    import run

    alike = workloads.Workload("w", 2, 1.0, 1, True, None)
    latencies = [1.0, 1.0, 1.5, 1.5, 4.0, 6.0]  # groups of two cost 2, 3 and 10
    assert run.sweep_seconds(alike, latencies) == 3 * 3.0
    assert run.sweep_seconds(dataclasses.replace(alike, alike_groups=False), latencies) == 15.0

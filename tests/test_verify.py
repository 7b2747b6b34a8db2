"""`verify._run` runs a suite's checks on as many processes as the CPUs it
may use, and hands the results back in check order: pooled or on one CPU,
every suite gives the same triples, a worker that dies is an error that
names what it took, and no child process outlives the call."""

import errno
import os
import select

import pytest

from opbar import verify
from opbar.verify import SUITES, run_suite

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize(
    "suite, options",
    [(name, {}) for name in SUITES] + [("all", {}), ("compose-oracle", {"seed": 0}), ("compose-oracle", {"seed": 1})],
    ids=lambda v: v if isinstance(v, str) else ",".join("%s=%s" % kv for kv in v.items()) or "defaults",
)
def test_pooled_results_are_those_of_one_cpu(monkeypatch, suite, options):
    cpus(monkeypatch, 1)
    one = run_suite(suite, **options)
    assert all(ok for _, ok, _ in one)
    for n in (2, 3):
        cpus(monkeypatch, n)
        assert run_suite(suite, **options) == one
    assert_no_child_left()


@needs_fork
def test_results_come_back_in_check_order_with_failures(monkeypatch):
    def raises():
        raise ValueError("bad input")

    checks = []
    for k in range(4):
        checks += [("pass.%d" % k, lambda k=k: (1, "detail %d" % k)), ("raise.%d" % k, raises)]
        checks += [("fail.%d" % k, lambda: ([], None))]
    expect = []
    for k in range(4):
        expect += [("pass.%d" % k, True, "detail %d" % k), ("raise.%d" % k, False, "ValueError: bad input")]
        expect += [("fail.%d" % k, False, None)]
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        assert verify._run(checks) == expect
    assert_no_child_left()


@needs_fork
def test_a_worker_that_dies_is_an_error_naming_its_check(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    died_r, died_w = os.pipe()
    waited = []

    def check():
        if os.getpid() != parent:
            os.write(died_w, b"x")
            os._exit(3)
        if not waited:  # hold the parent's first check until the worker has taken the other
            assert select.select([died_r], [], [], 60)[0], "the worker never took a check"
            waited.append(os.read(died_r, 1))
        return True, "ran in the parent"

    try:
        with pytest.raises(RuntimeError, match=r"exited without the results of check\.[01]$"):
            verify._run([("check.0", check), ("check.1", check)])
    finally:
        os.close(died_r)
        os.close(died_w)
    assert waited == [b"x"]
    assert_no_child_left()


@needs_fork
def test_a_failed_fork_leaves_the_checks_to_the_parent(monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    checks = [("c%d" % k, lambda k=k: (True, k)) for k in range(5)]
    assert verify._run(checks) == [("c%d" % k, True, k) for k in range(5)]


@needs_fork
def test_a_queue_longer_than_a_pipe_page_runs_in_process(monkeypatch):
    cpus(monkeypatch, 2)
    count = verify._QUEUE_BYTES // verify._RECORD + 1
    results = verify._run([("c%d" % k, lambda: (True, os.getpid())) for k in range(count)])
    assert [r[0] for r in results] == ["c%d" % k for k in range(count)]
    assert {r[2] for r in results} == {os.getpid()}


@pytest.mark.parametrize("counted_by", ["sched_getaffinity", "cpu_count"])
def test_one_cpu_runs_in_process(monkeypatch, counted_by):
    if counted_by == "sched_getaffinity":
        cpus(monkeypatch, 1)
    else:  # a platform without the affinity call
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify._run([("a", lambda: (True, os.getpid())), ("b", lambda: (True, os.getpid()))]) == [
        ("a", True, os.getpid()),
        ("b", True, os.getpid()),
    ]

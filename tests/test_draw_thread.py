"""The Monte Carlo kernel's draw-ahead thread: it never outlives a call, results do not depend on it,
a call of several chunks starts one and a call of one chunk starts none."""

import csv
import json
import subprocess
import sys
import threading
import time

import pytest

from dpbudget import allocation_to_dict, score_allocation, simulate_pipeline
from dpbudget import propagation
from dpbudget.cli import run_cli
from dpbudget.propagation import CHUNK

from helpers import allocation, paper_workload
from test_cli import module_env


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts threading.Thread.start calls made while the test runs."""
    starts = []
    original = threading.Thread.start

    def counted(self):
        starts.append(self.name)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def _montecarlo(samples):
    """The paper's workload (a sum and a quotient of four statistics), scored by Monte Carlo."""
    workload = paper_workload(estimator="montecarlo", mc_samples=samples)
    return workload, allocation(workload, 0.25, 0.25, 0.25, 0.25)


def test_multichunk_calls_leave_no_thread_running(thread_starts):
    before = threading.active_count()
    workload, alloc = _montecarlo(3 * CHUNK + 5)
    score_allocation(workload, alloc, seed=3)
    assert threading.active_count() == before
    simulate_pipeline(workload, alloc, 2 * CHUNK + 1, seed=7)
    assert threading.active_count() == before
    # One draw-ahead thread per call of several chunks.
    assert thread_starts == ["dpbudget-draws"] * 2


def test_single_chunk_calls_start_no_thread(thread_starts):
    workload, alloc = _montecarlo(1000)
    score_allocation(workload, alloc, seed=3)
    simulate_pipeline(workload, alloc, CHUNK, seed=7)
    assert thread_starts == []


class _DrawsInline:
    """Stands in for the draw-ahead thread: each chunk is drawn on the calling thread when it is asked for."""

    def __init__(self, generators):
        self.generators = generators

    def draw(self, rows, size):
        propagation._draw_uniforms(self.generators, rows, size)

    def wait(self):
        pass

    def close(self):
        pass


def test_reports_do_not_depend_on_the_draw_ahead_thread(monkeypatch, thread_starts):
    workload, alloc = _montecarlo(3 * CHUNK + 17)
    threaded = score_allocation(workload, alloc, seed=5), simulate_pipeline(workload, alloc, 2 * CHUNK + 9, seed=6)
    assert len(thread_starts) == 2
    monkeypatch.setattr(propagation, "_DrawAhead", _DrawsInline)
    inline = score_allocation(workload, alloc, seed=5), simulate_pipeline(workload, alloc, 2 * CHUNK + 9, seed=6)
    assert len(thread_starts) == 2
    assert threaded == inline


def test_sink_failure_propagates_joins_the_thread_and_leaves_no_dump(tmp_path, monkeypatch):
    workload, alloc = _montecarlo(1000)
    workload_path, allocation_path, dump = tmp_path / "w.json", tmp_path / "a.json", tmp_path / "trials.csv"
    workload_path.write_text(json.dumps(workload.to_dict()), encoding="utf-8")
    allocation_path.write_text(json.dumps(allocation_to_dict(alloc)), encoding="utf-8")
    make_writer = csv.writer

    class FailingSecondChunk:
        def __init__(self, *args, **kwargs):
            self.writer, self.chunks = make_writer(*args, **kwargs), 0

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            self.chunks += 1
            if self.chunks == 2:
                raise RuntimeError("sink failed on chunk 2")
            self.writer.writerows(rows)

    monkeypatch.setattr(csv, "writer", FailingSecondChunk)
    draw = propagation._draw_uniforms

    def slow_on_the_draw_thread(*args):
        # So that the draw of chunk 3 is still running when chunk 2's sink raises.
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
        draw(*args)

    monkeypatch.setattr(propagation, "_draw_uniforms", slow_on_the_draw_thread)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 2"):
        run_cli([
            "simulate", "--workload", str(workload_path), "--allocation", str(allocation_path),
            "--trials", str(3 * CHUNK), "--seed", "7", "--dump-trials", str(dump),
        ])
    assert threading.active_count() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "w.json"]


def test_a_failed_draw_on_the_thread_is_raised_by_the_call(monkeypatch):
    draw = propagation._draw_uniforms
    calls = []

    def failing_second(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 2:
            raise MemoryError("draw failed")
        draw(*args)

    monkeypatch.setattr(propagation, "_draw_uniforms", failing_second)
    workload, alloc = _montecarlo(3 * CHUNK)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="draw failed"):
        score_allocation(workload, alloc, seed=3)
    assert threading.active_count() == before
    # The first chunk is drawn on the calling thread, the second on the draw-ahead thread.
    assert calls[0] == threading.current_thread().name != calls[1]


def test_importing_the_kernel_starts_no_thread():
    completed = subprocess.run(
        [sys.executable, "-c", "import threading, dpbudget.propagation; print(threading.active_count())"],
        capture_output=True, text=True, env=module_env(),
    )
    assert (completed.returncode, completed.stderr, completed.stdout) == (0, "", "1\n")


def test_concurrent_calls_with_a_short_switch_interval_match_a_lone_call():
    # Four callers, each with its own draw-ahead thread, on two cores; a thread switch every microsecond
    # would expose a buffer read before its draws finished, or drawn twice.
    workload, alloc = _montecarlo(3 * CHUNK + 17)
    expected = score_allocation(workload, alloc, seed=5)
    reports = [None] * 4

    def score(slot):
        reports[slot] = score_allocation(workload, alloc, seed=5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=score, args=(slot,)) for slot in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert reports == [expected] * 4

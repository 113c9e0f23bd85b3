"""The Monte Carlo kernel's helper thread, which produces noise groups alongside the caller: it never
outlives a call, results do not depend on it, nothing traced runs on it, and a call of one group per
chunk starts none. No test here depends on which thread claims which group."""

import importlib.util
import json
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import dpbudget
from dpbudget import (
    noise_stream,
    parse_expression,
    propagate_variance_montecarlo,
    score_allocation,
    simulate_pipeline,
)
from dpbudget import propagation
from dpbudget.cli import run_cli
from dpbudget.errors import NonFiniteError
from dpbudget.propagation import CHUNK
from dpbudget.simulation import _simulate

from helpers import allocation, make_workload, paper_workload
from test_cli import module_env
from test_golden import CASES, _run


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


def _wide(statistics, samples=1000):
    """``statistics`` statistics, each with one equation (a sum, a quotient or a product), at equal budgets."""
    patterns = ("{a} + {b}", "({a} - {b}) / {c}", "{a} * {c}")
    stats = tuple((f"s{i}", 1.0 + i % 3, 100.0 + i) for i in range(1, statistics + 1))
    equations = tuple(
        (f"eq{i}", patterns[i % 3].format(a=f"s{i}", b=f"s{i % statistics + 1}", c=f"s{(i + 5) % statistics + 1}"), 1.5)
        for i in range(1, statistics + 1)
    )
    workload = make_workload(
        epsilon=float(statistics), stats=stats, equations=equations, estimator="montecarlo", mc_samples=samples
    )
    return workload, allocation(workload, *[1.0] * statistics)


def test_multichunk_calls_leave_no_thread_running(thread_starts):
    before = threading.active_count()
    # Eight streams of a full chunk make two groups.
    workload, alloc = _wide(8, 3 * CHUNK + 5)
    score_allocation(workload, alloc, seed=3)
    assert threading.active_count() == before
    simulate_pipeline(workload, alloc, 2 * CHUNK + 1, seed=7)
    assert threading.active_count() == before
    # One helper per call of several groups a chunk.
    assert thread_starts == ["dpbudget-draws"] * 2
    # The paper's four streams make one group a chunk, so its calls start none, however many chunks they have.
    workload, alloc = _montecarlo(3 * CHUNK + 5)
    score_allocation(workload, alloc, seed=3)
    simulate_pipeline(workload, alloc, 2 * CHUNK + 1, seed=7)
    assert thread_starts == ["dpbudget-draws"] * 2


def test_a_call_of_one_group_starts_no_helper_and_a_wide_call_of_one_chunk_starts_one(thread_starts):
    # Four streams of 1000 or CHUNK samples make one group of at most 4 * CHUNK values.
    workload, alloc = _montecarlo(1000)
    score_allocation(workload, alloc, seed=3)
    simulate_pipeline(workload, alloc, CHUNK, seed=7)
    assert thread_starts == []
    before = threading.active_count()
    workload, alloc = _wide(300)
    simulate_pipeline(workload, alloc, 1000, seed=7)
    assert thread_starts == ["dpbudget-draws"]
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["wide_simulate.json", "wide_score_montecarlo.json"])
def test_each_wide_golden_run_starts_one_helper(name, thread_starts):
    # Twelve streams make three groups of a full chunk.
    assert _run(CASES[name])[0] == 0
    assert thread_starts == ["dpbudget-draws"]


def _peak_in_columns(expression, workload, alloc, samples):
    """tracemalloc's peak over one propagate_variance_montecarlo call, in CHUNK-float columns."""
    propagate_variance_montecarlo(expression, workload, alloc, samples, seed=1)  # imports and caches first
    tracemalloc.start()
    try:
        propagate_variance_montecarlo(expression, workload, alloc, samples, seed=1)
        return tracemalloc.get_traced_memory()[1] / (CHUNK * 8)
    finally:
        tracemalloc.stop()


def test_a_call_without_a_helper_allocates_one_buffer_and_one_scratch_array(thread_starts):
    # Four streams make one group a chunk, so no helper starts: a chunk is produced only after the last
    # one was evaluated, and one (4 x CHUNK) buffer and one 4 * CHUNK scratch array serve the call.
    workload, alloc = _montecarlo(1000)
    expression = parse_expression("s1 + s2 + s3 + s4")
    one_chunk = _peak_in_columns(expression, workload, alloc, CHUNK)
    three_chunks = _peak_in_columns(expression, workload, alloc, 3 * CHUNK + 17)
    assert thread_starts == []
    assert three_chunks < one_chunk + 1  # the chunks share the one buffer
    assert three_chunks < 4 + 4 + 6  # the buffer, the scratch array and a few evaluation temporaries


def _claims_nothing(noise):
    """Stands in for the helper thread's loop: it keeps the handshake with the calling thread but claims no
    group, so the calling thread produces every one. Counts its runs in ``_claims_nothing.runs``."""
    _claims_nothing.runs += 1
    while True:
        noise.woken.acquire()
        if noise.closed:
            return
        noise.idle.release()


def test_reports_do_not_depend_on_the_draw_ahead_thread(monkeypatch, thread_starts):
    # One chunk of ten groups, four chunks of one group, three chunks of ten groups (the last of one).
    shapes = [_wide(40, CHUNK), _montecarlo(3 * CHUNK + 17), _wide(40, 2 * CHUNK + 9)]

    def reports():
        return [
            (
                score_allocation(workload, alloc, seed=5),
                simulate_pipeline(workload, alloc, workload.options.mc_samples, seed=6),
                propagate_variance_montecarlo(
                    workload.equations[1].expression, workload, alloc, workload.options.mc_samples, seed=4
                ),
            )
            for workload, alloc in shapes
        ]

    threaded = reports()
    # Only the 40-statistic scores and simulations take a helper: the paper's four streams and each
    # propagation's three make one group a chunk.
    assert thread_starts == ["dpbudget-draws"] * 4
    _claims_nothing.runs = 0
    monkeypatch.setattr(propagation._Noise, "_help", _claims_nothing)
    inline = reports()
    assert (len(thread_starts), _claims_nothing.runs) == (8, 4)
    assert threaded == inline


def test_each_stream_is_drawn_once_per_chunk_in_chunk_order(monkeypatch):
    workload, alloc = _wide(40)
    count = 2 * CHUNK + 9
    stream_of = {}
    draws = {}
    make_stream, draw = propagation.noise_stream, propagation._draw_uniforms

    def recorded_stream(seed, index):
        stream = make_stream(seed, index)
        stream_of[id(stream)] = index
        return stream

    def recorded_draw(generators, rows, size):
        draw(generators, rows, size)
        for generator, row in zip(generators, rows):
            draws.setdefault(stream_of[id(generator)], []).append(row[:size].copy())

    monkeypatch.setattr(propagation, "noise_stream", recorded_stream)
    monkeypatch.setattr(propagation, "_draw_uniforms", recorded_draw)
    simulate_pipeline(workload, alloc, count, seed=11)
    assert sorted(draws) == list(range(40))
    for index, pieces in draws.items():
        assert [piece.size for piece in pieces] == [CHUNK, CHUNK, 9]
        assert np.array_equal(np.concatenate(pieces), noise_stream(11, index).random(count))


def _helper_first(monkeypatch, name, error=None):
    """Patches propagation.<name> so that the calling thread's first call waits (up to 10 s) until the
    helper has made one, so the helper produces a group whoever claims first; there it raises ``error``,
    if given. Returns the event set by the helper's call."""
    function = getattr(propagation, name)
    helper_called = threading.Event()
    caller = threading.current_thread()

    def patched(*args):
        if threading.current_thread() is not caller:
            helper_called.set()
            if error is not None:
                raise error
        else:
            helper_called.wait(timeout=10)
        return function(*args)

    monkeypatch.setattr(propagation, name, patched)
    return helper_called


def test_a_failed_draw_on_the_thread_is_raised_by_the_call(monkeypatch):
    workload, alloc = _wide(40, CHUNK)
    helper_called = _helper_first(monkeypatch, "_draw_uniforms", MemoryError("draw failed"))
    before = threading.active_count()
    with pytest.raises(MemoryError, match="draw failed"):
        score_allocation(workload, alloc, seed=3)
    assert helper_called.is_set()
    assert threading.active_count() == before


def test_a_failed_transform_on_the_helper_is_raised_by_the_call(monkeypatch):
    workload, alloc = _wide(40, 2 * CHUNK)
    helper_called = _helper_first(monkeypatch, "_laplace_from_uniform", FloatingPointError("transform failed"))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="transform failed"):
        simulate_pipeline(workload, alloc, 2 * CHUNK, seed=3)
    assert helper_called.is_set()
    assert threading.active_count() == before


def test_the_helper_runs_under_the_callers_errstate(monkeypatch):
    # Noise scale 1e308: the largest draws overflow, which the kernel ignores and reports as NonFiniteError.
    # Under numpy's default errstate the helper would warn, and RuntimeWarning is an error here.
    # Each predicted rmse, sqrt(2) * 1e308 at most, is finite.
    stats = tuple((f"s{i}", 1e300, 1.0) for i in range(1, 41)) + (("t", 1.0, 1.0),)
    workload = make_workload(epsilon=41e-8, stats=stats, equations=(("eq", "2 * t", 1.0),))
    helper_called = _helper_first(monkeypatch, "_laplace_from_uniform")
    with pytest.raises(NonFiniteError, match="Monte Carlo errors overflow"):
        simulate_pipeline(workload, allocation(workload, *[1e-8] * 41), CHUNK, seed=1)
    assert helper_called.is_set()


def test_sink_failure_propagates_joins_the_thread_and_leaves_no_dump(tmp_path, monkeypatch, thread_starts):
    workload, alloc = _wide(8)
    workload_path, allocation_path, dump = tmp_path / "w.json", tmp_path / "a.json", tmp_path / "trials.csv"
    workload_path.write_text(json.dumps(workload.to_dict()), encoding="utf-8")
    allocation_path.write_text(json.dumps(asdict(alloc)), encoding="utf-8")
    simulate = dpbudget.simulation._simulate

    def failing_second_chunk(workload, allocation, trials, seed, sink):
        chunks = []

        def sink_failing_on_chunk_2(start, chunk_errors):
            chunks.append(start)
            if len(chunks) == 2:
                raise RuntimeError("sink failed on chunk 2")
            sink(start, chunk_errors)

        return simulate(workload, allocation, trials, seed, sink_failing_on_chunk_2)

    monkeypatch.setattr(dpbudget.simulation, "_simulate", failing_second_chunk)
    draw = propagation._draw_uniforms

    def slow_on_the_helper(*args):
        # So that a draw on the helper can still be running when chunk 2's sink raises.
        if threading.current_thread() is not threading.main_thread():
            threading.Event().wait(0.2)
        draw(*args)

    monkeypatch.setattr(propagation, "_draw_uniforms", slow_on_the_helper)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 2"):
        run_cli([
            "simulate", "--workload", str(workload_path), "--allocation", str(allocation_path),
            "--trials", str(3 * CHUNK), "--seed", "7", "--dump-trials", str(dump),
        ])
    assert thread_starts == ["dpbudget-draws"]
    assert threading.active_count() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "w.json"]


def test_a_keyboard_interrupt_in_the_caller_joins_the_helper(thread_starts):
    workload, alloc = _wide(40)

    def interrupted(start, chunk_errors):
        if start:
            raise KeyboardInterrupt

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _simulate(workload, alloc, 3 * CHUNK, 2, interrupted)
    assert thread_starts == ["dpbudget-draws"]
    assert threading.active_count() == before


def _bench_layers():
    """bench/tracing.py's LAYERS: the functions the benchmark's tracer wraps, by module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_nothing_the_benchmark_traces_runs_on_the_helper(monkeypatch, thread_starts):
    # The tracer keeps one stack of open spans, which is not thread-safe: every traced call must run on the caller.
    calls = []
    modules = [dpbudget] + [module for name, module in sys.modules.items() if name.startswith("dpbudget.")]
    for layer, names in _bench_layers().items():
        home = sys.modules[f"dpbudget.{layer}"]
        for name in names:
            function = getattr(home, name, None)
            if function is None:  # listed in bench/tracing.py but gone from the package
                continue

            def recorded(*args, _function=function, _name=f"{layer}.{name}", **kwargs):
                calls.append((_name, threading.current_thread()))
                return _function(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, recorded)
    workload, alloc = _wide(300)
    dpbudget.simulate_pipeline(workload, alloc, 2000, seed=1)
    workload, alloc = _wide(8)
    dpbudget.simulate_pipeline(workload, alloc, 2 * CHUNK + 3, seed=2)
    assert thread_starts == ["dpbudget-draws"] * 2
    assert {"noise.noise_stream", "expressions.evaluate_batch", "simulation.simulate_pipeline"} <= {
        name for name, _ in calls
    }
    assert {thread for _, thread in calls} == {threading.current_thread()}


def test_importing_the_kernel_starts_no_thread():
    completed = subprocess.run(
        [sys.executable, "-c", "import threading, dpbudget.propagation; print(threading.active_count())"],
        capture_output=True, text=True, env=module_env(),
    )
    assert (completed.returncode, completed.stderr, completed.stdout) == (0, "", "1\n")


def test_concurrent_calls_with_a_short_switch_interval_match_a_lone_call():
    # Four callers, each with its own helper, on two cores; a thread switch every microsecond would expose
    # a group read before it was produced, or produced twice.
    workload, alloc = _wide(12, 2 * CHUNK + 17)
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

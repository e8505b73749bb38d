"""Outside-in tracer: wraps certlab's public functions from the benchmark side.

No program file changes.  Each traced function is replaced by a wrapper in
its home module and in every certlab module that imported it by name (for
example ``rng_for`` is bound separately in ``dag``, ``cib``, ``curriculum``,
``dynamics`` and ``experiments``), so every call goes through the wrapper.

Per function the tracer records the call count, the inclusive time and the
self time (inclusive time minus the time spent in traced callees).  State is
kept per thread, because ``deterministic_map`` runs kernels on a thread pool
and a shared read-modify-write counter could lose updates; the per-thread
records are summed when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
from dataclasses import replace
from time import perf_counter

# (module, function) pairs wrapped in every traced run.  The names are the
# layers the benchmark reports; see bench/README.md for what each should move.
TRACED = (
    ("curriculum", "mle_fit"),
    ("curriculum", "log_likelihood_grad"),
    ("categorical", "kl_divergence"),
    ("categorical", "as_distribution"),
    ("categorical", "peaked_distribution"),
    ("cib", "solve_cib"),
    ("cib", "_encoder_sweep"),
    ("cib", "conditional_mutual_information"),
    ("cib", "dual_objective"),
    ("cib", "brute_force_cib"),
    ("seeding", "rng_for"),
    ("seeding", "derive_seed"),
    ("dag", "run_search"),
    ("dag", "make_policy"),
    ("dag", "enumerate_paths"),
    ("dynamics", "monte_carlo_error"),
    ("dynamics", "simulate_discrete_chain"),
    ("dynamics", "empirical_accuracy_sweep"),
    ("cat_bulk", "certainty_panel"),
    ("manifest", "write_csv"),
    ("report", "emit_markdown"),
    ("report", "emit_svg_charts"),
    ("config", "build_config"),
    ("experiments", "deterministic_map"),
)


class _Record:
    __slots__ = ("calls", "inclusive", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.work = 0  # per-function extra count: trials, bytes or winner sweeps


class _ThreadState:
    __slots__ = ("stack", "records")

    def __init__(self):
        self.stack: list[float] = []  # time spent in traced callees, per open frame
        self.records: dict[str, _Record] = {}


def _argument(fn, name):
    """Return a getter for parameter ``name`` of ``fn`` from (args, kwargs)."""
    position = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[position]

    return get


class Tracer:
    """Wraps functions, counts calls and accumulates self time per thread."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, key: str, fn, work=None):
        """Return a traced version of ``fn``; ``work(args, kwargs, result)`` adds to the work count."""
        local = self._local
        new_state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                in_callees = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = state.records.get(key)
                if record is None:
                    record = state.records[key] = _Record()
                record.calls += 1
                record.inclusive += elapsed
                record.self_time += elapsed - in_callees
            if work is not None:
                record.work += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and each experiment runner, rebinding all imports."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("certlab.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"certlab.{module_name}"]
            original = getattr(module, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, _work_counter(module_name, attr, original))
            for candidate in modules:
                for name, value in list(vars(candidate).items()):
                    if value is original:
                        setattr(candidate, name, wrapper)
        experiments = sys.modules["certlab.experiments"]
        for name, definition in experiments.EXPERIMENTS.items():
            experiments.EXPERIMENTS[name] = replace(
                definition, runner=self.wrap(f"experiments.{name}", definition.runner)
            )

    def records(self) -> dict[str, dict]:
        """Sum the per-thread records into one dict keyed by ``module.function``."""
        merged: dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, record in state.records.items():
                total = merged.setdefault(key, {"calls": 0, "inclusive": 0.0, "self_time": 0.0, "work": 0})
                total["calls"] += record.calls
                total["inclusive"] += record.inclusive
                total["self_time"] += record.self_time
                total["work"] += record.work
        return merged


def wrapper_cost(samples: int = 5, calls: int = 50_000) -> float:
    """Median extra seconds that one traced call costs over a direct call, timed on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    costs = []
    for _ in range(samples):
        start = perf_counter()
        for _ in range(calls):
            noop()
        direct = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - start - direct) / calls)
    return statistics.median(costs)


def _work_counter(module_name: str, attr: str, fn):
    """Extra per-call count for the functions whose work is not one unit per call."""
    if (module_name, attr) in (("dag", "run_search"), ("dynamics", "monte_carlo_error")):
        trials = _argument(fn, "trials")
        return lambda args, kwargs, result: int(trials(args, kwargs))
    if (module_name, attr) == ("manifest", "write_csv"):
        path = _argument(fn, "path")
        return lambda args, kwargs, result: path(args, kwargs).stat().st_size
    if (module_name, attr) == ("cib", "solve_cib"):
        # objective_trace holds the winning candidate's start value plus one per sweep
        return lambda args, kwargs, result: len(result.objective_trace) - 1
    return None

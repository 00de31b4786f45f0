"""Spans and counters recorded from outside the library.

The tracer replaces public functions in the module namespaces where the
pipeline looks them up at call time (``hcransim.experiments``,
``hcransim.beamforming``, ``hcransim.rate_bounds``) with thin wrappers that
record one span per call, and counts ``numpy.linalg.solve`` calls. Nothing in
``src/`` changes; ``Tracer.installed()`` restores every original on exit.

A span is (name, start, end, parent, drop). Spans are kept in memory and
written out by ``write_spans`` once the traced pass ends. Self time of a span
is its duration minus the durations of its direct children, which nest
exactly because the pipeline runs on one thread. ``overhead_s`` is the CPU
time the tracer added: its spans and counted solves, each at the measured
cost per call of wrapping a no-op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import time

# (module, attribute, span name). The span name is the layer (module) that
# defines the function, whichever namespace the call goes through.
PATCH_POINTS = (
    ("experiments", "generate_topology", "scenario.generate_topology"),
    ("experiments", "build_conflict_graph", "pilot_scheduler.build_conflict_graph"),
    ("experiments", "compute_beta", "pilot_scheduler.compute_beta"),
    ("experiments", "psa_schedule", "pilot_scheduler.psa_schedule"),
    ("experiments", "dsatur_random_schedule", "pilot_scheduler.dsatur_random_schedule"),
    ("experiments", "es_schedule", "pilot_scheduler.es_schedule"),
    ("experiments", "sum_mse", "pilot_scheduler.sum_mse"),
    ("experiments", "draw_small_scale", "channel.draw_small_scale"),
    ("experiments", "estimate_channels", "channel.estimate_channels"),
    ("experiments", "perfect_channel_state", "channel.perfect_channel_state"),
    ("experiments", "build_covariances", "rate_bounds.build_covariances"),
    ("experiments", "lower_bound_rates", "rate_bounds.lower_bound_rates"),
    ("experiments", "monte_carlo_rates", "rate_bounds.monte_carlo_rates"),
    ("experiments", "rtd_solve", "beamforming.rtd_solve"),
    ("beamforming", "assemble_qcqp", "beamforming.assemble_qcqp"),
    ("beamforming", "solve_qcqp", "beamforming.solve_qcqp"),
    ("beamforming", "interference_plus_noise", "rate_bounds.interference_plus_noise"),
    ("rate_bounds", "interference_plus_noise", "rate_bounds.interference_plus_noise"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    drop: int


class Tracer:
    """Records spans and exact counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {
            "rtd_iterations": 0,
            "dual_updates": 0,
            "linalg_solve_calls": 0,
            "mc_user_trials": 0,
            "convergence_errors": 0,
        }
        # Per drop: what the wrapped calls returned, checked after the pass
        # so the checks cost no traced time.
        self.captured: dict[int, dict] = {}
        self.drop = -1
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.drop))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def start_drop(self, drop: int) -> None:
        self.drop = drop
        self.captured[drop] = {"rtd": [], "lb": [], "mc": []}

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, after, counted_error):
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except counted_error:
                tracer.counters["convergence_errors"] += 1
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hooks(self, modules):
        counters, captured = self.counters, self.captured
        mc_signature = inspect.signature(modules["rate_bounds"].monte_carlo_rates)

        def solve_qcqp(args, kwargs, result):
            if isinstance(result, tuple):
                counters["dual_updates"] += int(result[1]["dual_iterations"])

        def rtd_solve(args, kwargs, result):
            counters["rtd_iterations"] += int(result[1].iterations)
            captured[self.drop]["rtd"].append((args[0], args[3], result[0], result[1]))

        def lower_bound_rates(args, kwargs, result):
            captured[self.drop]["lb"].append(result)

        def monte_carlo_rates(args, kwargs, result):
            bound = mc_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counters["mc_user_trials"] += len(result[0]) * int(bound.arguments["trials"])
            captured[self.drop]["mc"].append(result)

        return {
            "beamforming.solve_qcqp": solve_qcqp,
            "beamforming.rtd_solve": rtd_solve,
            "rate_bounds.lower_bound_rates": lower_bound_rates,
            "rate_bounds.monte_carlo_rates": monte_carlo_rates,
        }

    def _counted(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["linalg_solve_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the library for the duration of the block."""
        import numpy as np

        import hcransim.beamforming
        import hcransim.experiments
        import hcransim.rate_bounds

        modules = {
            "experiments": hcransim.experiments,
            "beamforming": hcransim.beamforming,
            "rate_bounds": hcransim.rate_bounds,
        }
        ConvergenceError = hcransim.beamforming.ConvergenceError
        hooks = self._after_hooks(modules)
        saved = []
        solve = np.linalg.solve
        try:
            for mod_name, attr, span_name in PATCH_POINTS:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                # A stalled design counts once, where rtd_solve gives up.
                counted = ConvergenceError if span_name == "beamforming.rtd_solve" else ()
                setattr(module, attr, self._wrap(span_name, original, hooks.get(span_name), counted))
            saved.append((np.linalg, "solve", solve))
            np.linalg.solve = self._counted(solve)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reduction -----------------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: busy seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[idx]
        return out

    def overhead_s(self) -> float:
        """CPU seconds the tracer added to the calls it recorded: each span
        and each counted solve at the cost per call of wrapping a no-op."""
        span_s, count_s = unit_costs()
        return len(self.spans) * span_s + self.counters["linalg_solve_calls"] * count_s

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def unit_costs(calls: int = 20000, rounds: int = 5) -> tuple[float, float]:
    """CPU seconds per call that a span and a counted solve add to a call.

    Each is the fastest of `rounds` timings of `calls` calls of a wrapped
    no-op, less the same for the bare no-op; the fastest round is the one
    least disturbed by other processes.
    """

    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    tracer.start_drop(0)
    spanned = tracer._wrap("noop", noop, None, ())
    counted = tracer._counted(noop)

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            tracer.spans.clear()
            start = time.process_time()
            for _ in range(calls):
                fn()
            best = min(best, time.process_time() - start)
        return best / calls

    bare = per_call(noop)
    return per_call(spanned) - bare, per_call(counted) - bare

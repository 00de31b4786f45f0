"""hcransim benchmark: seeded drops through the public sweep API.

Run from the root of a checkout:

    python3 bench/run.py --workload drop_small --seed 0 --seconds 20 --trace 0

One process, one caller, a closed loop: the next drop starts when the
previous one returns, with ``jobs=1``. Process-pool scaling (``jobs > 1``) is
left out because two shared cores would measure the OS scheduler. BLAS and
OpenMP are pinned to one thread before numpy loads.

Each workload is a fixed panel of drops (see ``workloads.py``); the seed
sets the order of a pass over it. ``--trace 0`` times whole passes for about
``--seconds`` (at least two) and prints the end-to-end metrics, in raw
seconds and normalised by the machine's speed, sampled with a fixed
calibration task around and during each drop (see ``calibration.py``).
``--trace 1`` makes one pass in which every drop runs untraced and then
traced, with spans and counters recorded from outside the library (see
``tracing.py``), checks that both runs of a drop return identical rows, and
prints the per-layer metrics, per traced drop. Spans are written to
``.bench_out/`` in the checkout.

Every drop's rows are checked, and its design quality is compared with the
reference in ``quality_ref.json`` (see ``workloads.py``); a check failure
makes ``correct`` false and the exit code 1. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 2, with no result, when the checkout has no
``src/hcransim``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
NUMPY_IMPORT_REF_S = 0.15
MIN_PASSES = 2  # a drop's time is its mean over the passes
TAIL_BEYOND = 10

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import hcransim, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].config(0)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_s_raw": "s",
    "drops_per_s": "1/s",
    "drop_s_p50": "s",
    "drop_s_tail": "s",
    "cpu_s_per_drop": "s",
    "drops_per_s_norm": "1/s",
    "drop_s_p50_norm": "s",
    "drop_s_tail_norm": "s",
    "cpu_s_per_drop_norm": "s",
    "failed_share": "ratio",
    "stalled_share": "ratio",
    "peak_rss_mb": "MB",
    "sum_se_mc_mean": "bit/s/Hz",
    "sum_mse_psa_mean": "gain",
}
# The end-to-end metrics in the JSON result: those defined, never 0 and
# steady on every workload. Drop times are normalised by the calibration
# task (calibration.py) and setup_s by a reference interpreter start; raw
# seconds and the rest are printed alongside.
REPORTED = (
    "setup_s",
    "drops_per_s_norm",
    "drop_s_p50_norm",
    "drop_s_tail_norm",
    "cpu_s_per_drop_norm",
    "peak_rss_mb",
)

# Per-layer metrics of the traced pass, per traced drop. Span metrics are
# "<layer>.<function>.<s|self_s|calls>".
SPAN_METRICS = (
    "pilot_scheduler.es_schedule.s",
    "pilot_scheduler.psa_schedule.s",
    "pilot_scheduler.compute_beta.s",
    "pilot_scheduler.build_conflict_graph.s",
    "pilot_scheduler.sum_mse.s",
    "pilot_scheduler.sum_mse.calls",
    "scenario.generate_topology.s",
    "channel.draw_small_scale.s",
    "channel.estimate_channels.s",
    "channel.perfect_channel_state.s",
    "rate_bounds.monte_carlo_rates.s",
    "rate_bounds.build_covariances.s",
    "rate_bounds.interference_plus_noise.s",
    "rate_bounds.interference_plus_noise.calls",
    "rate_bounds.lower_bound_rates.s",
    "beamforming.solve_qcqp.s",
    "beamforming.solve_qcqp.calls",
    "beamforming.rtd_solve.s",
    "beamforming.rtd_solve.self_s",
    "beamforming.assemble_qcqp.s",
    "experiments.run_se_sweep.self_s",
    "experiments.run_mse_sweep.self_s",
)
COUNTER_METRICS = {
    "rate_bounds.mc_user_trials": "mc_user_trials",
    "beamforming.dual_updates": "dual_updates",
    "beamforming.linalg_solve_calls": "linalg_solve_calls",
    "beamforming.rtd_iterations": "rtd_iterations",
    "beamforming.convergence_errors": "convergence_errors",
}
PER_LAYER = (
    SPAN_METRICS
    + tuple(COUNTER_METRICS)
    + ("rate_bounds.bound_violation_share", "trace.overhead_share")
)


@dataclass
class Drop:
    index: int
    wall: float
    cpu: float
    rows: list | None
    error: str | None
    rep_wall: float = 0.0  # calibration seconds per rep around the drop
    rep_cpu: float = 0.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str) -> tuple[float, float]:
    """(setup_s, raw median seconds) of a fresh interpreter importing
    hcransim and building the workload's config.

    Each start alternates with a reference start that imports only numpy,
    and setup_s is the median ratio of the two times in reference seconds:
    seconds on a machine where the reference takes NUMPY_IMPORT_REF_S. The
    ratio cancels the machine's slow phases, which moved the raw median by
    up to 30% between runs. One untimed pair warms file caches.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload]
    ref = [sys.executable, "-c", "import numpy"]

    def timed(args) -> float:
        start = time.perf_counter()
        subprocess.run(args, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        return time.perf_counter() - start

    raw, ratios = [], []
    for rep in range(SETUP_REPEATS + 1):
        ref_s, setup_s = timed(ref), timed(cmd)
        if rep:
            raw.append(setup_s)
            ratios.append(setup_s / ref_s)
    return NUMPY_IMPORT_REF_S * statistics.median(ratios), statistics.median(raw)


def run_drops(workload, indices, tracer=None, calibration=None):
    """Closed loop over the given panel drops.

    With a calibration, the machine's speed is sampled around and during
    each drop, the sampling time is taken out of the drop's time, and each
    drop records the speed near it.
    Returns (drops, wall seconds, process CPU seconds) of the loop.
    """
    drops, spans = [], []
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    for idx in indices:
        cfg = workload.config(idx)
        with calibration.around() if calibration else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            rows, error = None, None
            try:
                if tracer is None:
                    rows = workload.sweep(cfg).rows
                else:
                    tracer.start_drop(idx)
                    with tracer.span(f"experiments.{workload.api}"):
                        rows = workload.sweep(cfg).rows
            except Exception as exc:  # a drop that raises is counted as failed
                error = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
        drops.append(Drop(idx, t1 - t0, c1 - c0, rows, error))
        spans.append((t0, t1))
    if calibration is not None:
        for drop, (t0, t1) in zip(drops, spans):
            busy_wall, busy_cpu = calibration.busy(t0, t1)
            drop.wall -= busy_wall
            drop.cpu -= busy_cpu
            drop.rep_wall, drop.rep_cpu = calibration.rep_time(t0, t1)
    return drops, time.perf_counter() - start_wall, time.process_time() - start_cpu


def run_passes(workload, seed: int, seconds: float) -> list[list[Drop]]:
    """Whole passes over the panel in the seed's order, calibrated: at least
    MIN_PASSES, and another while the last pass's duration still fits in
    `seconds`."""
    from calibration import Calibration

    calibration = Calibration()
    order = workload.drop_order(seed)
    passes, wall, pass_wall = [], 0.0, 0.0
    while len(passes) < MIN_PASSES or wall + pass_wall <= seconds:
        drops, pass_wall, _ = run_drops(workload, order, calibration=calibration)
        passes.append(drops)
        wall += pass_wall
    return passes


def check_drops(workload, drops, problems: list) -> tuple[list, int]:
    """Per-drop summaries of drops whose output and design quality passed;
    returns (summaries, failed)."""
    from workloads import CheckError, load_quality_reference

    reference = load_quality_reference()
    summaries, failed = [], 0
    for drop in drops:
        if drop.error is not None:
            failed += 1
            problems.append(f"drop {drop.index} raised {drop.error}")
            continue
        try:
            summary = workload.check(drop.rows)
            workload.check_quality(drop.index, summary, reference)
            summaries.append(summary)
        except CheckError as exc:
            failed += 1
            problems.append(f"drop {drop.index}: {exc}")
    return summaries, failed


def tail(walls: list) -> tuple[float, float, int]:
    """(value, percentile, drops beyond) at the highest percentile with at
    least TAIL_BEYOND drops beyond it; the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def timing_metrics(per_drop: list, total: float, count: int, cpu: float, suffix: str) -> dict:
    tail_value, _, _ = tail(per_drop)
    return {
        "drops_per_s" + suffix: count / total,
        "drop_s_p50" + suffix: statistics.median(per_drop),
        "drop_s_tail" + suffix: tail_value,
        "cpu_s_per_drop" + suffix: cpu / count,
    }


def end_to_end(workload, seed: int, seconds: float, problems: list):
    from calibration import REF_REP_S

    passes = run_passes(workload, seed, seconds)
    attempted = [d for drops in passes for d in drops]
    summaries, failed = check_drops(workload, passes[0], problems)
    failed += check_drops(workload, attempted[len(passes[0]):], [])[1]
    for first, *later in zip(*passes):
        if any((d.rows, d.error) != (first.rows, first.error) for d in later):
            problems.append(f"drop {first.index}: output differs between passes")

    def scaled(drop, field):
        return getattr(drop, field) * REF_REP_S / getattr(drop, "rep_" + field)

    n = len(attempted)
    per_drop = [statistics.fmean(d.wall for d in runs) for runs in zip(*passes)]
    per_drop_norm = [statistics.fmean(scaled(d, "wall") for d in runs) for runs in zip(*passes)]
    values = timing_metrics(
        per_drop, sum(d.wall for d in attempted), n, sum(d.cpu for d in attempted), ""
    )
    values.update(
        timing_metrics(
            per_drop_norm,
            sum(scaled(d, "wall") for d in attempted),
            n,
            sum(scaled(d, "cpu") for d in attempted),
            "_norm",
        )
    )
    values["failed_share"] = failed / n
    values["stalled_share"] = sum(s["stalled"] for s in summaries) / len(passes[0])
    se = [s["sum_se_mc"] for s in summaries if "sum_se_mc" in s]
    if se:
        values["sum_se_mc_mean"] = statistics.fmean(se)
    mse = [v for s in summaries for v in s.get("sum_mse_psa", ())]
    if mse:
        values["sum_mse_psa_mean"] = statistics.fmean(mse)
    _, tail_pct, beyond = tail(per_drop)
    tail_note = f"p{tail_pct:.1f} of {len(per_drop)} panel drops, {beyond} beyond"
    notes = {
        "drops_per_s": f"{n} drops in {len(passes)} passes",
        "drop_s_tail": tail_note,
        "drop_s_tail_norm": tail_note,
    }
    return values, notes, n, failed


def traced(workload, seed: int, problems: list, spans_path: Path, env: dict):
    from tracing import Tracer
    from workloads import CheckError, bound_violations, check_traced

    # One pass over the panel; each drop runs untraced and then traced. The
    # tracer's overhead is what its spans and counted solves cost per call,
    # over the untraced runs' CPU seconds: the difference of traced and
    # untraced times varied from -15% to +3% between runs on a shared
    # 2-core machine, while the tracer adds 0.1-1%.
    tracer = Tracer()
    runs, cpu = {False: [], True: []}, {False: 0.0, True: 0.0}
    for idx in workload.drop_order(seed):
        for with_trace in (False, True):
            with tracer.installed() if with_trace else contextlib.nullcontext():
                (drop,), _, drop_cpu = run_drops(workload, [idx], tracer if with_trace else None)
            runs[with_trace].append(drop)
            cpu[with_trace] += drop_cpu
    plain, drops = runs[False], runs[True]
    n = len(drops)
    _, failed = check_drops(workload, plain + drops, problems)
    for a, b in zip(plain, drops):
        if (a.rows, a.error) != (b.rows, b.error):
            problems.append(f"drop {a.index}: traced output differs from untraced output")
    over = users = 0
    for idx, captured in tracer.captured.items():
        try:
            check_traced(captured)
        except CheckError as exc:
            problems.append(f"drop {idx}: {exc}")
        o, u = bound_violations(captured)
        over, users = over + o, users + u

    layers = tracer.layer_times()
    values = {"trace.drops": float(n), "trace.overhead_share": tracer.overhead_s() / cpu[False]}
    for name in SPAN_METRICS:
        span_name, field = name.rsplit(".", 1)
        values[name] = layers.get(span_name, {}).get(field, 0) / n
    for name, counter in COUNTER_METRICS.items():
        values[name] = tracer.counters[counter] / n
    values["rate_bounds.bound_violation_share"] = over / users if users else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path, {"workload": workload.name, "seed": seed, "env": env})
    return values, len(plain) + n, failed


def per_layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if name == "trace.drops":
        return "count"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s/drop"
    return "count/drop"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hcransim" / "__init__.py").is_file():
        print(f"error: no hcransim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hcransim

    if Path(hcransim.__file__).resolve().parent != (SRC / "hcransim").resolve():
        print(f"error: imported hcransim from {hcransim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {workload.name}: (users, RRHs) = ({workload.num_ue}, {workload.num_rrh}), "
          f"{workload.api}, seed {args.seed}, {args.seconds:g} s, closed loop, jobs=1")

    # Warm lazy imports and caches on a tiny drop before timing.
    from hcransim import ScenarioConfig

    warm = workload.config(0)
    warm.scenario = ScenarioConfig(num_ue=6, num_rrh=5)
    workload.sweep(warm)

    problems: list[str] = []
    if args.trace:
        spans_path = OUT_DIR / f"spans_{workload.name}_seed{args.seed}.jsonl"
        values, attempted, failed = traced(workload, args.seed, problems, spans_path, env)
        units = {name: per_layer_unit(name) for name in values}
        notes = {}
        reported = PER_LAYER
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, notes, attempted, failed = end_to_end(workload, args.seed, args.seconds, problems)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values["setup_s"], values["setup_s_raw"] = measure_setup(workload.name)
        units = END_TO_END_UNITS
        reported = REPORTED
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value!r} {units[name]}{note}")
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

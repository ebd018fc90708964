"""alignflow benchmark: one workload per process, closed loop, host-speed-corrected timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_train --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it name every metric with its unit (corrected for host speed,
see perfbench/hostspeed.py, and as measured), the environment and a digest
of the workload's outputs. See perfbench/README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("toy_train", "long_train", "long_align")
BLAS_THREADS = 1  # tiny matrices: extra BLAS threads only add noise
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-ups before the first rep and after each rep; setup_s is their median
SETUPS_FIRST, SETUPS_PER_REP = 3, 2
SETUP_PROBES = 3  # probes before and after each set-up give its host speed
OVERRUN = 1.1  # a new rep starts only if it should end within seconds * OVERRUN
MIN_REPS = 2  # two samples per unit at least; a traced run alternates untraced / traced

END_TO_END_UNITS = {
    "main_ops_per_s": "1/s",
    "duration_ops_per_s": "1/s",
    "align_ms_p50": "ms",
    "align_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 7 for toy_train, 1 otherwise)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="length of the timed loop (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # no git: the source hash below still identifies the code
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "alignflow").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    import hostspeed
    from tracing import Tracer
    from workloads import CheckFailed, make_workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workloads(str(OUT_DIR))[name]
    seed = workload.default_seed if seed is None else seed
    tracer = Tracer() if trace else None
    problems: list[str] = []

    def window(label, traced=True):
        """A fresh context manager for one timed block: traced, or a no-op."""
        return tracer.window(label) if tracer and traced else contextlib.nullcontext()

    setup_s, setup_probes = [], []

    def timed_setup(count):
        for _ in range(count):
            probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
            start = time.perf_counter()
            with window(f"setup:{len(setup_s)}"):
                state = workload.setup(seed)
            setup_s.append(time.perf_counter() - start)
            probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
            setup_probes.append(statistics.median(probes))
        return state

    state = timed_setup(SETUPS_FIRST)
    if hasattr(workload, "check_setup"):
        try:
            workload.check_setup(state)
        except CheckFailed as e:
            problems.append(f"set-up: {e}")

    reps, traced_flags = [], []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1  # traced runs alternate untraced / traced reps
        probe = hostspeed.no_probe if traced else hostspeed.probe
        reps.append(workload.rep(state, window(f"rep:{len(reps)}", traced), probe))
        traced_flags.append(traced)
        timed_setup(SETUPS_PER_REP)
        elapsed = time.perf_counter() - loop_start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds * OVERRUN:
            break

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for i, r in enumerate(reps):
        problems += [f"rep {i}: {e}" for e in r.errors]
        if r.digest != reps[0].digest:
            problems.append(f"rep {i}: output digest {r.digest[:16]} differs from rep 0")
    # End-to-end figures come from untraced reps without failures. Every rep does
    # the same work, so each unit of work (an optimizer-step interval, an
    # utterance) keeps its fastest host-speed-corrected time over the reps'
    # passes: a slower sample holds an interruption (a garbage collection, a
    # slow stretch the correction missed). On the short units of toy_train it
    # was steadier than the median or the mean of the faster half (see
    # README.md). The as-measured figures (fastest raw time per unit) are
    # printed beside them.
    timed = [r for r, t in zip(reps, traced_flags) if not t and not r.failed]
    best, best_raw = {}, {}
    for series in ("main", "duration", "align"):
        runs = [passes for r in timed for passes in getattr(r, series)]
        if not runs or len({len(v.raw) for v in runs}) != 1:
            problems.append(f"{series}: no complete untraced reps to compare")
            continue
        best[series] = [min(unit) for unit in zip(*(v.corrected() for v in runs))]
        best_raw[series] = [min(unit) for unit in zip(*(v.raw for v in runs))]
    if len(best.get("align", ())) < 200:
        problems.append("fewer than 200 utterances timed; p95 needs 10 beyond it")

    env = _environment()
    print(f"workload {name} seed {seed} reps {len(reps)} traced_reps {sum(traced_flags)} "
          f"loop_s {time.perf_counter() - loop_start:.2f}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {reps[0].digest}")

    end_to_end = {}
    if len(best) == 3 and len(best["align"]) >= 2:
        setups = [hostspeed.correct(s, p) for s, p in zip(setup_s, setup_probes)]
        peak_rss = _peak_rss_mib()
        tables = {}
        for label, units, setup in (("corrected for host speed", best, setups),
                                    ("as measured", best_raw, setup_s)):
            tables[label] = _end_to_end(timed[0], units, statistics.median(setup), peak_rss)
        end_to_end = tables["corrected for host speed"]
        probes = [p for r in timed for p in r.main[0].probes]
        print(f"end-to-end ({name}, best of {len(timed)} untraced reps per unit "
              f"({len(timed[0].align)} align passes each), "
              f"{len(best['align'])} utterances, {attempted} operations; median probe "
              f"{statistics.median(probes) * 1e6:.1f} us, nominal "
              f"{hostspeed.PROBE_NOMINAL_S * 1e6:.1f} us):")
        _print_issue_table(workload.kind, reps[0].info, tables, attempted, failed)

    if trace:
        per_layer = _per_layer(tracer, workload, reps, traced_flags, setup_s)
        fired = set(tracer.summary(""))
        for span in sorted(workload.required_spans - fired):
            problems.append(f"trace: span {span} never fired")
        for span in sorted(workload.forbidden_spans & fired):
            problems.append(f"trace: span {span} fired on a workload without it")
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path, {"workload": name, "seed": seed, "env": env,
                                  "reps": len(reps), "traced_reps": sum(traced_flags)})
        print(f"trace written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        for key in sorted(per_layer):
            print(f"  {key:<40} {per_layer[key]:>14.6g} {PER_LAYER_UNITS[key]}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items() if k in end_to_end}

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end(rep, units, setup_s, peak_rss) -> dict[str, float]:
    """The JSON end-to-end metrics from per-unit seconds, plus utterances_per_s."""
    align_ms = [s * 1e3 for s in units["align"]]
    return {
        "main_ops_per_s": rep.main_ops / sum(units["main"]),
        "duration_ops_per_s": rep.duration_ops / sum(units["duration"]),
        "align_ms_p50": statistics.median(align_ms),
        "align_ms_p95": _p95(align_ms),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss,
        "utterances_per_s": len(align_ms) / sum(units["align"]),
    }


def _print_issue_table(kind, info, tables, attempted, failed):
    """All nine end-to-end quantities by name; n/a where a workload has no such phase."""
    train = kind == "train"
    labels = list(tables)
    print(f"  {'':<28} " + " ".join(f"{label:>26}" for label in labels))
    rows = [
        ("main_steps_per_s", "main_ops_per_s" if train else None, "1/s"),
        ("duration_steps_per_s", "duration_ops_per_s" if train else None, "1/s"),
        ("duration_inferences_per_s", None if train else "duration_ops_per_s", "1/s"),
        ("utterances_per_s", "utterances_per_s", "1/s"),
        ("align_ms_p50", "align_ms_p50", "ms"),
        ("align_ms_p95", "align_ms_p95", "ms"),
        ("eval_exact_match", info.get("eval_exact_match"), "ratio"),
        ("setup_s", "setup_s", "s"),
        ("peak_rss_mib", "peak_rss_mib", "MiB"),
        ("error_rate", failed / max(attempted, 1), "ratio"),
    ]
    for key, source, unit in rows:
        if isinstance(source, str):
            values = [tables[label][source] for label in labels]
        else:  # None (no such phase) or a value that needs no correction
            values = [source] * len(labels)
        shown = " ".join(f"{'n/a' if v is None else f'{v:.6g}':>26}" for v in values)
        print(f"  {key:<28} {shown} {unit}")


PER_LAYER_UNITS = {
    "numerics.backward.self_ms": "ms",
    "numerics.backward.calls": "count",
    "numerics.tensors_per_main_step": "count",
    "numerics.adamw.step_ms": "ms",
    "numerics.adamw.calls": "count",
    "alignment.mas_search.ms": "ms",
    "alignment.mas_search.cells": "count",
    "alignment.mas_search.ns_per_cell": "ns",
    "alignment.mas_search.pct_of_wall": "%",
    "alignment.log_prob_grid.ms": "ms",
    "flows.forward.ms": "ms",
    "encoder.encode.ms": "ms",
    "duration.train_duration.self_ms": "ms",
    "duration.generate.ms": "ms",
    "duration.adv_loss_d.ms": "ms",
    "duration.adv_loss_g.ms": "ms",
    "duration.mse_loss.ms": "ms",
    "harness.train_toy.self_ms": "ms",
    "harness.eval_alignment.ms": "ms",
    "harness.duration_targets.ms": "ms",
    "harness.predict_durations.ms": "ms",
    "checkpoint.load_checkpoint.ms": "ms",
    "checkpoint.save_checkpoint.ms": "ms",
    "corpus.generate_corpus.ms": "ms",
    "trace.overhead_ms": "ms",
}


def _per_layer(tracer, workload, reps, traced_flags, setup_s) -> dict[str, float]:
    """Per-layer values per traced rep (set-up layers: per set-up run)."""
    n_traced, n_setups = sum(traced_flags), len(setup_s)
    reps_sum = tracer.summary("rep")
    setup_sum = tracer.summary("setup")

    def per_rep(span, field):
        return reps_sum.get(span, {}).get(field, 0) / n_traced

    def per_setup(span):
        return setup_sum.get(span, {}).get("ms", 0.0) / n_setups

    if workload.kind == "train":
        spans = tracer.tensors_between("harness.train_toy", "duration.train_duration", "rep")
        tensors = statistics.mean(spans) / workload.config["steps_main"] if spans else 0.0
    else:
        calls = tracer.tensors_per_call("harness.predict_durations", "rep")
        tensors = statistics.mean(calls) if calls else 0.0
    traced_wall = [r.wall_s for r, t in zip(reps, traced_flags) if t]
    plain_wall = [r.wall_s for r, t in zip(reps, traced_flags) if not t]
    mas_ms = per_rep("alignment.mas_search", "ms")
    cells = per_rep("alignment.mas_search", "work")
    return {
        "numerics.backward.self_ms": per_rep("numerics.backward", "self_ms"),
        "numerics.backward.calls": per_rep("numerics.backward", "calls"),
        "numerics.tensors_per_main_step": tensors,
        "numerics.adamw.step_ms": per_rep("numerics.adamw.step", "ms"),
        "numerics.adamw.calls": per_rep("numerics.adamw.step", "calls"),
        "alignment.mas_search.ms": mas_ms,
        "alignment.mas_search.cells": cells,
        "alignment.mas_search.ns_per_cell": mas_ms * 1e6 / cells if cells else 0.0,
        "alignment.mas_search.pct_of_wall": 100.0 * mas_ms / (statistics.mean(traced_wall) * 1e3),
        "alignment.log_prob_grid.ms": per_rep("alignment.log_prob_grid", "ms"),
        "flows.forward.ms": per_rep("flows.forward", "ms"),
        "encoder.encode.ms": per_rep("encoder.encode", "ms"),
        "duration.train_duration.self_ms": per_rep("duration.train_duration", "self_ms"),
        "duration.generate.ms": per_rep("duration.generate", "ms"),
        "duration.adv_loss_d.ms": per_rep("duration.adv_loss_d", "ms"),
        "duration.adv_loss_g.ms": per_rep("duration.adv_loss_g", "ms"),
        "duration.mse_loss.ms": per_rep("duration.mse_loss", "ms"),
        "harness.train_toy.self_ms": per_rep("harness.train_toy", "self_ms"),
        "harness.eval_alignment.ms": per_rep("harness.eval_alignment", "ms"),
        "harness.duration_targets.ms": per_rep("harness.duration_targets", "ms"),
        "harness.predict_durations.ms": per_rep("harness.predict_durations", "ms"),
        "checkpoint.load_checkpoint.ms": per_setup("checkpoint.load_checkpoint"),
        "checkpoint.save_checkpoint.ms": per_setup("checkpoint.save_checkpoint"),
        "corpus.generate_corpus.ms": per_setup("corpus.generate_corpus"),
        "trace.overhead_ms": (statistics.median(traced_wall) - statistics.median(plain_wall)) * 1e3,
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print("summary:")
    for name, res in results.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {cells}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "alignflow" / "__init__.py").is_file():
        print(f"error: no alignflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

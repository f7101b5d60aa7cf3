"""tentplane benchmark.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 35 --trace 0

Runs one workload as a closed loop: a single caller sends the next op
only after the last one completed, until ``--seconds`` of wall time have
passed.  Inputs come from ``--seed``.  Every op's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` every input runs twice, once with benchmark-side
layer wrappers installed (see tracer.py), and the last line reports
per-layer metrics of the traced ops plus the tracing overhead against
the untraced ones.  Spans are written to ``perfbench/out``.  README.md
defines every metric.

The program is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
DIGEST_OPS = 12  # ops per run whose exact outputs go into the digest

WORKLOADS = ("verify-deep", "glue-certify", "tails-slope")


def load_program():
    if not (SRC / "tentplane" / "__init__.py").is_file():
        print(f"error: no tentplane sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tentplane

    if Path(tentplane.__file__).resolve().parent != (SRC / "tentplane").resolve():
        print(f"error: tentplane imported from {tentplane.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE))


def setup_seconds(warmup: str) -> float:
    """Median wall time of a fresh interpreter importing tentplane and
    running the workload's warm-up op.  A first, untimed run leaves the
    byte-code caches as a user's second run finds them."""
    code = (
        "import sys\n"
        "SRC, OUT = sys.argv[1], sys.argv[2]\n"
        "sys.path.insert(0, SRC)\n"
        "import tentplane\n" + warmup
    )
    cmd = [sys.executable, "-c", code, str(SRC), str(OUT)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class OpClock:
    """Accumulates the time spent inside calls to tentplane for one op."""

    def __init__(self):
        self.busy = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += time.perf_counter() - t0


def run_op(wl, inp, tracer):
    """One op, with the tracer's wrappers installed if one is given.
    Returns the op time, the output and the problems found in it."""
    clock = OpClock()
    if tracer:
        tracer.install()
    out = None
    try:
        out = wl.run(inp, clock)
    except Exception as e:  # a failed op is counted, the run goes on
        problems = [f"{type(e).__name__}: {e}"]
    else:
        problems = None
    finally:
        if tracer:
            tracer.remove()
    if problems is None:
        problems = wl.check(inp, out)
    if problems and tracer:
        tracer.take_results()
    return clock.busy, out, problems


def tail_stat(times):
    """Op time at the highest percentile with at least ten samples
    beyond it, that percentile, and the sample count."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def make_workload(name: str, seed: int):
    import workloads

    rng = random.Random(f"{name}:{seed}")
    if name == "verify-deep":
        return workloads.VerifyDeep(rng)
    if name == "glue-certify":
        return workloads.GlueCertify(rng)
    return workloads.TailsSlope(rng, str(OUT))


def layer_counts(tracer) -> None:
    """Counts derived from the return values kept by the tracer."""
    from workloads import chart_stats

    c = tracer.counts
    for name, out in tracer.take_results():
        if name == "kneading.enumerate_cylinders":
            c["kneading.cylinders"] += len(out)
        elif name == "scene.build":
            stats = chart_stats(out)
            c["scene.segments"] += len(out.segments)
            c["arcs.joins"] += len(out.joins)
            c["scene.join_pairs"] += stats["join_pairs"]
            c["scene.gap_visits"] += stats["gap_visits"]
        elif name in ("scene.noncrossing", "scene.betweenness"):
            c["scene.violations"] += len(out)
        elif name == "glue.stack":
            c["glue.stages"] += len(out)
            c["glue.radii"] += sum(len(r.radii) for r in out)
        elif name == "glue.probe":
            c["glue.probe_samples"] += out.samples
        elif name == "svg.render":
            c["svg.bytes"] += len(out.encode())
        elif name.startswith("glue."):
            c["glue.samples"] += out.get("samples", 0)


# per-layer time metric -> span name; the value is self time per traced op
LAYER_TIMES = {
    "kneading.from_slope_s": "kneading.from_slope",
    "kneading.admissible_tail_s": "kneading.admissible_tail",
    "kneading.enumerate_cylinders_s": "kneading.enumerate_cylinders",
    "cantor.block_midpoint_s": "cantor.block_midpoint",
    "cantor.coordinate_s": "cantor.coordinate",
    "cantor.compare_tails_s": "cantor.compare_tails",
    "arcs.window_projection_s": "arcs.window_projection",
    "arcs.arc_projection_s": "arcs.arc_projection",
    "arcs.boundary_pairs_s": "arcs.boundary_pairs",
    "arcs.resolve_x_s": "arcs.resolve_x",
    "scene.build_self_s": "scene.build",
    "scene.noncrossing_s": "scene.noncrossing",
    "scene.betweenness_s": "scene.betweenness",
    "scene.to_json_s": "scene.to_json",
    "scene.from_json_s": "scene.from_json",
    "glue.stack_s": "glue.stack",
    "glue.support_s": "glue.support",
    "glue.displacement_s": "glue.displacement",
    "glue.cauchy_s": "glue.cauchy",
    "glue.collapse_s": "glue.collapse",
    "glue.ceiling_s": "glue.ceiling",
    "glue.probe_s": "glue.probe",
    "svg.render_s": "svg.render",
    "cli.self_s": "cli.main",
}
LAYER_COUNTS = (
    "sequences.plex_compare_calls",
    "sequences.compare_right_calls",
    "kneading.admissible_tail_calls",
    "kneading.cylinders",
    "cantor.heights",
    "arcs.joins",
    "scene.segments",
    "scene.join_pairs",
    "scene.gap_visits",
    "scene.violations",
    "glue.stages",
    "glue.radii",
    "glue.samples",
    "glue.probe_samples",
)


def layer_metrics(tracer, traced_times, plain_times, shapes) -> dict:
    own, inclusive = tracer.self_times()
    n = len(traced_times)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    c = tracer.counts
    c["kneading.admissible_tail_calls"] = calls.get("kneading.admissible_tail", 0)
    c["cantor.heights"] = calls.get("cantor.block_midpoint", 0) + calls.get("cantor.coordinate", 0)
    m = {}
    for metric, span in LAYER_TIMES.items():
        m[metric] = (own.get(span, 0.0) / n, "s")
    m["cli.main_s"] = (inclusive.get("cli.main", 0.0) / n, "s")
    for metric in LAYER_COUNTS:
        m[metric] = (c[metric] / n, "count")
    m["svg.bytes"] = (c["svg.bytes"] / n, "bytes")
    m["scene.max_chart_joins"] = (
        statistics.mean(s["max_chart_joins"] for s in shapes) if shapes else 0.0,
        "count",
    )
    m["kneading.truncated_share"] = (
        statistics.mean(1.0 if s["truncated"] else 0.0 for s in shapes) if shapes else 0.0,
        "ratio",
    )
    # tracing cost and how much of the traced op time the spans explain
    m["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(plain_times), "s")
    m["trace.self_share"] = (sum(own.values()) / sum(traced_times), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    OUT.mkdir(exist_ok=True)
    from tracer import Tracer
    import workloads

    wl = make_workload(args.workload, args.seed)
    setup_s = setup_seconds(wl.WARMUP) if not args.trace else None

    # warm the in-process caches the same way, outside the measurement
    exec(compile(wl.WARMUP, "<warmup>", "exec"), {"OUT": str(OUT)})

    tracer = Tracer() if args.trace else None
    times = {False: [], True: []}  # op times by traced
    shapes, failures = [], []
    digest = hashlib.sha256()
    inputs = attempted = 0
    deadline = time.perf_counter() + args.seconds
    while inputs == 0 or time.perf_counter() < deadline:
        i = inputs
        inputs += 1
        inp = wl.make_input(i)
        # a traced run gives every input to both modes, alternating which
        # goes first, so the overhead compares like with like
        modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        for k, traced in enumerate(modes):
            attempted += 1
            busy, out, problems = run_op(wl, inp, tracer if traced else None)
            if problems:
                failures.append(f"op {i}{' traced' if traced else ''}: {'; '.join(problems)}")
                continue
            times[traced].append(busy)
            if traced:
                layer_counts(tracer)
            if k == 0:
                shapes.append(wl.shape(inp, out))
                if i < DIGEST_OPS:
                    digest.update(workloads.digest_line(wl.digest(inp, out)).encode() + b"\n")

    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"digest {args.workload} seed={args.seed} ops={min(inputs, DIGEST_OPS)} {digest.hexdigest()}")
    print("shape " + json.dumps(summarise_shapes(shapes), sort_keys=True))
    failed = len(failures)
    # with no successful op every metric reads 0 and the run is not correct
    plain_times = times[False] or [math.nan]
    traced_times = times[True] or [math.nan]
    print(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")

    if tracer is None:
        tail, pct, n = tail_stat(plain_times)
        print(f"op_tail_s is p{pct:.1f} of {n} ops")
        # reported but not bounded: on a shared host their run-to-run
        # spread exceeds the largest bound BENCHMARK.json allows (README)
        print("unbounded " + json.dumps({
            "ops_per_s": len(plain_times) / sum(plain_times),
            "op_p50_s": statistics.median(plain_times),
        }))
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced_times, plain_times, shapes)
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "traced_ops": len(traced_times)})
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    correct = failed == 0
    metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def summarise_shapes(shapes) -> dict:
    """Workload shape: share of ops with truncated ν and the spread of
    the per-scene sizes a later optimisation may depend on."""
    out = {"ops": len(shapes)}
    if not shapes:
        return out
    out["truncated_share"] = sum(1 for s in shapes if s["truncated"]) / len(shapes)
    for key in shapes[0]:
        vals = [s[key] for s in shapes]
        if key == "radii_per_chart":
            vals = [v for per in vals for v in per]
        elif isinstance(vals[0], bool):
            continue
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        out[key] = {"min": min(vals), "p25": q[0], "median": q[1], "p75": q[2], "max": max(vals)}
    return out


if __name__ == "__main__":
    sys.exit(main())

"""catend benchmark runner.

    python3 perfbench/run.py --workload {sweep,scaling,laws,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a catend checkout; the package is imported from ``src``
and is not installed.  Each invocation is one fresh process running one
workload in a closed loop with a single client: the next op starts only when
the previous one has returned and been checked.  Whole rounds (the workload's
fixed op list) are repeated until ``--seconds`` have passed, so every run
measures the same mix of ops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced round (after one untraced round used as the
overhead base), writing spans and stats to ``.bench_out/``.  During set-up a
traced run wraps only the instance constructors, so the op-layer metrics count
only calls made inside the traced round.  Every line before the last is for
people; the last line of stdout is the JSON result.  Exit code 0 means the run
completed (``correct`` says whether every op passed its oracle); any other
code means the run could not be made and no result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REQUIRED = ("src/catend/cli.py", "src/catend/cocompletion.py", "docs/examples/heyting3.json")
# set-ups timed in fresh interpreters for setup_s, spread over the timed phase
PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="cut each round to its first N ops (smoke runs only)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Phase:
    rounds: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    paused_s: float = 0.0

    @property
    def verified(self) -> int:
        return self.attempted - len(self.failures)


def run_rounds(wl, seconds: float, max_rounds: int | None = None,
               max_ops: int | None = None, rec=None, pause=None) -> Phase:
    """Repeat rounds until ``seconds`` have passed, or for ``max_rounds`` rounds.

    The run stops only at the end of a block (``wl.block`` ops, or a whole
    round), so it always measures whole blocks of the fixed mix.  ``pause``,
    if given, is called with the elapsed time after every op; the time it
    takes is left out of the timed phase.
    """
    ph = Phase()
    perf = time.perf_counter
    start = perf()

    def elapsed():
        return perf() - start - ph.paused_s

    while True:
        ops = wl.ops[:max_ops]
        for k, op in enumerate(ops):
            if pause is not None and ph.attempted:
                t = perf()
                pause(elapsed())
                ph.paused_s += perf() - t
            if k and wl.block and k % wl.block == 0 and elapsed() >= seconds:
                break
            ph.attempted += 1
            if rec is not None:
                rec.op = f"{ph.rounds}:{k}:{op.label}"
            call = op.prepare()
            t = perf()
            try:
                result = call()
            except Exception as exc:  # a failed op is counted, never retried
                ph.failures.append((op.label, f"{type(exc).__name__}: {exc}"))
                continue
            dt = perf() - t
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"oracle rejected the result: {type(exc).__name__}: {exc}"
            if reason:
                ph.failures.append((op.label, reason))
                continue
            ph.latencies_ms.append(dt * 1000)
            if rec is not None:
                rec.count_checks(op.checks_of(result))
        else:
            ph.rounds += 1
            if not (max_rounds and ph.rounds >= max_rounds) and elapsed() < seconds:
                continue
        break
    ph.wall_s = elapsed()
    return ph


def percentile(sorted_xs: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def setup_probe_s(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        dt = time.perf_counter() - t
        p.stdout.read()
        p.wait(timeout=120)
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {p.returncode})")
    return dt


def report_failures(ph: Phase) -> None:
    for label, reason in ph.failures:
        print(f"FAIL {label}: {reason}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (u, v) in metrics.items()}}))


def untraced(args, wl) -> None:
    wl.setup(args.seed)
    probes = []

    def probe(elapsed):
        # probe i runs after the first op that ends past i/PROBES of the phase,
        # so the set-ups sample the machine over the same time as the ops
        if len(probes) < PROBES and elapsed >= len(probes) * args.seconds / PROBES:
            probes.append(setup_probe_s(args.workload, args.seed))

    ph = run_rounds(wl, args.seconds, max_ops=args.max_ops, pause=probe)
    while len(probes) < PROBES:
        probes.append(setup_probe_s(args.workload, args.seed))
    peak_mb = wl.peak_rss_kb() / 1024
    report_failures(ph)
    if not ph.latencies_ms:
        raise RuntimeError("no op passed its oracle; latency metrics are undefined")
    lat = sorted(ph.latencies_ms)
    n = len(lat)
    metrics = {
        "setup_s": ("s", statistics.median(probes)),
        "ops_per_s": ("1/s", ph.verified / ph.wall_s),
        "op_p50_ms": ("ms", statistics.median(lat)),
        "op_p90_ms": ("ms", percentile(lat, 0.9)),
        "peak_rss_mb": ("MB", peak_mb),
    }
    failed = len(ph.failures)
    print(f"workload {args.workload}  seed {args.seed}  rounds {ph.rounds}  "
          f"timed phase {ph.wall_s:.2f} s")
    print(f"  error_rate   {failed / ph.attempted:.4f}  ({failed} failed of "
          f"{ph.attempted} attempted)")
    print(f"  setup_s      {metrics['setup_s'][1]:.4f} s   median of {PROBES} fresh "
          f"set-ups, from {min(probes):.4f} to {max(probes):.4f} s")
    print(f"  ops_per_s    {metrics['ops_per_s'][1]:.3f} 1/s   {ph.verified} verified ops")
    print(f"  op_p50_ms    {metrics['op_p50_ms'][1]:.3f} ms   n={n}")
    print(f"  op_p90_ms    {metrics['op_p90_ms'][1]:.3f} ms   n={n}, "
          f"{n - math.ceil(0.9 * n)} samples above")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB   "
          f"({'largest catend child' if wl.subprocess_ops else 'this process'})")
    emit(failed == 0, ph.attempted, failed, metrics)


def cli_shim(rec):
    """Run a CLI op through the tracing shim and fold its trace into ``rec``."""
    path = OUT / "cli-op-trace.json"

    def run(argv):
        p = subprocess.run([sys.executable, str(BENCH / "cli_shim.py"), str(path), *argv],
                           cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=120)
        data = json.loads(path.read_text())
        path.unlink()
        rec.merge(data["stats"], data["spans"], rec.op)
        return p.returncode, p.stdout
    return run


def traced(args, wl) -> None:
    import tracing
    OUT.mkdir(exist_ok=True)
    rec = tracing.Recorder()
    harness = tracing.Harness(rec)
    in_process = not wl.subprocess_ops
    if in_process:
        harness.install(only=tracing.GROUPS["quantale.build"])
    try:
        wl.setup(args.seed)
    finally:
        harness.uninstall()
    base = run_rounds(wl, math.inf, max_rounds=1, max_ops=args.max_ops)
    if in_process:
        harness.install()
    else:
        wl.shim = cli_shim(rec)
    try:
        ph = run_rounds(wl, math.inf, max_rounds=1, max_ops=args.max_ops, rec=rec)
    finally:
        harness.uninstall()
        wl.shim = None
    startup = tracing.startup_costs(ROOT, workloads.cli_env())
    ratio = ph.wall_s / base.wall_s
    metrics = tracing.layer_metrics(rec, startup, ratio)
    report_failures(base)
    report_failures(ph)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "untraced_round_s": base.wall_s, "traced_round_s": ph.wall_s,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
        "stats": rec.stats(), "import_split": startup["import_split"],
        "spans_dropped": rec.spans_dropped,
        "spans": [list(s) for s in rec.spans]}))
    top = sorted(rec.self_s.items(), key=lambda kv: -kv[1])[:8]
    print(f"workload {args.workload}  seed {args.seed}  traced round {ph.wall_s:.2f} s, "
          f"untraced round {base.wall_s:.2f} s, overhead ratio {ratio:.3f}")
    print("  largest self times: " + ", ".join(f"{k} {v * 1000:.0f} ms" for k, v in top))
    print(f"  spans kept {len(rec.spans)}, dropped {rec.spans_dropped}; trace in "
          f"{trace_file.relative_to(ROOT)}")
    attempted = base.attempted + ph.attempted
    failed = len(base.failures) + len(ph.failures)
    emit(failed == 0, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a catend checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0
    (traced if args.trace else untraced)(args, wl)
    return 0


if __name__ == "__main__":
    sys.exit(main())

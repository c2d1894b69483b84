"""Benchmark of diffgen: formula generation and boundary-value solves.

    python3 perfbench/run.py --workload formulas|bvp_f64|bvp_big \
        --seed N --seconds S --trace 0|1

Run from the repository root; diffgen is imported from ./src. One process
runs one workload from a single caller (a closed loop) with BLAS held to one
thread. After a warm-up pass it repeats whole passes over the workload's
fixed operation list until ``--seconds`` have passed, then checks every
operation's output. Each latency is measured against a calibration unit
timed next to it (hostspeed.py): this host's speed drifts by a factor of 1.5
or more between and within minutes, and the slow stretches belong to other
tenants, not to diffgen (see README.md, *Steadiness*). The last line of
stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in probes

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 12  # set-ups timed for setup_s against the import unit; the median is reported
MIN_PASSES = 4  # timed passes a run makes however short --seconds is
PROBE_TIMEOUT = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one setup in this process and print it (internal)")
    return parser.parse_args(argv)


def _import_diffgen():
    import diffgen
    import diffgen.cli  # noqa: F401  the CLI is part of the public surface driven

    if Path(diffgen.__file__).resolve().parent != SRC / "diffgen":
        raise ImportError(f"imported diffgen from {diffgen.__file__}, not from {SRC}")
    return diffgen


def _time_setup(args) -> float:
    """Wall seconds to import diffgen, generate the inputs and build the
    problems."""
    import workloads

    t0 = perf_counter()
    dg = _import_diffgen()
    workloads.build(args.workload, args.seed, dg)
    return perf_counter() - t0


def _setup_ratio(args) -> float:
    """One set-up, timed in a fresh process, over the import unit timed in
    another one just before it."""
    unit = hostspeed.import_unit_seconds(PROBE_TIMEOUT)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"] / unit


def _ref_loop_ms() -> float:
    """A fixed pure-Python loop: shows how fast the host runs Python today."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return (perf_counter() - t0) * 1000


def _run_pass(ops, host, timings=None):
    """Run every op once, calibrating the host (untimed) before the first op,
    after the last and between ops when due. Append ``(latency, calibration)``
    to ``timings[i]`` for op i, the calibration being the faster one on either
    side of it. Returns the outputs and the pass's calibration: its wall time
    over the sum of its ops' latency/calibration ratios."""
    outputs, pending = [], []
    wall = ratios = 0.0
    before = host.sample()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, the pass goes on
            out = exc
        pending.append((i, perf_counter() - t0))
        outputs.append(out)
        if host.due() or i == len(ops) - 1:
            after = host.sample()
            calibration = min(before, after)
            for j, latency in pending:
                if timings is not None:
                    timings[j].append((latency, calibration))
                wall += latency
                ratios += latency / calibration
            pending.clear()
            before = after
    return outputs, wall / ratios


def _lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def _op_seconds(timings) -> list[float]:
    """Each op's latency in reference seconds: the lower quartile over the
    run's passes of its latency over the calibration next to it."""
    return [_lower_quartile([lat / cal for lat, cal in times]) * hostspeed.REFERENCE_S
            for times in timings]


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _check(ops, outputs):
    """Indices of failed ops, with their messages on stderr."""
    failed = []
    by_op = dict(zip(ops, outputs))
    for i, op in enumerate(ops):
        try:
            msg = op.check(outputs[i], by_op)
        except Exception as exc:  # a check that cannot run fails its op
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failed.append(i)
            tag = f"known fault ({op.known_fault})" if op.known_fault else "FAILED"
            print(f"{tag}: {op.label}: {msg}", file=sys.stderr)
    return failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "diffgen" / "__init__.py").is_file():
        print(f"error: diffgen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": _time_setup(args)}))
        return 0

    dg = _import_diffgen()
    setup, probes = [], 0 if args.trace else SETUP_PROBES
    ref_loop_ms = _ref_loop_ms()
    ops = workloads.build(args.workload, args.seed, dg)
    tracer = traced_ops = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(dg)
        tracer.install()  # problems built now keep timed rhs/exact callables
        traced_ops = workloads.build(args.workload, args.seed, dg)
        tracer.uninstall()

    host = hostspeed.HostSpeed()
    warm, _ = _run_pass(ops, host)
    if tracer:
        tracer.install()
        _run_pass(traced_ops, host)
        tracer.uninstall()
    gc.collect()

    timings, traced, per_pass = [[] for _ in ops], [[] for _ in ops], []
    last, consistent = warm, True
    start = perf_counter()
    while (len(timings[0]) < MIN_PASSES or len(setup) < probes
           or perf_counter() - start < args.seconds):
        last, _ = _run_pass(ops, host, timings)
        consistent = consistent and all(map(_same, last, warm))
        if tracer:
            tracer.reset()
            tracer.install()
            outs, calibration = _run_pass(traced_ops, host, traced)
            tracer.uninstall()
            per_pass.append({name: busy / calibration for name, busy in tracer.busy().items()})
            consistent = consistent and all(map(_same, outs, warm))
        if len(setup) < probes and perf_counter() - start >= len(setup) * args.seconds / probes:
            setup.append(_setup_ratio(args))  # spread over the run, between passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed_ops = _check(ops, last)
    unexpected = [i for i in failed_ops if not ops[i].known_fault]
    if not consistent:
        print("FAILED: an operation's output changed between passes", file=sys.stderr)
    passes = len(timings[0])
    rounds = passes * (2 if tracer else 1)
    op_s = _op_seconds(timings)
    wall_passes = [sum(lat for lat, _ in times) for times in zip(*timings)]

    if tracer:
        metrics = {f"{name}_s": _metric(_lower_quartile([p[name] for p in per_pass])
                                        * hostspeed.REFERENCE_S, "s")
                   for name in tracing.TIME_METRICS}
        metrics.update({name: _metric(tracer.counts[name], "count")
                        for name in tracing.COUNT_METRICS})
        metrics["host.ref_loop_ms"] = _metric(ref_loop_ms, "ms")
        metrics["host.calibration_ms"] = _metric(host.best * 1000, "ms")
        metrics["host.pass_median_s"] = _metric(statistics.median(wall_passes), "s")
        traced_s = sum(_op_seconds(traced))
        metrics["trace.pass_s"] = _metric(traced_s, "s")
        metrics["trace.overhead_pct"] = _metric((traced_s / sum(op_s) - 1) * 100, "%")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup) * hostspeed.IMPORT_REFERENCE_S, "s"),
            "pass_s": _metric(sum(op_s), "s"),
            "op_p50_ms": _metric(statistics.median(op_s) * 1000, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(ops)} ops, "
          f"{len(failed_ops)} failing ops per pass, host loop {ref_loop_ms:.1f} ms, "
          f"best calibration {host.best * 1000:.3f} ms, "
          f"median wall pass {statistics.median(wall_passes):.4f} s", file=sys.stderr)
    print(json.dumps({
        "correct": consistent and not unexpected,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

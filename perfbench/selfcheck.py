"""Run two sets of the benchmark on the same code and judge its steadiness.

    python3 perfbench/selfcheck.py [--runs 10]

Run from the repository root. It runs two sets, one after the other. Each
set runs every workload of BENCHMARK.json ``--runs`` times in fresh
processes, each run with a seed of its own (set one uses seeds 1..runs, set
two runs+1..2*runs), as BENCHMARK.json's command with its ``run_seconds``
and ``--trace 0``. For every pairing of end-to-end metric and workload it
prints each set's median and spread (interquartile range over median) and
the drift of the second median against the first (positive when worse),
next to the metric's bound:

* spread: within the bound in both sets; below a third of it is the target
  the benchmark is tuned to;
* drift: the two medians differ by no more than the bound, either way;
* failed share: failed/attempted identical in every run of a workload.

Writes the runs and the verdicts to perfbench/results/selfcheck.json and
exits 1 if any pairing misses its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 600


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    wall = time.monotonic() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record.update(workload=workload, seed=seed, wall_s=wall)
    return record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for s in range(2):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for k in range(args.runs):
                seed = s * args.runs + k + 1
                rec = _run(bench["command"], workload, seed, bench["run_seconds"])
                runs[workload].append(rec)
                shown = " ".join(f"{n}={m['value']:.4g}" for n, m in rec["metrics"].items())
                print(f"set {s + 1} {workload} seed {rec['seed']}: correct={rec['correct']} "
                      f"failed={rec['failed']}/{rec['attempted']} {shown} ({rec['wall_s']:.0f} s)",
                      file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    verdicts = []
    print(f"{'workload':<10} {'metric':<12} {'bound':>6} {'median 1':>12} {'spread 1':>9}"
          f" {'median 2':>12} {'spread 2':>9} {'drift':>8}  verdict")
    for workload in workloads:
        records = [r for runs in sets for r in runs[workload]]
        shares = {Fraction(r["failed"], r["attempted"]) for r in records}
        correct = all(r["correct"] for r in records)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                medians.append(statistics.median(values))
                spreads.append(_spread(values))
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            misses = []
            if max(spreads) > bound:
                misses.append("spread")
            if abs(drift) > bound:
                misses.append("drift")
            if len(shares) != 1:
                misses.append("failed share")
            if not correct:
                misses.append("correct")
            tuned = max(spreads) <= bound / 3
            note = "" if misses or tuned else " (spread above a third of the bound)"
            ok = ok and not misses
            verdicts.append({"workload": workload, "metric": name, "bound": bound,
                             "medians": medians, "spreads": spreads, "drift": drift,
                             "failed_shares": sorted(str(x) for x in shares), "misses": misses})
            print(f"{workload:<10} {name:<12} {bound:>6.2f} {medians[0]:>12.5g} {spreads[0]:>9.3f}"
                  f" {medians[1]:>12.5g} {spreads[1]:>9.3f} {drift:>+8.3f}  "
                  + ("MISS " + ",".join(misses) if misses else "ok") + note)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps({"sets": sets, "verdicts": verdicts}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

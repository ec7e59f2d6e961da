"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Each set runs every workload ``--runs`` times, each time with another seed,
workloads interleaved so that drift in the machine reaches all of them. For
every end-to-end metric and workload it prints each set's median and its
spread (the distance between the first and third quartile as a share of the
median), how far the second median is worse than the first, and the metric's
bound from ``BENCHMARK.json``. A spread within a third of the bound is
steady; a spread beyond the bound, or a shift beyond it in either
direction, fails; ``setup_s`` is judged like every other metric. It also
compares the share of failed operations between the sets. All runs go to
``.perfbench/steady.json``; the exit code is 0 when every figure is within
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    sets = []
    for s in range(2):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                t0 = time.monotonic()
                res = one_run(w, seed, seconds)
                runs[w].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed} ({time.monotonic() - t0:.0f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
        sets.append(runs)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(json.dumps(sets, indent=1) + "\n")

    ok = True
    print(f"\n{'workload':<13} {'metric':<12} {'bound':>6} {'median 1':>11} {'spread 1':>9} "
          f"{'median 2':>11} {'spread 2':>9} {'worse':>7}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs[w]] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0]
            worse = worse if m["better"] == "lower" else -worse
            verdict = "steady"
            if any(sp > bound / 3 for sp in spreads):
                verdict = "within bound"
            if any(sp > bound for sp in spreads) or abs(worse) > bound:
                verdict, ok = "FAILS", False
            print(f"{w:<13} {name:<12} {bound:>6.2f} {meds[0]:>11.4g} {spreads[0]:>9.3f} "
                  f"{meds[1]:>11.4g} {spreads[1]:>9.3f} {worse:>7.3f}  {verdict}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs[w]}) for runs in sets]
        same = all(s == shares[0] and len(s) == 1 for s in shares)
        ok = ok and same
        print(f"{w:<13} failed share per set: {shares}  {'same' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

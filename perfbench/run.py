"""trapqa benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the workload runs untraced in a fresh child
process and the last line of standard output is a JSON object with every
end-to-end metric of ``BENCHMARK.json``, the operation timings scaled to
the reference machine speed (``speed.py``); set-up time is the median over
several fresh child processes. With ``--trace 1`` a separate child runs the
workload with per-layer wrappers and the line carries the per-layer metrics.
Details of the run (every sample, every failed check) go to
``.perfbench/result-<workload>-<seed>-t<trace>.json``, and a traced run writes
calls, busy time and median call time of every wrapped function, per round,
to ``.perfbench/trace-<workload>-<seed>.json``. The exit code is 0 only when
every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: Fresh child processes whose set-up is timed; the measuring child is one.
SETUP_SAMPLES = 4
#: Threads for numpy's BLAS and OpenMP pools in every child (at most nproc).
THREADS = "1"
#: Every child of one run must finish within this budget.
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


class Child:
    """One child process: time to its READY line, and its last output line."""

    def __init__(self, args, mode, workdir, deadline):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
               "--workdir", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        self.ready_s, self.last = None, None
        try:
            for line in proc.stdout:
                if line.strip() == "READY" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - t0
                elif line.strip():
                    self.last = line
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited with {proc.returncode}")
        self.result = json.loads(self.last) if mode != "setup" else None


def run(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            res = Child(args, "trace", workdir, deadline).result
            names = [m["name"] for m in spec["per_layer"]]
            unknown = sorted(set(res["metrics"]) - set(names))
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
            # a layer the workload never enters reads 0
            values = {n: res["metrics"].get(n, 0.0) for n in names}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            setups = []
            (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(res["functions"], indent=2) + "\n", encoding="utf-8")
        else:
            setups = [Child(args, "setup", workdir, deadline).ready_s for _ in range(SETUP_SAMPLES - 1)]
            measured = Child(args, "measure", workdir, deadline)
            setups.append(measured.ready_s)
            res = measured.result
            values = dict(res["metrics"], setup_s=statistics.median(setups))
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, rounds=res["rounds"],
                  samples=res.get("samples"), phase_s=res.get("phase_s"), speed=res.get("speed"),
                  raw=res.get("raw"), times_s=res.get("times_s"), errors=res["errors"][:50],
                  n_errors=len(res["errors"]))
    (OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    return summary, detail["errors"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trapqa" / "__init__.py").is_file():
        print(f"perfbench: no trapqa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        summary, errors = run(args, spec)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

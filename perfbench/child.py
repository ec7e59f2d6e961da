"""One workload in a fresh interpreter: set-up, then measure or trace.

    python perfbench/child.py --workload NAME --seed N --seconds S --mode MODE --workdir DIR

Set-up (imports, geometry, netlist, layout, seeded inputs and one untimed
warm-up operation) ends with a ``READY`` line, which the parent times from
process start. ``--mode setup`` stops there; ``measure`` runs whole rounds
until the operations have taken ``--seconds`` and prints one JSON line of
end-to-end figures, scaled to the reference machine speed (``speed.py``);
``trace`` runs the same rounds untraced and then traced, and prints raw
per-layer figures.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

_clock = time.perf_counter


def run_rounds(wl, seconds=None, rounds=None, first=0):
    """Whole rounds from round ``first``: until the operations have run ``seconds``, or ``rounds`` of them.

    Only ``fn()`` is timed; drawing a round's inputs and reducing outputs are
    not. Returns the records ``(op, output, seconds)``, the busy time of every
    round, and the speed probes taken before every operation and at the end.
    """
    records, round_busy, probes = [], [], []
    r = 0
    while True:
        busy = 0.0
        for op in wl.round(first + r):
            probes.append(speed.probe())
            t = _clock()
            out = op.fn()
            dt = _clock() - t
            busy += dt
            records.append((op, wl.reduce(op, out) if hasattr(wl, "reduce") else out, dt))
            del out
        round_busy.append(busy)
        r += 1
        if (rounds is not None and r >= rounds) or (rounds is None and sum(round_busy) >= seconds):
            probes.append(speed.probe())
            return records, round_busy, probes


def verdicts(wl, records):
    """(errors, failed): checks of every operation that did not fail."""
    errors, failed = [], 0
    for op, rec, _ in records:
        if getattr(wl, "failed", None) and wl.failed(op, rec):
            failed += 1
            continue
        try:
            errors += wl.check(op, rec)
        except Exception as exc:  # malformed output is a failed check, not a crash
            errors.append(f"{op.name}: checking the output raised {exc!r}")
    return errors, failed


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seconds):
    records, round_busy, probes = run_rounds(wl, seconds)
    rss = peak_rss_mb(getattr(wl, "op2_is_round", False))
    ops = [dt for op, _, dt in records if op.kind == "op"]
    op2 = round_busy if getattr(wl, "op2_is_round", False) else [dt for op, _, dt in records if op.kind == "op2"]
    raw = {
        "op_ms": 1e3 * statistics.median(ops),
        "op2_ms": 1e3 * statistics.median(op2),
        "work_per_s": sum(op.units for op, _, _ in records) / sum(round_busy),
    }
    f = speed.factor(probes)
    t_check = _clock()
    errors, failed = verdicts(wl, records)
    return {
        "attempted": len(records),
        "failed": failed,
        "errors": errors,
        "rounds": len(round_busy),
        "samples": {"op": len(ops), "op2": len(op2)},
        "phase_s": {"busy": sum(round_busy), "checks": _clock() - t_check},
        "speed": {"factor": f, "probe_median_s": statistics.median(probes), "probes_s": probes},
        "times_s": [(op.kind, dt) for op, _, dt in records],
        "raw": raw,
        "metrics": {
            "op_ms": raw["op_ms"] * f,
            "op2_ms": raw["op2_ms"] * f,
            "work_per_s": raw["work_per_s"] / f,
            "peak_rss_mb": rss,
        },
    }


def trace(wl_cls, seed, seconds, workdir):
    from tracer import Tracer, function_table, layer_metrics

    tracer = Tracer()
    tracer.install()
    wl = wl_cls(seed, workdir)
    wl.warm_up()
    tracer.uninstall()
    if getattr(wl, "op2_is_round", False):
        return trace_cli(wl, tracer)
    # each round runs untraced and then traced on the same inputs, so the
    # two halves see the same inputs and the same machine conditions
    plain, traced = [], []
    before = tracer.snapshot()
    t0 = _clock()
    rounds = 0
    while rounds == 0 or _clock() - t0 < seconds:
        plain += run_rounds(wl, rounds=1, first=rounds)[0]
        tracer.install()
        traced += run_rounds(wl, rounds=1, first=rounds)[0]
        tracer.uninstall()
        rounds += 1
    after = tracer.snapshot()
    metrics = layer_metrics(before, after, rounds)
    metrics["trace.overhead_pct"] = 100.0 * (_busy(traced) / _busy(plain) - 1.0)
    errors, failed = verdicts(wl, plain + traced)
    return {"attempted": len(plain) + len(traced), "failed": failed, "errors": errors,
            "rounds": rounds, "metrics": metrics, "functions": function_table(before, after, rounds)}


def _busy(records):
    return sum(dt for _, _, dt in records)


IMPORT_PROBE = "import time; t = time.perf_counter(); import trapqa.cli; print(time.perf_counter() - t)"


def trace_cli(wl, tracer):
    """CLI layer: process wall time per command, fresh import time, warm in-process main."""
    from tracer import function_table, layer_metrics

    import trapqa.cli as cli

    records, _, _ = run_rounds(wl, rounds=1)
    errors, failed = verdicts(wl, records)
    metrics = {f"cli.{op.name}.wall_ms": 1e3 * dt for op, _, dt in records}
    imports = [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=wl.env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(3)
    ]
    metrics["cli.import_ms"] = 1e3 * statistics.median(imports)
    metrics["cli.import_share"] = metrics["cli.import_ms"] / statistics.median(
        1e3 * dt for _, _, dt in records
    )

    ops = [op for op, _, _ in records]
    cwd = os.getcwd()

    def main_pass():
        times = []
        for op in ops:
            command, d = op.info
            os.chdir(d)
            t = _clock()
            try:
                cli.main(command.argv)
            except SystemExit:
                pass
            times.append(_clock() - t)
        os.chdir(cwd)
        return times

    main_pass()  # warm
    plain, traced = [], []
    before = tracer.snapshot()
    for _ in range(2):
        plain.append(main_pass())
        tracer.install()
        traced.append(main_pass())
        tracer.uninstall()
    after = tracer.snapshot()
    metrics.update(layer_metrics(before, after, 2))
    for op, times in zip(ops, zip(*plain)):
        metrics[f"cli.{op.name}.main_ms"] = 1e3 * min(times)
    metrics["trace.overhead_pct"] = 100.0 * (sum(map(sum, traced)) / sum(map(sum, plain)) - 1.0)
    return {"attempted": len(records), "failed": failed, "errors": errors, "rounds": 1,
            "metrics": metrics, "functions": function_table(before, after, 2)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--workdir", required=True, type=Path)
    args = ap.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl_cls = WORKLOADS[args.workload]
    if args.mode == "trace":
        result = trace(wl_cls, args.seed, args.seconds, args.workdir)
    else:
        wl = wl_cls(args.seed, args.workdir)
        wl.warm_up()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

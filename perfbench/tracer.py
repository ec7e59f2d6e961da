"""Per-layer counters, taken by wrapping trapqa's public functions from outside.

Each wrapped function is replaced at every place a caller looks it up: its
own module attribute and any ``trapqa.*`` module attribute bound to the same
object (``from .fields import field_at`` makes such a binding). The library
itself is not changed, and :meth:`Tracer.uninstall` puts every original back.
"""

import importlib
import statistics
import sys
import time

import numpy as np

_clock = time.perf_counter

# (module, attribute, what to record)
#   "kernel": calls, points, point x rectangle pairs, busy time
#   "timed":  calls, busy time, per-call durations, nested kernel and solver counts
#   "count":  calls only (hot inner functions)
TARGETS = (
    ("trapqa.kernels", "rect_potential_sum", "kernel"),
    ("trapqa.kernels", "rect_field_sum", "kernel"),
    ("trapqa.electrostatics", "find_rf_minima", "timed"),
    ("trapqa.electrostatics", "secular_frequencies", "timed"),
    ("trapqa.electrostatics", "stray_field", "timed"),
    ("trapqa.electrostatics", "field_at", "count"),
    ("trapqa.electrostatics", "potential_at", "count"),
    ("scipy.optimize", "root", "solver"),
    ("scipy.optimize", "least_squares", "solver"),
    ("trapqa.diagnosis", "simulate_positions", "timed"),
    ("trapqa.diagnosis", "equilibrium_position", "equilibrium"),
    ("trapqa.wafertest", "run_chip", "timed"),
    ("trapqa.wafertest", "build_plan", "plan"),
    ("trapqa.wafertest", "simulate_step", "count"),
    ("trapqa.yieldmap", "layout_wafer", "timed"),
    ("trapqa.yieldmap", "synthesize_outcomes", "timed"),
    ("trapqa.yieldmap", "reticle_periodicity", "timed"),
    ("trapqa.yieldmap", "edge_concentration", "timed"),
    ("trapqa.yieldmap", "render_svg", "timed"),
    ("trapqa.yieldmap", "render_csv", "timed"),
    ("trapqa.thermometry", "fit_rt_curve", "timed"),
    ("trapqa.thermometry", "bg_integral", "timed"),
    ("trapqa.thermometry", "invert_temperature", "timed"),
    ("trapqa.heating", "power_law_fit", "timed"),
    ("trapqa.dissipation", "dissipation_report", "timed"),
)


class Stat:
    """Counters of one wrapped function."""

    __slots__ = ("calls", "busy", "durations", "points", "pairs", "nfev", "seeds", "found",
                 "kernel_calls", "at_boundary", "plan_steps")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.durations = []
        self.points = self.pairs = self.nfev = self.seeds = self.found = 0
        self.kernel_calls = self.at_boundary = self.plan_steps = 0

    def copy(self):
        other = Stat()
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(other, name, list(value) if isinstance(value, list) else value)
        return other


class Tracer:
    """Wraps :data:`TARGETS`; ``stats`` maps ``module.attribute`` to a :class:`Stat`."""

    def __init__(self):
        self.stats = {f"{m}.{a}": Stat() for m, a, _ in TARGETS}
        self._kernel = Stat()  # kernel calls of both functions, for nesting deltas
        self._solver = Stat()  # nfev and calls of the scipy solvers
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _wrap(self, key, kind, fn):
        stat = self.stats[key]
        kernel, solver = self._kernel, self._solver

        if kind == "count":
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

        elif kind == "kernel":
            return _kernel_wrapper(fn, stat, kernel)

        elif kind == "solver":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                stat.calls += 1
                stat.nfev += int(out.nfev)
                solver.calls += 1
                solver.nfev += int(out.nfev)
                return out

        elif kind == "equilibrium":
            def wrapper(potential, *args, **kwargs):
                def counted(x):
                    stat.nfev += 1
                    return potential(x)

                out = fn(counted, *args, **kwargs)
                stat.calls += 1
                stat.at_boundary += bool(out.at_boundary)
                return out

        elif kind == "plan":
            def wrapper(*args, **kwargs):
                t0 = _clock()
                out = fn(*args, **kwargs)
                stat.busy += _clock() - t0
                stat.calls += 1
                stat.plan_steps += len(out)
                return out

        else:  # timed
            def wrapper(*args, **kwargs):
                k0, s0, n0 = kernel.calls, solver.calls, solver.nfev
                t0 = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - t0
                stat.calls += 1
                stat.busy += dt
                stat.durations.append(dt)
                stat.kernel_calls += kernel.calls - k0
                stat.seeds += solver.calls - s0
                stat.nfev += solver.nfev - n0
                if isinstance(out, list):
                    stat.found += len(out)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of each target, in the module and in trapqa."""
        for mod_name, attr, kind in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", kind, fn)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == mod_name or name.startswith("trapqa")):
                    continue
                for a, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, a, wrapper)
                        self._patched.append((mod, a, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def snapshot(self):
        return {k: s.copy() for k, s in self.stats.items()}


def _kernel_wrapper(fn, stat, total):
    def wrapper(rects, volts, points):
        t0 = _clock()
        out = fn(rects, volts, points)
        dt = _clock() - t0
        n = np.size(points) // 3
        m = np.size(volts)
        for s in (stat, total):
            s.calls += 1
            s.busy += dt
            s.points += n
            s.pairs += n * m
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _delta(after, before):
    out = Stat()
    for name in Stat.__slots__:
        a, b = getattr(after, name), getattr(before, name)
        setattr(out, name, a[len(b):] if isinstance(a, list) else a - b)
    return out


def _median_ms(stat, setup_stat):
    durations = stat.durations or setup_stat.durations
    return 1e3 * statistics.median(durations) if durations else 0.0


def function_table(before, after, rounds):
    """Per wrapped function, per round: calls, busy ms and median ms per call."""
    table = {}
    for key in after:
        d = _delta(after[key], before[key])
        if d.calls:
            table[key] = {
                "calls": d.calls / rounds,
                "busy_ms": 1e3 * d.busy / rounds,
                "median_ms": 1e3 * statistics.median(d.durations) if d.durations else None,
            }
    return table


def layer_metrics(before, after, rounds):
    """Per-layer metrics from two snapshots around ``rounds`` traced rounds.

    Counts and busy times are per round; ``.ms`` is the median duration of
    one call (taken from set-up when the function only runs there); solver
    figures are means per call of the function named.
    """
    d = {k: _delta(after[k], before[k]) for k in after}
    r = max(rounds, 1)

    def per_call(stat, field):
        return getattr(stat, field) / stat.calls if stat.calls else 0.0

    phi, fld = d["trapqa.kernels.rect_potential_sum"], d["trapqa.kernels.rect_field_sum"]
    k_calls = phi.calls + fld.calls
    k_busy = phi.busy + fld.busy
    k_points = phi.points + fld.points
    k_pairs = phi.pairs + fld.pairs
    rf = d["trapqa.electrostatics.find_rf_minima"]
    sec = d["trapqa.electrostatics.secular_frequencies"]
    eq = d["trapqa.diagnosis.equilibrium_position"]
    chip = d["trapqa.wafertest.run_chip"]
    plan = d["trapqa.wafertest.build_plan"]
    step = d["trapqa.wafertest.simulate_step"]
    fit = d["trapqa.thermometry.fit_rt_curve"]
    bg = d["trapqa.thermometry.bg_integral"]

    def ms(key):
        return _median_ms(d[key], after[key])

    m = {
        "kernels.calls": k_calls / r,
        "kernels.points": k_points / r,
        "kernels.point_rects": k_pairs / r,
        "kernels.busy_ms": 1e3 * k_busy / r,
        "kernels.ns_per_point_rect": 1e9 * k_busy / k_pairs if k_pairs else 0.0,
        "kernels.points_per_call": k_points / k_calls if k_calls else 0.0,
        "electrostatics.find_rf_minima.ms": ms("trapqa.electrostatics.find_rf_minima"),
        "electrostatics.find_rf_minima.seeds": per_call(rf, "seeds"),
        "electrostatics.find_rf_minima.solver_nfev": per_call(rf, "nfev"),
        "electrostatics.find_rf_minima.nulls_per_seed": rf.found / rf.seeds if rf.seeds else 0.0,
        "electrostatics.secular_frequencies.ms": ms("trapqa.electrostatics.secular_frequencies"),
        "electrostatics.secular_frequencies.kernel_calls": per_call(sec, "kernel_calls"),
        "electrostatics.stray_field.ms": ms("trapqa.electrostatics.stray_field"),
        "electrostatics.field_at.calls": d["trapqa.electrostatics.field_at"].calls / r,
        "electrostatics.potential_at.calls": d["trapqa.electrostatics.potential_at"].calls / r,
        "diagnosis.simulate_positions.ms": ms("trapqa.diagnosis.simulate_positions"),
        "diagnosis.equilibrium_position.calls": eq.calls / r,
        "diagnosis.equilibrium_position.nfev": per_call(eq, "nfev"),
        "diagnosis.equilibrium_position.at_boundary": eq.at_boundary / r,
        "wafertest.run_chip.ms": ms("trapqa.wafertest.run_chip"),
        "wafertest.run_chip.calls": chip.calls / r,
        "wafertest.build_plan.calls": plan.calls / r,
        "wafertest.build_plan.busy_ms": 1e3 * plan.busy / r,
        "wafertest.simulate_step.calls": step.calls / r,
        "wafertest.steps_per_chip": step.calls / chip.calls if chip.calls else 0.0,
        "wafertest.plan_steps_used": step.calls / plan.plan_steps if plan.plan_steps else 0.0,
        "yieldmap.layout_wafer.ms": ms("trapqa.yieldmap.layout_wafer"),
        "yieldmap.synthesize_outcomes.ms": ms("trapqa.yieldmap.synthesize_outcomes"),
        "yieldmap.reticle_periodicity.ms": ms("trapqa.yieldmap.reticle_periodicity"),
        "yieldmap.edge_concentration.ms": ms("trapqa.yieldmap.edge_concentration"),
        "yieldmap.render_svg.ms": ms("trapqa.yieldmap.render_svg"),
        "yieldmap.render_csv.ms": ms("trapqa.yieldmap.render_csv"),
        "thermometry.fit_rt_curve.ms": ms("trapqa.thermometry.fit_rt_curve"),
        "thermometry.fit_rt_curve.nfev": per_call(fit, "nfev"),
        "thermometry.bg_integral.calls": bg.calls / r,
        "thermometry.bg_integral.busy_ms": 1e3 * bg.busy / r,
        "thermometry.invert_temperature.ms": ms("trapqa.thermometry.invert_temperature"),
        "heating.power_law_fit.ms": ms("trapqa.heating.power_law_fit"),
        "dissipation.dissipation_report.ms": ms("trapqa.dissipation.dissipation_report"),
    }
    return m

"""The four benchmark workloads: their seeded inputs, operations and checks.

A workload is built once per process (its set-up), then asked for rounds.
``round(r)`` draws the inputs of round ``r`` from the run's seed and returns
the operations of that round as :class:`Op` entries; the harness times each
``fn()``, hands the output to the workload's ``reduce`` (if it has one) outside
the timed region to keep only what the checks need, and after the timed phase
calls ``check`` on every record. Every check compares
against :mod:`oracles` or a physical property, never against stored output.
"""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as O


def stream(seed, *tags):
    """Independent generator for one purpose of one run; same seed, same draws."""
    return np.random.default_rng([abs(int(seed)), *tags])


@dataclass
class Op:
    kind: str  # "op" or "op2"
    name: str
    fn: object  # zero-argument callable doing the timed work
    units: int  # units of work_per_s this operation completes
    info: object = None  # inputs the check needs


# ------------------------------------------------------------ shared inputs

#: Acceptance-09 search window for the RF nulls: y and z in meters.
NULL_WINDOW = ((-150e-6, 150e-6), (40e-6, 250e-6))

#: DC pad centers of the bundled geometry: 35 pads per row at 103 um pitch.
_DC_PITCH, _DC_X0 = 103e-6, -1798.5e-6 + 47.5e-6


def acceptance_fault_families(wt, netlist, plan_length):
    """The single faults of acceptance 05: opens, leaks, shifts, shorts, HW fails."""
    loop_ids = netlist.ids("dc", "comp", "ts", "rf")
    shift = {"dc": 4.0, "comp": 4.0, "rf": 12.0, "ts": 1.5}
    faults = [wt.Fault.open(n) for n in loop_ids]
    faults += [wt.Fault.leak_to_gnd(n, 1e6) for n in loop_ids]
    faults += [wt.Fault.resistance_shift(n, shift[netlist.net(n).role]) for n in loop_ids]
    faults += [wt.Fault.short(a, b, 1e6) for a, b in itertools.combinations(netlist.ids(), 2)]
    faults += [wt.Fault.hw_fail(i) for i in range(plan_length)]
    return faults


def diagnosis_case(D, rng):
    """A seeded DC well and a battery of planted faults with their labels.

    The well sits at a drawn pad k of the first row (and its mirror k + 35
    in the second); the planted faults act on its outer pads or the gap next
    to its center pad, where each shifts the ion by several position
    tolerances.
    """
    k = int(rng.integers(8, 29))
    a = float(rng.uniform(0.8, 1.2))
    well = {}
    for base in (k, k + 35):
        well.update({f"DC{base - 1:02d}": a, f"DC{base:02d}": -2.0 * a, f"DC{base + 1:02d}": a})
    x = _DC_X0 + (k - 1) * _DC_PITCH
    outer = [f"DC{n:02d}" for n in (k - 1, k + 1, k + 34, k + 36)]
    gap_x = x + float(rng.choice([-1.0, 1.0])) * 51.5e-6
    battery = [
        ("NOMINAL", D.FaultScenario(kind="NOMINAL")),
        ("SHORTED", D.FaultScenario(kind="SHORTED", electrode=outer[rng.integers(4)])),
        ("FLOATING_OR_CHARGE", D.FaultScenario(
            kind="FLOATING", electrode=outer[rng.integers(4)],
            held_voltage=float(rng.uniform(-1.4, -0.6)))),
        ("FLOATING_OR_CHARGE", D.FaultScenario(
            kind="GAP_CHARGE", charge_rects=((gap_x - 4e-6, gap_x + 4e-6, 40e-6, 135e-6),),
            charge_voltage=float(rng.uniform(-2.5, -1.5)))),
    ]
    return well, (x - 300e-6, x + 300e-6), (1.0, 2.0, 4.0), battery


def rt_truth(rng):
    """A seeded R(T) model (r_res, amplitude, theta) and its 120-point noisy curve."""
    truth = (rng.uniform(1500.0, 2500.0), rng.uniform(4000.0, 6000.0), rng.uniform(150.0, 250.0))
    ts = np.logspace(np.log10(2.0), np.log10(300.0), 120)
    rs = O.rt_reference(*truth, ts) * (1.0 + 1e-3 * rng.standard_normal(ts.size))
    return truth, ts, rs


def check_fit(tag, truth, got):
    """A fit of data with 0.1% noise recovers every parameter within 2%."""
    return [
        f"{tag}: {name} {g:.6g} vs truth {w:.6g}"
        for name, g, w in zip(("r_res", "amplitude", "theta"), got, truth)
        if abs(g - w) > 0.02 * w
    ]


def power_law_reference(f, r, s):
    """Heating exponent by a weighted straight line through the logs."""
    slope, _ = np.polyfit(np.log(f), np.log(r), 1, w=np.asarray(r) / np.asarray(s))
    return -slope


def field_errors(tag, basis, volts, phi, e, rel=1e-6):
    """Compare phi (unless None) and E at one point with quadrature basis ``(M, 4)``."""
    ref = basis.T @ volts
    scale = np.abs(basis).T @ np.abs(volts)
    errors = []
    if phi is not None and abs(phi - ref[0]) > rel * scale[0] + 1e-12:
        errors.append(f"{tag}: phi {phi!r} vs quadrature {ref[0]!r}")
    if np.any(np.abs(np.asarray(e) - ref[1:]) > rel * scale[1:].max() + 1e-9):
        errors.append(f"{tag}: E {list(e)} vs quadrature {list(ref[1:])}")
    return errors


def wafer_statistics(sites, outcomes, usable_radius):
    """Reference spatial statistics of a wafer map, computed by hand.

    Returns ``cells``, mapping each reticle cell to (sites, fails, p value,
    flagged) with the p value an exact binomial tail at the pooled rate and
    the 0.01 level split over the 9 cells, and ``edge``, the pooled z test
    of the outer 20% of the usable radius as (n_edge, edge fails, n_inner,
    inner fails, z, p, flagged at 0.01).
    """
    per_cell = Counter(s.cell for s in sites)
    fails = Counter(s.cell for s in sites if outcomes[s.chip_id] != "PASS")
    rate = sum(fails.values()) / len(sites)
    cells = {}
    for cell, n in per_cell.items():
        p = O.binom_tail(fails.get(cell, 0), n, rate)
        cells[cell] = (n, fails.get(cell, 0), p, p < 0.01 / 9.0)
    r_split = 0.8 * usable_radius
    outer = [outcomes[s.chip_id] != "PASS" for s in sites if math.hypot(s.x, s.y) > r_split]
    inner = [outcomes[s.chip_id] != "PASS" for s in sites if math.hypot(s.x, s.y) <= r_split]
    z, p = O.edge_z_test(len(outer), sum(outer), len(inner), sum(inner))
    return cells, (len(outer), sum(outer), len(inner), sum(inner), z, p, p < 0.01)


def check_wafer_statistics(tag, sites, outcomes, cells, edge, usable_radius):
    """Reticle-cell and edge statistics of trapqa against :func:`wafer_statistics`."""
    want_cells, want_edge = wafer_statistics(sites, outcomes, usable_radius)
    got = {c.cell: (c.n_sites, c.n_fail, c.p_value, c.flagged) for c in cells}
    errors = []
    if sorted(got) != sorted(want_cells):
        return [f"{tag}: reticle cells {sorted(got)}"]
    for cell, (n, k, p, flagged) in want_cells.items():
        g = got[cell]
        if g[:2] != (n, k) or abs(g[2] - p) > 1e-9 * p + 1e-300 or g[3] != flagged:
            errors.append(f"{tag}: cell {cell} {g} vs {(n, k, p, flagged)}")
    g = (edge.n_edge, edge.n_edge_fail, edge.n_inner, edge.n_inner_fail)
    ne, fe, ni, fi, z, p, flagged = want_edge
    if g != (ne, fe, ni, fi) or abs(edge.z - z) > 1e-9 or abs(edge.p_value - p) > 1e-9 or edge.flagged != flagged:
        errors.append(f"{tag}: edge {edge} vs z={z} p={p}")
    return errors


def check_wafer_renders(tag, sites, outcomes, csv_text, svg_text):
    """The CSV and SVG maps list every site once, with its outcome."""
    errors = []
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if [(r["chip_id"], r["outcome"]) for r in rows] != [(s.chip_id, outcomes[s.chip_id]) for s in sites]:
        errors.append(f"{tag}: CSV rows disagree with the outcomes")
    root = ElementTree.fromstring(svg_text)
    chips = {
        el.get("data-chip"): el.get("data-outcome")
        for el in root.iter("{http://www.w3.org/2000/svg}rect")
        if el.get("data-chip")
    }
    if chips != outcomes:
        errors.append(f"{tag}: SVG chips disagree with the outcomes")
    return errors


# ------------------------------------------------------------------ wafer_qa


class WaferQA:
    """Wafer test of a seeded wafer (op) and the acceptance-05 fault sweep (op2)."""

    name = "wafer_qa"
    #: Faulty sites per wafer: 477 - 258, so the yield is the reference lot's 258/477.
    FAULTY = 219
    #: Faults per faulty chip are 1 + Poisson(EXTRA_FAULTS).
    EXTRA_FAULTS = 0.34

    def __init__(self, seed, workdir):
        from trapqa import wafertest, yieldmap

        self.wt, self.ym, self.seed = wafertest, yieldmap, seed
        self.netlist = wafertest.default_netlist()
        self.oracle = O.AbortOracle([(n.id, n.role, n.pads) for n in self.netlist.nets])
        self.sites = yieldmap.layout_wafer()
        self.layout = yieldmap.DEFAULT_LAYOUT
        self.families = acceptance_fault_families(wafertest, self.netlist, len(self.oracle.plan))

    def _wafer(self, rng):
        faulty = set(rng.choice(len(self.sites), self.FAULTY, replace=False).tolist())
        return {
            s.chip_id: O.draw_chip_faults(rng, self.families, self.oracle, 1 + rng.poisson(self.EXTRA_FAULTS))
            if k in faulty else ()
            for k, s in enumerate(self.sites)
        }

    def test_wafer(self, faults):
        wt, ym, sites = self.wt, self.ym, self.sites
        chips = {}
        for s in sites:
            res = wt.run_chip(self.netlist, faults[s.chip_id])
            chips[s.chip_id] = (res.outcome, res.steps_executed, len(res.log), res.log[-1].verdict)
        outcomes = {cid: c[0] for cid, c in chips.items()}
        stats = ym.yield_stats(outcomes)
        defects = ym.infer_defects(stats.yield_fraction, stats.total)
        cells = ym.reticle_periodicity(sites, outcomes)
        edge = ym.edge_concentration(sites, outcomes)
        flagged = [c.cell for c in cells if c.flagged]
        return chips, stats, defects, cells, edge, ym.render_csv(sites, outcomes), ym.render_svg(
            sites, outcomes, flagged_cells=flagged
        )

    def sweep(self):
        wt, netlist = self.wt, self.netlist
        clean = wt.run_chip(netlist)
        out = [(clean.outcome, clean.steps_executed)]
        for fault in self.families:
            res = wt.run_chip(netlist, (fault,))
            out.append((res.outcome, res.steps_executed))
        return out

    def warm_up(self):
        self.test_wafer(self._wafer(stream(self.seed, 1, 0)))

    def round(self, r):
        # two wafers around each sweep, so that the wafer median has samples
        # from both ends of the round
        before, after = (self._wafer(stream(self.seed, 1, 1 + 2 * r + k)) for k in (0, 1))
        return [
            Op("op", "wafer", lambda: self.test_wafer(before), len(self.sites), before),
            Op("op2", "sweep", self.sweep, 1 + len(self.families)),
            Op("op", "wafer", lambda: self.test_wafer(after), len(self.sites), after),
        ]

    def check(self, op, rec):
        oracle = self.oracle
        if op.kind == "op2":
            want = [oracle.expected(())] + [oracle.expected((f,)) for f in self.families]
            bad = sum(g != w for g, w in zip(rec, want)) + abs(len(rec) - len(want))
            return [f"sweep: {bad} chips abort at the wrong step or code"] if bad else []
        chips, stats, defects, cells, edge, csv_text, svg_text = rec
        errors = []
        for cid, (outcome, steps, n_log, last) in chips.items():
            if (outcome, steps) != oracle.expected(op.info[cid]) or n_log != steps or last != outcome:
                errors.append(f"wafer: chip {cid} {outcome}@{steps} vs {oracle.expected(op.info[cid])}")
        outcomes = {cid: c[0] for cid, c in chips.items()}
        passed = sum(o == "PASS" for o in outcomes.values())
        codes = Counter(o for o in outcomes.values() if o != "PASS")
        if (stats.total, stats.passed, dict(stats.code_counts)) != (len(self.sites), passed, dict(codes)):
            errors.append(f"wafer: yield stats {stats}")
        n_d = -len(self.sites) * math.log(passed / len(self.sites))
        if abs(defects.total_defects - n_d) > 1e-9 * n_d or abs(defects.per_step - n_d / 104) > 1e-9 * n_d:
            errors.append(f"wafer: defect estimate {defects} vs {n_d}")
        usable = self.layout.wafer_diameter / 2 - self.layout.edge_exclusion
        errors += check_wafer_statistics("wafer", self.sites, outcomes, cells, edge, usable)
        errors += check_wafer_renders("wafer", self.sites, outcomes, csv_text, svg_text)
        return errors


# -------------------------------------------------------------- characterize


class Characterize:
    """Trap characterization with the ion (op) and sensor calibration (op2)."""

    name = "characterize"

    def __init__(self, seed, workdir):
        from trapqa import diagnosis, dissipation, electrostatics, heating, thermometry
        from trapqa.core import CA40, DriveParams

        self.E, self.D, self.T = electrostatics, diagnosis, thermometry
        self.H, self.DS, self.ion, self.Drive = heating, dissipation, CA40, DriveParams
        self.seed = seed
        self.geometry = electrostatics.paper_trap_geometry()
        self.comp_ids = self.geometry.ids("dc") + self.geometry.ids("comp")
        self.heating = heating.site_rates(10)
        self.presets = dict(thermometry.SENSOR_PRESETS)
        self._null_cache = {}

    def _inputs(self, rng):
        drive = self.Drive.from_mhz(float(rng.uniform(100.0, 140.0)), float(rng.uniform(15.0, 19.0)))
        well, window, scales, battery = diagnosis_case(self.D, rng)
        applied = {i: well.get(i, 0.0) + float(rng.uniform(-0.05, 0.05)) for i in self.comp_ids}
        truth, ts, rs = rt_truth(rng)
        readings = []
        for name in sorted(self.presets):
            m = self.presets[name]
            temps = rng.uniform(3.0, 300.0, 4)
            for t, r in zip(temps, O.rt_reference(m.r_res, m.amplitude, m.theta, temps)):
                readings.append((name, float(t), float(r)))
        return dict(drive=drive, well=well, window=window, scales=scales, battery=battery,
                    applied=applied, truth=truth, ts=ts, rs=rs, readings=readings)

    def characterize(self, x):
        E, D, g, ion = self.E, self.D, self.geometry, self.ion
        minima = E.find_rf_minima(g, ion, x["drive"], NULL_WINDOW)
        modes = [E.secular_frequencies(g, ion, x["drive"], {}, m.position) for m in minima]
        stray = [E.stray_field(g, x["applied"], x["well"], m.position) for m in minima]
        nominal = D.simulate_positions(g, x["well"], D.FaultScenario(kind="NOMINAL"), x["scales"], x["window"])
        labels = [
            D.classify_fault(D.simulate_positions(g, x["well"], s, x["scales"], x["window"]), nominal)
            for _, s in x["battery"]
        ]
        return minima, modes, stray, labels

    def calibrate(self, x):
        T, H = self.T, self.H
        fit = T.fit_rt_curve(x["ts"], x["rs"])
        temps = [T.invert_temperature(self.presets[name], r)[0] for name, _, r in x["readings"]]
        heat = H.power_law_fit(
            [r.frequency_mhz for r in self.heating], [r.rate for r in self.heating],
            [r.sigma for r in self.heating],
        )
        return fit, temps, heat, self.DS.dissipation_report()

    def warm_up(self):
        self.characterize(self._inputs(stream(self.seed, 2, 0)))

    def round(self, r):
        x = self._inputs(stream(self.seed, 2, 1 + r))
        return [
            Op("op", "characterize", lambda: self.characterize(x), 1, x),
            Op("op2", "calibrate", lambda: self.calibrate(x), 1, x),
        ]

    def check(self, op, rec):
        return self._check_trap(op.info, *rec) if op.kind == "op" else self._check_sensor(op.info, *rec)

    def _check_trap(self, x, minima, modes, stray, labels):
        errors = []
        if len(minima) != 2:
            return [f"characterize: {len(minima)} RF nulls, want 2"]
        (_, ya, za), (_, yb, zb) = (m.position for m in minima)
        if not all(100e-6 <= z <= 150e-6 for z in (za, zb)) or not 80e-6 <= yb - ya <= 120e-6:
            errors.append(f"characterize: nulls at y={ya}, {yb} z={za}, {zb}")
        if abs(ya + yb) > 1e-9 or abs(za - zb) > 1e-9:
            errors.append("characterize: nulls are not mirror images")
        dv = np.array([x["applied"][i] - x["well"].get(i, 0.0) for i in self.comp_ids])
        v0 = x["drive"].v0
        for m, mode, e in zip(minima, modes, stray):
            e_null, grad, basis = self._null_oracle(m.position)
            if np.linalg.norm(e_null) > np.linalg.norm(grad) * 1e-9:
                errors.append(f"characterize: |E_rf| {v0 * np.linalg.norm(e_null):.3g} V/m at the null")
            # pseudopotential Hessian at a null: q^2 / (2 m Omega^2) G^T G, G = v0 * grad
            ion, omega = self.ion, x["drive"].omega
            lam = np.linalg.eigvalsh(ion.charge**2 * v0**2 / (2 * ion.mass * omega**2) * grad.T @ grad)
            want = np.sqrt(lam[1:] / ion.mass) / (2 * np.pi)
            got = np.sort(np.abs(mode.frequencies_hz))[1:]
            if not mode.stable or np.any(np.abs(got - want) > 1e-4 * want):
                errors.append(f"characterize: radial modes {got} Hz vs {want} Hz")
            errors += field_errors("characterize stray", basis, -dv, None, e)
        for (want, _), got in zip(x["battery"], labels):
            if got != want:
                errors.append(f"characterize: diagnosed {got}, planted {want}")
        return errors

    def _null_oracle(self, position):
        """Quadrature at an RF null, per RF volt: field, field gradient, compensation basis.

        The nulls depend only on the geometry, so every round finds the same
        two and the quadrature is done once per null.
        """
        key = tuple(position)
        if key not in self._null_cache:
            g = self.geometry
            rf_rects, rf_unit = g.rect_arrays({i: 1.0 for i in g.ids(role="rf")})
            comp_rects = np.array([g.electrode(i).rects[0] for i in self.comp_ids])
            self._null_cache[key] = (
                O.quad_basis(rf_rects, key)[:, 1:].T @ rf_unit,
                O.quad_field_gradient(rf_rects, rf_unit, key),
                O.quad_basis(comp_rects, key),
            )
        return self._null_cache[key]

    def _check_sensor(self, x, fit, temps, heat, rows):
        errors = check_fit("calibrate", x["truth"], (fit.model.r_res, fit.model.amplitude, fit.model.theta))
        for (name, t, _), got in zip(x["readings"], temps):
            if abs(got - t) > 1e-3:
                errors.append(f"calibrate: {name} read {got} K at {t} K")
        alpha = power_law_reference(
            [r.frequency_mhz for r in self.heating], [r.rate for r in self.heating],
            [r.sigma for r in self.heating],
        )
        if abs(heat.alpha - alpha) > 1e-9 * abs(alpha):
            errors.append(f"calibrate: heating alpha {heat.alpha} vs {alpha}")
        table = {(r.name, r.temperature): (r.p_ohmic * 1e3, r.p_diel * 1e3, r.p_total * 1e3) for r in rows}
        return errors + O.check_power_table(table)


# ---------------------------------------------------------------- field_scan


class FieldScan:
    """Potential and field on a 32^3 grid (op) and stray-field lines (op2)."""

    name = "field_scan"
    GRID = 32  # points per axis
    LINE = 64  # points per stray-field line
    LINES_PER_ROUND = 16
    GRID_SAMPLES = 12
    LINE_SAMPLES = 4

    def __init__(self, seed, workdir):
        from trapqa import electrostatics

        self.E, self.seed = electrostatics, seed
        g = self.geometry = electrostatics.paper_trap_geometry()
        self.ids = g.ids()
        self.comp_ids = g.ids("dc") + g.ids("comp")
        rng = stream(seed, 3)
        x0 = rng.uniform(-300e-6, 300e-6)
        axes = (
            np.linspace(x0 - 200e-6, x0 + 200e-6, self.GRID),
            np.linspace(-200e-6, 200e-6, self.GRID),
            np.linspace(40e-6, 240e-6, self.GRID),
        )
        self.grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        y, z = rng.uniform(30e-6, 60e-6), rng.uniform(80e-6, 160e-6)
        xs = np.linspace(-300e-6, 300e-6, self.LINE)
        self.line = np.column_stack([xs, np.full_like(xs, y), np.full_like(xs, z)])
        self.grid_samples = rng.choice(len(self.grid), self.GRID_SAMPLES, replace=False)
        self.line_samples = rng.choice(self.LINE, self.LINE_SAMPLES, replace=False)

    def scan(self, volts):
        return self.E.potential_at(self.geometry, volts, self.grid), self.E.field_at(
            self.geometry, volts, self.grid
        )

    def stray(self, applied):
        return self.E.stray_field(self.geometry, applied, {}, self.line)

    def warm_up(self):
        rng = stream(self.seed, 4, 0)
        self.scan({i: rng.uniform(-10.0, 10.0) for i in self.ids})
        self.stray({i: rng.uniform(-0.1, 0.1) for i in self.comp_ids})

    def round(self, r):
        rng = stream(self.seed, 4, 1 + r)
        volts = {i: float(rng.uniform(-10.0, 10.0)) for i in self.ids}
        ops = [Op("op", "scan", lambda: self.scan(volts), len(self.grid), volts)]
        for _ in range(self.LINES_PER_ROUND):
            applied = {i: float(rng.uniform(-0.1, 0.1)) for i in self.comp_ids}
            ops.append(Op("op2", "stray", lambda a=applied: self.stray(a), self.LINE, applied))
        return ops

    def reduce(self, op, out):
        if op.kind == "op":
            phi, e = out
            return {
                "finite": bool(np.isfinite(phi).all() and np.isfinite(e).all()),
                "shape": (phi.shape, e.shape),
                "max_abs_phi": float(np.abs(phi).max()),
                "phi": phi[self.grid_samples],
                "e": e[self.grid_samples],
            }
        return {"finite": bool(np.isfinite(out).all()), "shape": out.shape, "e": out[self.line_samples]}

    def _cross_check(self, volts, rec):
        """The compiled kernel, when it is in use, against the numpy one."""
        from trapqa import kernels

        if kernels.BACKEND == "python":
            return []
        from trapqa.kernels import rect_np

        rects, v = self.geometry.rect_arrays(volts)
        pts = self.grid[self.grid_samples]
        phi = rect_np.rect_potential_sum(rects, v, pts)
        e = rect_np.rect_field_sum(rects, v, pts)
        if np.allclose(rec["phi"], phi, rtol=1e-9, atol=1e-12) and np.allclose(rec["e"], e, rtol=1e-9, atol=1e-12):
            return []
        return [f"field_scan: {kernels.BACKEND} kernel disagrees with rect_np"]

    def _bases(self):
        if not hasattr(self, "_grid_basis"):
            g = self.geometry
            all_rects = np.array([e.rects[0] for e in g.electrodes])
            comp_rects = np.array([g.electrode(i).rects[0] for i in self.comp_ids])
            self._grid_basis = [O.quad_basis(all_rects, self.grid[k]) for k in self.grid_samples]
            self._line_basis = [O.quad_basis(comp_rects, self.line[k]) for k in self.line_samples]
        return self._grid_basis, self._line_basis

    def check(self, op, rec):
        if not rec["finite"]:
            return [f"field_scan: non-finite {op.name} output"]
        grid_basis, line_basis = self._bases()
        errors = []
        if op.kind == "op":
            n = len(self.grid)
            if rec["shape"] != ((n,), (n, 3)):
                return [f"field_scan: output shapes {rec['shape']}"]
            v = np.array([op.info[i] for i in self.ids])
            if rec["max_abs_phi"] > np.abs(v).max():
                errors.append(f"field_scan: |phi| {rec['max_abs_phi']} above max |V| {np.abs(v).max()}")
            for k, basis in enumerate(grid_basis):
                errors += field_errors("field_scan grid", basis, v, rec["phi"][k], rec["e"][k])
            errors += self._cross_check(op.info, rec)
        else:
            if rec["shape"] != (self.LINE, 3):
                return [f"field_scan: stray shape {rec['shape']}"]
            dv = -np.array([op.info[i] for i in self.comp_ids])
            for k, basis in enumerate(line_basis):
                errors += field_errors("field_scan stray", basis, dv, None, rec["e"][k])
        return errors


# --------------------------------------------------------------- cli_session


@dataclass
class Command:
    name: str
    argv: list
    rc: object  # expected exit code (None: the check decides); 2 marks a refusal
    check: object = None  # callable(files, rc) -> errors, for commands that must succeed
    outputs: tuple = ()


class CliSession:
    """Every README command as its own ``python -m trapqa.cli`` process.

    One round is one session. Two refusals are part of each session: they
    should exit 2 with a message, and count as failed operations while they
    do not.
    """

    name = "cli_session"
    op2_is_round = True

    def __init__(self, seed, workdir):
        from trapqa import diagnosis, thermometry, wafertest

        self.seed, self.wt, self.D = seed, wafertest, diagnosis
        self.presets = dict(thermometry.SENSOR_PRESETS)
        self.netlist = wafertest.default_netlist()
        self.oracle = O.AbortOracle([(n.id, n.role, n.pads) for n in self.netlist.nets])
        self.families = acceptance_fault_families(wafertest, self.netlist, len(self.oracle.plan))
        self.workdir = Path(workdir)
        self.env = dict(os.environ)

    def run(self, argv, cwd):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "trapqa.cli", *argv],
            cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        return proc.returncode, proc.stderr, time.perf_counter() - t0

    def warm_up(self):
        d = self.workdir / "warm"
        d.mkdir(parents=True, exist_ok=True)
        self.run(["dissipation", "--out", "power.csv"], d)

    def round(self, r):
        d = self.workdir / f"r{r}"
        d.mkdir(parents=True, exist_ok=True)
        commands = self.session(stream(self.seed, 5, r), d)
        return [
            Op("op", c.name, lambda c=c: self.run(c.argv, d), 1, (c, d)) for c in commands
        ]

    def reduce(self, op, out):
        rc, stderr, _ = out
        command, d = op.info
        files = {name: (d / name).read_bytes() for name in command.outputs if (d / name).exists()}
        return {"rc": rc, "stderr": stderr, "files": files}

    def failed(self, op, rec):
        command, _ = op.info
        return command.rc == 2 and not (rec["rc"] == 2 and rec["stderr"].strip())

    def check(self, op, rec):
        command, _ = op.info
        if command.rc == 2:
            return []
        if command.rc is not None and rec["rc"] != command.rc:
            return [f"cli {command.name}: exit {rec['rc']}, want {command.rc}: {rec['stderr'][-300:]}"]
        missing = [n for n in command.outputs if n not in rec["files"]]
        if missing:
            return [f"cli {command.name}: exit {rec['rc']}, missing {missing}: {rec['stderr'][-300:]}"]
        return command.check(rec["files"], rec["rc"])

    # ------------------------------------------------------------ inputs

    def session(self, rng, d):
        def write(name, text):
            (d / name).write_text(text, encoding="utf-8")

        cmds = []

        v0 = float(rng.uniform(140.0, 180.0))
        cmds.append(Command(
            "dissipation", ["dissipation", "--v0", repr(v0), "--out", "power.csv"], 0,
            lambda f, rc, v0=v0: _check_power_csv(f["power.csv"], v0), ("power.csv",)))

        cmds.append(Command(
            "wafertest", ["wafertest", "--out", "steps.csv", "--summary", "run.json"], 0,
            lambda f, rc: self._check_steps(f["steps.csv"], f["run.json"], ()), ("steps.csv", "run.json")))

        fault = self.families[int(rng.integers(len(self.families)))]
        write("faults.json", json.dumps({"faults": [{
            "kind": fault.kind, "net": fault.net, "other": fault.other,
            "resistance_ohm": fault.resistance, "factor": fault.factor, "step_index": fault.step_index,
        }]}))
        cmds.append(Command(
            "wafertest_fault",
            ["wafertest", "--faults", "faults.json", "--out", "steps_f.csv", "--summary", "run_f.json"], 1,
            lambda f, rc: self._check_steps(f["steps_f.csv"], f["run_f.json"], (fault,)),
            ("steps_f.csv", "run_f.json")))

        # the same invocation twice: the second run must write the same bytes
        wafer_seed = int(rng.integers(1, 2**31))
        first = ("wafer_a.svg", "wafer_a.csv", "wafer_a.json")
        for name, outs in (("yieldmap", first), ("yieldmap_repeat", ("wafer_b.svg", "wafer_b.csv", "wafer_b.json"))):
            argv = ["--seed", str(wafer_seed), "yieldmap", "--out-svg", outs[0],
                    "--out-csv", outs[1], "--out-stats", outs[2]]
            cmds.append(Command(name, argv, None, lambda f, rc, o=outs: _check_yieldmap(f, rc, o) + [
                f"yieldmap: {b} differs from {a} of the same invocation"
                for a, b in zip(first, o) if f[b] != (d / a).read_bytes()
            ], outs))

        g_volts = {f"DC{k:02d}": float(rng.uniform(-5.0, 5.0)) for k in rng.choice(np.arange(1, 71), 6, replace=False)}
        g_volts["RF0"] = float(rng.uniform(-5.0, 5.0))
        write("volts.json", json.dumps(g_volts))
        x0, y0, z0 = rng.uniform(-100.0, 100.0), rng.uniform(-60.0, 60.0), rng.uniform(60.0, 120.0)
        axes = [f"{x0:.3f}:{x0 + 60:.3f}:4", f"{y0:.3f}:{y0 + 60:.3f}:4", f"{z0:.3f}:{z0 + 60:.3f}:4"]
        cmds.append(Command(
            "field", ["field", "--voltages", "volts.json", f"--x={axes[0]}", f"--y={axes[1]}", f"--z={axes[2]}",
                      "--out", "scan.csv"], 0,
            lambda f, rc: _check_scan(f["scan.csv"], g_volts, 64), ("scan.csv",)))

        comp = [f"DC{k:02d}" for k in range(1, 71)] + [f"CP{k}" for k in range(1, 7)]
        reference = {i: float(rng.uniform(-1.0, 1.0)) for i in comp}
        applied = {i: v + float(rng.uniform(-0.05, 0.05)) for i, v in reference.items()}
        write("applied.json", json.dumps(applied))
        write("reference.json", json.dumps(reference))
        point = (rng.uniform(-50.0, 50.0), rng.uniform(30.0, 55.0), rng.uniform(100.0, 150.0))
        cmds.append(Command(
            "strayfield", ["strayfield", "--applied", "applied.json", "--reference", "reference.json",
                           "--point=" + ",".join(f"{c:.4f}" for c in point), "--out", "stray.json"], 0,
            lambda f, rc: _check_stray(f["stray.json"], applied, reference), ("stray.json",)))

        well, window, scales, battery = diagnosis_case(self.D, rng)
        label, scenario = battery[1 + int(rng.integers(len(battery) - 1))]
        fault_spec = {"kind": scenario.kind}
        if scenario.electrode:
            fault_spec.update(electrode=scenario.electrode, held_voltage=scenario.held_voltage)
        if scenario.charge_rects:
            fault_spec.update(charge_rects_um=[[c * 1e6 for c in r] for r in scenario.charge_rects],
                              charge_voltage=scenario.charge_voltage)
        write("scenario.json", json.dumps({
            "geometry": "builtin", "voltages": well, "scales": list(scales),
            "window_um": [w * 1e6 for w in window], "fault": fault_spec}))
        cmds.append(Command(
            "diagnose", ["diagnose", "--scenario", "scenario.json", "--out", "diag.json"], 1,
            lambda f, rc: _check_label(f["diag.json"], label), ("diag.json",)))

        preset = sorted(self.presets)[int(rng.integers(len(self.presets)))]
        m = self.presets[preset]
        t_true = float(rng.uniform(4.0, 290.0))
        r_read = float(O.rt_reference(m.r_res, m.amplitude, m.theta, [t_true])[0])
        cmds.append(Command(
            "thermo_preset", ["thermo", "--preset", preset, "--resistance", repr(r_read), "--out", "thermo.json"], 0,
            lambda f, rc: _check_readout(f["thermo.json"], t_true), ("thermo.json",)))

        truth, ts, rs = rt_truth(rng)
        write("rt_curve.csv", "T_K,R_ohm\n" + "".join(f"{t!r},{r!r}\n" for t, r in zip(ts.tolist(), rs.tolist())))
        cmds.append(Command(
            "thermo_calibration", ["thermo", "--calibration", "rt_curve.csv", "--out", "fit.json"], 0,
            lambda f, rc: _check_calibration(f["fit.json"], truth), ("fit.json",)))

        freqs = np.sort(rng.uniform(0.5, 3.0, 8))
        alpha = rng.uniform(1.5, 2.5)
        rates = 40.0 * freqs**-alpha * (1.0 + 0.05 * rng.standard_normal(8))
        sigmas = 0.05 * rates
        write("heating.csv", "site,frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s\n" + "".join(
            f"1,{f!r},{r!r},{s!r}\n" for f, r, s in zip(freqs.tolist(), rates.tolist(), sigmas.tolist())))
        cmds.append(Command(
            "heating", ["heating", "--csv", "heating.csv", "--site", "1", "--out", "heating.json"], 0,
            lambda f, rc: _check_heating(f["heating.json"], freqs, rates, sigmas), ("heating.json",)))

        # Refusals: inputs fixed, independent of the seed.
        write("missed_window.json", json.dumps({
            "geometry": "builtin",
            "voltages": {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0},
            "scales": [1.0, 2.0, 4.0], "window_um": [200, 400],
            "fault": {"kind": "SHORTED", "electrode": "DC19"}}))
        cmds.append(Command(
            "diagnose_window", ["diagnose", "--scenario", "missed_window.json", "--out", "diag_w.json"], 2))
        write("below.json", json.dumps({"DC18": 1.0}))
        cmds.append(Command(
            "field_below_plane", ["field", "--voltages", "below.json", "--x=0:0:1", "--y=42:42:1",
                                  "--z=-50:-50:1", "--out", "below.csv"], 2))
        return cmds

    def _check_steps(self, steps_csv, summary_json, faults):
        rows = list(csv.DictReader(io.StringIO(steps_csv.decode())))
        summary = json.loads(summary_json)
        outcome, steps = self.oracle.expected(faults)
        plan = self.oracle.plan
        errors = []
        if len(rows) != steps or any(r["net"] != plan[i][1] or int(r["step_index"]) != i for i, r in enumerate(rows)):
            errors.append(f"wafertest: {len(rows)} rows, want {steps} in plan order")
        verdicts = [r["verdict"] for r in rows]
        if verdicts[-1:] != [outcome] or any(v != "PASS" for v in verdicts[:-1]):
            errors.append(f"wafertest: verdicts end {verdicts[-1:]}, want {outcome}")
        want = {"outcome": outcome, "steps_executed": steps, "plan_steps": len(plan)}
        if any(summary.get(k) != v for k, v in want.items()) or abs(summary["elapsed_s"] - 0.01625 * steps) > 1e-9:
            errors.append(f"wafertest: summary {summary}")
        return errors


def _check_power_csv(data, v0):
    rows = {
        (r["trap"], float(r["temperature_K"])): (float(r["p_ohmic_mW"]), float(r["p_diel_mW"]), float(r["p_total_mW"]))
        for r in csv.DictReader(io.StringIO(data.decode()))
    }
    return O.check_power_table(rows, v0)


def _check_yieldmap(files, rc, names):
    svg, table, stats_json = (files[n] for n in names)
    rows = list(csv.DictReader(io.StringIO(table.decode())))
    sites = [_Site(r["chip_id"], float(r["x_mm"]), float(r["y_mm"]), (int(r["cell_x"]), int(r["cell_y"])))
             for r in rows]
    outcomes = {r["chip_id"]: r["outcome"] for r in rows}
    stats = json.loads(stats_json)
    errors = check_wafer_renders("yieldmap", sites, outcomes, table.decode(), svg.decode())
    passed = sum(o == "PASS" for o in outcomes.values())
    if (stats["total"], stats["passed"], len(rows)) != (len(rows), passed, 477):
        errors.append(f"yieldmap: totals {stats['total']}/{stats['passed']} vs {len(rows)}/{passed}")
    if stats["code_counts"] != dict(Counter(o for o in outcomes.values() if o != "PASS")):
        errors.append("yieldmap: code counts disagree with the CSV")
    n_d = -len(rows) * math.log(passed / len(rows))
    if abs(stats["defects_total"] - n_d) > 1e-9 * n_d:
        errors.append(f"yieldmap: defects {stats['defects_total']} vs {n_d}")
    # the CSV gives centers in mm; the usable radius is 100 mm less 3.25 mm exclusion
    cells, (_, _, _, _, z, p, edge_flag) = wafer_statistics(sites, outcomes, 96.75)
    flagged = sorted(list(c) for c, v in cells.items() if v[3])
    if sorted(stats["flagged_cells"]) != flagged:
        errors.append(f"yieldmap: flagged cells {stats['flagged_cells']} vs {flagged}")
    # CSV centers carry 3 decimals, so z is compared loosely
    if abs(stats["edge"]["z"] - z) > 1e-6 or stats["edge"]["flagged"] != edge_flag:
        errors.append(f"yieldmap: edge {stats['edge']} vs z={z} p={p}")
    if rc != (1 if flagged or edge_flag else 0):
        errors.append(f"yieldmap: exit {rc} with flagged cells {flagged}, edge {edge_flag}")
    return errors


@dataclass
class _Site:
    chip_id: str
    x: float
    y: float
    cell: tuple


def _check_scan(data, volts, n):
    from trapqa.electrostatics import paper_trap_geometry  # geometry data only

    g = paper_trap_geometry()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != n:
        return [f"field: {len(rows)} rows, want {n}"]
    ids = sorted(volts)
    rects = np.array([g.electrode(i).rects[0] for i in ids])
    v = np.array([volts[i] for i in ids])
    errors = []
    vmax = np.abs(v).max()
    for k, r in enumerate(rows):
        if abs(float(r["phi_V"])) > vmax:
            errors.append(f"field: |phi| {r['phi_V']} above max |V| at row {k}")
        if k % 21 == 0:  # quadrature at rows 0, 21, 42, 63
            p = np.array([float(r["x_um"]), float(r["y_um"]), float(r["z_um"])]) * 1e-6
            e = [float(r[c]) for c in ("Ex_V_per_m", "Ey_V_per_m", "Ez_V_per_m")]
            errors += field_errors(f"field row {k}", O.quad_basis(rects, p), v, float(r["phi_V"]), e)
    return errors


def _check_stray(data, applied, reference):
    from trapqa.electrostatics import paper_trap_geometry

    g = paper_trap_geometry()
    out = json.loads(data)
    ids = sorted(applied)
    rects = np.array([g.electrode(i).rects[0] for i in ids])
    dv = -np.array([applied[i] - reference[i] for i in ids])
    basis = O.quad_basis(rects, np.array(out["point_um"]) * 1e-6)
    return field_errors("strayfield", basis, dv, None, out["E_stray_V_per_m"])


def _check_label(data, label):
    got = json.loads(data)["classification"]
    return [] if got == label else [f"diagnose: {got}, planted {label}"]


def _check_readout(data, t_true):
    out = json.loads(data)
    got = out.get("readout", {}).get("T_K")
    return [] if got is not None and abs(got - t_true) <= 1e-3 else [f"thermo: read {got} K at {t_true} K"]


def _check_calibration(data, truth):
    m = json.loads(data)["model"]
    return check_fit("thermo calibration", truth, (m["r_res"], m["amplitude"], m["theta"]))


def _check_heating(data, freqs, rates, sigmas):
    out = json.loads(data)
    alpha = power_law_reference(freqs, rates, sigmas)
    if out["n_points"] != len(freqs) or abs(out["alpha"] - alpha) > 1e-9 * abs(alpha):
        return [f"heating: alpha {out['alpha']} vs {alpha}"]
    return []


WORKLOADS = {w.name: w for w in (WaferQA, Characterize, FieldScan, CliSession)}

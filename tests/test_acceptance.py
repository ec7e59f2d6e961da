"""Release checklist: the thirteen quantitative guarantees of the toolkit.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line so a verbose pytest
run reads as a checklist. Criteria with a runtime budget measure wall time
with perf_counter and fail when over budget.
"""

import csv
import itertools
import json
import time

import numpy as np

from trapqa.cli import main as cli_main
from trapqa.core import CA40, DriveParams
from trapqa.diagnosis import (
    POSITION_TOL,
    FaultScenario,
    classify_fault,
    equilibrium_position,
    simulate_positions,
)
from trapqa.dissipation import dissipation_report, distributed_ohmic_power


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


# ----------------------------------------------------------------- 1-3: RF loss

#: Rounded reference powers (mW) at 160 V / 2*pi*22 MHz:
#: (p_ohmic 300 K, p_ohmic 10 K, p_diel, total 300 K, total 10 K)
REFERENCE_MW = {
    "si_partial_shield": (190.0, 20.0, 50.0, 240.0, 70.0),
    "si_full_shield": (430.0, 45.0, 74.0, 504.0, 119.0),
    "fused_silica": (13.0, 0.3, 21.0, 34.0, 21.3),
}


def test_acceptance_01_power_table(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "dissipation.csv"
    rc = cli_main(["dissipation", "--out", str(out)])
    elapsed = time.perf_counter() - t0

    with out.open() as fh:
        rows = {(r["trap"], float(r["temperature_K"])): r for r in csv.DictReader(fh)}
    ok = rc == 0 and elapsed < 1.0
    for name, (po300, po10, pd, tot300, tot10) in REFERENCE_MW.items():
        r300, r10 = rows[(name, 300.0)], rows[(name, 10.0)]
        pairs = [
            (float(r300["p_ohmic_mW"]), po300),
            (float(r10["p_ohmic_mW"]), po10),
            (float(r300["p_diel_mW"]), pd),
            (float(r10["p_diel_mW"]), pd),
            (float(r300["p_total_mW"]), tot300),
            (float(r10["p_total_mW"]), tot10),
        ]
        ok = ok and all(abs(got - want) <= 0.05 * want for got, want in pairs)
    _verdict(1, ok, f"reference power table within 5% via CLI ({elapsed:.2f} s)")


def test_acceptance_02_split_consistency():
    rows = dissipation_report()
    worst = max(r.rel_error for r in rows)
    _verdict(2, len(rows) == 6 and worst < 1e-3,
             f"ohmic+dielectric split vs exact R/3 network, worst {worst:.1e}")


def test_acceptance_03_distributed_oracle():
    ok = True
    worst = 0.0
    for resistance, i0, length in [(3.0, 1.7, 0.049), (0.31, 2.4, 0.012), (1.1, 0.9, 1.0)]:
        n = 1_000_000
        x = (np.arange(n) + 0.5) * (length / n)
        p_num = np.sum((resistance / length) * (i0 * (1.0 - x / length)) ** 2) * (length / n)
        rel = abs(distributed_ohmic_power(resistance, i0) - p_num) / p_num
        worst = max(worst, rel)
        ok = ok and rel < 1e-10
    _verdict(3, ok, f"distributed ohmic power vs 1e6-panel quadrature, worst {worst:.1e}")


# -------------------------------------------------------------- 4: Poisson yield

def test_acceptance_04_poisson_yield():
    from trapqa.yieldmap import infer_defects, yield_from_defects

    est = infer_defects(258 / 477, 477, n_steps=104)
    roundtrip = yield_from_defects(est.total_defects, 477)
    ok = (
        abs(est.total_defects - 293.2) <= 0.1
        and abs(est.per_step - 2.82) <= 0.01
        and abs(roundtrip - 258 / 477) <= 1e-12 * (258 / 477)
    )
    _verdict(4, ok, f"N_d={est.total_defects:.2f}, per-step={est.per_step:.3f}, "
                    "round trip to 1e-12")


# ----------------------------------------------------- 5-6: wafer test soundness

def _expected_abort(netlist, plan, fault):
    """First plan step that must catch the fault, and its failure code."""
    if fault.kind == "HW_FAIL":
        return fault.step_index, "HW_FAIL"
    if fault.kind == "OPEN":
        for s in plan:
            if s.kind == "CONTINUITY" and s.net == fault.net:
                return s.index, "CONTINUITY_FAIL"
    if fault.kind in ("SHORT", "LEAK_TO_GND"):
        touched = {fault.net, fault.other} - {None}
        for s in plan:
            if s.net in touched and s.kind == "LEAKAGE_RF":
                return s.index, "LEAK_RF"
            if s.net in touched and s.kind == "LEAKAGE":
                if fault.kind == "LEAK_TO_GND":
                    return s.index, "LEAK_DC_GND"
                other = fault.other if s.net == fault.net else fault.net
                role = netlist.net(other).role
                code = {"rf": "LEAK_DC_RF", "gnd": "LEAK_DC_GND"}.get(role, "LEAK_DC_DC")
                return s.index, code
    if fault.kind == "RESISTANCE_SHIFT":
        role = netlist.net(fault.net).role
        code = {"rf": "RES_FAIL_RF", "ts": "RES_FAIL_TS"}.get(role, "RES_FAIL_DC")
        for s in plan:
            if s.kind == "RESISTANCE" and s.net == fault.net:
                return s.index, code
    raise AssertionError(f"fault not reachable by the plan: {fault}")


def test_acceptance_05_fault_sweep():
    from trapqa.wafertest import Fault, build_plan, default_netlist, run_chip

    netlist = default_netlist()
    plan = build_plan(netlist)
    loop_ids = netlist.ids("dc", "comp", "ts", "rf")
    shift_factor = {"dc": 4.0, "comp": 4.0, "rf": 12.0, "ts": 1.5}

    sweep = [Fault.open(n) for n in loop_ids]
    sweep += [Fault.leak_to_gnd(n, 1e6) for n in loop_ids]
    sweep += [Fault.resistance_shift(n, shift_factor[netlist.net(n).role]) for n in loop_ids]
    sweep += [Fault.short(a, b, 1e6) for a, b in itertools.combinations(netlist.ids(), 2)]
    sweep += [Fault.hw_fail(i) for i in range(len(plan))]

    t0 = time.perf_counter()
    clean = run_chip(netlist)
    false_pass = 0
    misclassified = 0
    for fault in sweep:
        idx, code = _expected_abort(netlist, plan, fault)
        res = run_chip(netlist, (fault,))
        if res.outcome == "PASS":
            false_pass += 1
        elif res.outcome != code or res.steps_executed != idx + 1:
            misclassified += 1
    elapsed = time.perf_counter() - t0

    ok = (
        clean.outcome == "PASS"
        and clean.steps_executed == len(plan)
        and false_pass == 0
        and misclassified == 0
        and elapsed < 10.0
    )
    _verdict(5, ok, f"{len(sweep)} single-fault runs: {false_pass} false PASS, "
                    f"{misclassified} wrong code/step, clean chip {clean.outcome} "
                    f"({elapsed:.1f} s)")


def test_acceptance_06_step_model():
    from trapqa.wafertest import default_netlist, run_chip

    res = run_chip(default_netlist())
    ok = res.steps_executed == 480 and abs(res.elapsed_s - 7.8) <= 0.1
    _verdict(6, ok, f"defect-free plan: {res.steps_executed} steps, "
                    f"{res.elapsed_s:.3f} s model time")


# ------------------------------------------------------- 7: spatial statistics

def test_acceptance_07_spatial_statistics():
    from trapqa.yieldmap import (
        edge_concentration,
        layout_wafer,
        reticle_periodicity,
        synthesize_outcomes,
    )

    sites = layout_wafer()
    t0 = time.perf_counter()
    cell_hits = edge_hits = regime = null_cell_flags = null_edge_flags = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(key=seed))

        outcomes = synthesize_outcomes(
            sites, rng, base_rates={"LEAK_DC_DC": 0.01},
            cell_boost=((1, 1), "LEAK_DC_DC", 0.9),
        )
        stats = {c.cell: c for c in reticle_periodicity(sites, outcomes, code="LEAK_DC_DC")}
        planted = stats[(1, 1)]
        total_fail = sum(c.n_fail for c in stats.values())
        if planted.n_fail >= 30 and planted.n_fail >= 0.8 * total_fail:
            regime += 1
        if planted.flagged:
            cell_hits += 1

        outcomes = synthesize_outcomes(
            sites, rng, base_rates={"CONTINUITY_FAIL": 0.02},
            edge_boost=("CONTINUITY_FAIL", 0.6, 0.2),
        )
        if edge_concentration(sites, outcomes, code="CONTINUITY_FAIL").flagged:
            edge_hits += 1

        outcomes = synthesize_outcomes(
            sites, rng, base_rates={"LEAK_DC_DC": 0.1, "CONTINUITY_FAIL": 0.1},
        )
        if any(c.flagged for c in reticle_periodicity(sites, outcomes)):
            null_cell_flags += 1
        if edge_concentration(sites, outcomes).flagged:
            null_edge_flags += 1
    elapsed = time.perf_counter() - t0

    ok = (
        regime >= 99
        and cell_hits >= 99
        and edge_hits >= 99
        and null_cell_flags <= 5
        and null_edge_flags <= 5
        and elapsed < 30.0
    )
    _verdict(7, ok, f"cell {cell_hits}/100, edge {edge_hits}/100 detected; "
                    f"null flags {null_cell_flags}+{null_edge_flags} ({elapsed:.1f} s)")


# --------------------------------------------------- 8-9: electrostatics oracles

def _quadrature_potential(rect, point, n=120):
    """Surface-integral reference: phi = z/(2 pi) int dA / r^3 over the patch."""
    x0, x1, y0, y1 = rect
    x, y, z = point
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (x1 - x0) * nodes + 0.5 * (x1 + x0)
    ys = 0.5 * (y1 - y0) * nodes + 0.5 * (y1 + y0)
    wx = 0.5 * (x1 - x0) * weights
    wy = 0.5 * (y1 - y0) * weights
    integrand = ((x - xs[:, None]) ** 2 + (y - ys[None, :]) ** 2 + z**2) ** -1.5
    return z / (2.0 * np.pi) * (wx[:, None] * wy[None, :] * integrand).sum()


def test_acceptance_08_kernel_oracles():
    from trapqa.electrostatics import field_at, paper_trap_geometry, potential_at
    from trapqa.kernels import rect_potential_sum

    def rect_potential(rect, point):
        """Potential of one rectangle at 1 V at one point."""
        return rect_potential_sum(np.array([rect]), np.ones(1), np.array([point]))[0]

    rng = np.random.Generator(np.random.Philox(key=42))
    worst_phi = 0.0
    for _ in range(100):
        x0, y0 = rng.uniform(-300e-6, 100e-6, 2)
        rect = (x0, x0 + rng.uniform(20e-6, 400e-6), y0, y0 + rng.uniform(20e-6, 400e-6))
        pt = (rng.uniform(-400e-6, 400e-6), rng.uniform(-400e-6, 400e-6),
              rng.uniform(20e-6, 300e-6))
        ref = _quadrature_potential(rect, pt)
        worst_phi = max(worst_phi, abs(rect_potential(rect, pt) - ref) / abs(ref))

    geometry = paper_trap_geometry()
    volts = {"DC17": 0.7, "DC18": -1.4, "DC19": 0.7, "CP1": 0.2, "RF1": 3.0}
    worst_grad = 0.0
    h = 1e-9
    for pt in [(0.0, 42e-6, 124e-6), (-50e-6, 60e-6, 90e-6), (120e-6, -30e-6, 150e-6)]:
        analytic = np.asarray(field_at(geometry, volts, pt))
        numeric = np.empty(3)
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = potential_at(geometry, volts, np.asarray(pt) + step)
            minus = potential_at(geometry, volts, np.asarray(pt) - step)
            numeric[k] = -(plus - minus) / (2 * h)
        err = np.abs(analytic - numeric)
        worst_grad = max(worst_grad, np.max(err / (np.abs(analytic) + 1e2)))

    rect = (0.0, 100e-6, 0.0, 200e-6)
    inside = rect_potential(rect, (50e-6, 100e-6, 1e-9))
    outside = rect_potential(rect, (150e-6, 100e-6, 1e-9))
    indicator_ok = abs(inside - 1.0) < 1e-3 and abs(outside) < 1e-3

    ok = worst_phi < 1e-6 and worst_grad < 1e-6 and indicator_ok
    _verdict(8, ok, f"potential vs quadrature {worst_phi:.1e}, gradient vs central "
                    f"difference {worst_grad:.1e}, boundary indicator")


def test_acceptance_09_trap_physics():
    from trapqa.electrostatics import find_rf_minima, paper_trap_geometry, secular_frequencies

    t0 = time.perf_counter()
    geometry = paper_trap_geometry()
    drive = DriveParams.from_mhz(120.0, 17.0)
    minima = find_rf_minima(geometry, CA40, drive, ((-150e-6, 150e-6), (40e-6, 250e-6)))

    ok = len(minima) == 2
    radial_ok = True
    for m in minima:
        ok = ok and 100e-6 <= m.height <= 150e-6  # 125 um +- 20%
        modes = secular_frequencies(geometry, CA40, drive, {}, m.position)
        radial = sorted(abs(f) for f in modes.frequencies_hz)[1:]
        radial_ok = radial_ok and modes.stable and all(
            2.08e6 <= f <= 3.12e6 for f in radial  # 2.6 MHz +- 20%
        )
    if ok:
        sep = abs(minima[0].position[1] - minima[1].position[1])
        ok = 80e-6 <= sep <= 120e-6  # 100 um +- 20%
    elapsed = time.perf_counter() - t0
    ok = ok and radial_ok and elapsed < 60.0

    desc = "two RF nulls"
    if len(minima) == 2:
        desc = (f"heights {minima[0].height*1e6:.1f}/{minima[1].height*1e6:.1f} um, "
                f"separation {abs(minima[0].position[1]-minima[1].position[1])*1e6:.1f} um, "
                f"radial modes in band ({elapsed:.1f} s)")
    _verdict(9, ok, desc)


# ----------------------------------------------------- 10-11: fits and inversions

def test_acceptance_10_heating_fit():
    from trapqa.heating import power_law_fit, site_rates

    recs = site_rates(10)
    fit = power_law_fit(
        [r.frequency_mhz for r in recs],
        [r.rate for r in recs],
        [r.sigma for r in recs],
    )
    bundled_ok = 1.5 <= fit.alpha <= 2.5 and np.isfinite(fit.sigma_alpha) and fit.sigma_alpha > 0

    f = np.array([0.5, 0.8, 1.3, 2.1, 3.4])
    exact = power_law_fit(f, 12.0 * f**-2.0, 0.03 * 12.0 * f**-2.0)
    exact_ok = abs(exact.alpha - 2.0) <= 1e-6

    _verdict(10, bundled_ok and exact_ok,
             f"site 10 alpha={fit.alpha:.3f}+-{fit.sigma_alpha:.3f}; "
             f"exact omega^-2 alpha={exact.alpha:.8f}")


def test_acceptance_11_thermometry_round_trips():
    from trapqa.thermometry import (
        SENSOR_PRESETS,
        RTModel,
        fit_rt_curve,
        invert_temperature,
        model_resistance,
        sensitivity,
    )

    truth = RTModel(r_res=2000.0, amplitude=5100.0, theta=180.0)
    ts = np.logspace(np.log10(2.0), np.log10(300.0), 120)
    rs = model_resistance(truth, ts)

    clean = fit_rt_curve(ts, rs).model
    clean_ok = all(
        abs(got - want) <= 1e-3 * want
        for got, want in [(clean.r_res, truth.r_res), (clean.amplitude, truth.amplitude),
                          (clean.theta, truth.theta)]
    )

    rng = np.random.Generator(np.random.Philox(key=11))
    noisy = fit_rt_curve(ts, rs * (1.0 + 1e-3 * rng.standard_normal(ts.size))).model
    noisy_ok = all(
        abs(got - want) <= 0.02 * want
        for got, want in [(noisy.r_res, truth.r_res), (noisy.amplitude, truth.amplitude),
                          (noisy.theta, truth.theta)]
    )

    invert_ok = True
    for model in SENSOR_PRESETS.values():
        for t in (5.0, 10.0, 12.5, 77.0, 295.0):
            t_back, _ = invert_temperature(model, model_resistance(model, t))
            invert_ok = invert_ok and abs(t_back - t) <= 1e-3

    s1 = sensitivity(SENSOR_PRESETS["TS1"])
    s2 = sensitivity(SENSOR_PRESETS["TS2"])
    window_ok = abs(s1 - 2.5) <= 0.5 and abs(s2 - 1.0) <= 0.5

    _verdict(11, clean_ok and noisy_ok and invert_ok and window_ok,
             f"fit 0.1%/2% (clean/noisy), inversion <=1 mK, "
             f"sensitivities {s1:.2f}/{s2:.2f} ohm/K")


# ------------------------------------------------------- 12: position diagnosis

def test_acceptance_12_diagnosis_invariants():
    from trapqa.electrostatics import paper_trap_geometry

    geometry = paper_trap_geometry()
    well = {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0}
    window = (-300e-6, 300e-6)
    scales = (1.0, 2.0, 4.0)

    nominal = simulate_positions(geometry, well, FaultScenario(kind="NOMINAL"), scales, window)

    shorted = simulate_positions(
        geometry, well, FaultScenario(kind="SHORTED", electrode="DC19"), scales, window
    )
    spread = max(m.position for m in shorted) - min(m.position for m in shorted)
    invariant_ok = spread <= 0.1e-6

    # harmonic well of stiffness s*k plus a fixed force f: x*(s) = -f / (s k)
    k, f = 4.0e3, 1.0e-3
    slope_scales = np.array([1.0, 2.0, 4.0, 8.0])
    disp = [
        abs(equilibrium_position(
            lambda x, s=s: 0.5 * s * k * x**2 + f * x, window, tol=1e-12
        ).position)
        for s in slope_scales
    ]
    slope = np.polyfit(np.log(slope_scales), np.log(disp), 1)[0]
    slope_ok = abs(slope + 1.0) <= 1e-3

    battery = [
        ("NOMINAL", FaultScenario(kind="NOMINAL")),
        ("SHORTED", FaultScenario(kind="SHORTED", electrode="DC19")),
        ("SHORTED", FaultScenario(kind="SHORTED", electrode="DC54")),
        ("FLOATING_OR_CHARGE",
         FaultScenario(kind="FLOATING", electrode="DC19", held_voltage=-0.8)),
        ("FLOATING_OR_CHARGE",
         FaultScenario(kind="FLOATING", electrode="DC54", held_voltage=-1.2)),
        ("FLOATING_OR_CHARGE",
         FaultScenario(kind="GAP_CHARGE",
                       charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),),
                       charge_voltage=-2.0)),
    ]
    recovered = 0
    for want, scenario in battery:
        measured = simulate_positions(geometry, well, scenario, scales, window)
        dist = max(abs(m.position - n.position) for m, n in zip(measured, nominal))
        if want != "NOMINAL":
            assert dist >= 3 * POSITION_TOL, f"{scenario.kind} displacement below gate"
        if classify_fault(measured, nominal) == want:
            recovered += 1

    ok = invariant_ok and slope_ok and recovered == len(battery)
    _verdict(12, ok, f"short spread {spread*1e9:.0f} nm, 1/s slope {slope:.5f}, "
                     f"{recovered}/{len(battery)} classes recovered")


# ------------------------------------------------------------- 13: determinism

def test_acceptance_13_determinism(tmp_path):
    artifacts = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        rc_map = cli_main([
            "--seed", "31415", "yieldmap",
            "--out-svg", str(d / "wafer.svg"),
            "--out-csv", str(d / "wafer.csv"),
            "--out-stats", str(d / "wafer.json"),
        ])
        rc_test = cli_main([
            "wafertest", "--out", str(d / "steps.csv"), "--summary", str(d / "run.json"),
        ])
        rc_diss = cli_main(["dissipation", "--out", str(d / "power.csv")])
        files = ["wafer.svg", "wafer.csv", "wafer.json", "steps.csv", "run.json", "power.csv"]
        artifacts[tag] = ((rc_map, rc_test, rc_diss),
                          [(name, (d / name).read_bytes()) for name in files])
    ok = artifacts["first"] == artifacts["second"]
    _verdict(13, ok, "seeded CLI runs produce byte-identical SVG/CSV/JSON artifacts")

"""Command line front end.

Every command is deterministic: stochastic commands draw all randomness from
``--seed`` through a counter-based generator (Philox), so identical
invocations produce byte-identical artifacts. Output files are written
atomically.

Exit codes: 0 when the analysis ran and found nothing wrong, 1 when it ran
and detected a failure condition (failed chip, flagged spatial defect,
non-nominal fault class, out-of-range readout), 2 for usage or input errors.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import dissipation as dis
from . import heating as heat
from . import thermometry as thermo
from . import wafertest as wt
from . import yieldmap as ym
from ._io import atomic_write_text, dump_json
from .core import CA40, DriveParams
from .diagnosis import (
    FaultScenario,
    PositionMeasurement,
    classify_fault,
    simulate_positions,
)
from .electrostatics import (
    field_at,
    load_geometry,
    paper_trap_geometry,
    potential_at,
    stray_field,
)

__all__ = ["main"]

DEFAULT_SEED = 20260819


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _geometry(arg: str):
    if arg == "builtin":
        return paper_trap_geometry()
    return load_geometry(arg)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# ---------------------------------------------------------------- dissipation


def _cmd_dissipation(args) -> int:
    drive_omega = 2.0 * np.pi * args.freq_mhz * 1e6
    rows = dis.dissipation_report(v0=args.v0, omega=drive_omega)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["trap", "temperature_K", "p_ohmic_mW", "p_diel_mW", "p_total_mW", "p_exact_mW", "rel_error"]
    )
    for r in rows:
        w.writerow(
            [
                r.name,
                _fmt(r.temperature),
                _fmt(r.p_ohmic * 1e3),
                _fmt(r.p_diel * 1e3),
                _fmt(r.p_total * 1e3),
                _fmt(r.p_exact * 1e3),
                _fmt(r.rel_error),
            ]
        )
    text = buf.getvalue()
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- wafertest


def _cmd_wafertest(args) -> int:
    netlist = wt.load_netlist(args.netlist) if args.netlist else wt.default_netlist()
    faults = wt.load_faults(args.faults) if args.faults else ()
    result = wt.run_chip(netlist, faults)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step_index", "net", "test_kind", "forced", "measured_V", "measured_I", "verdict"])
    for rec in result.log:
        w.writerow(
            [rec.index, rec.net, rec.test_kind, _fmt(rec.forced), _fmt(rec.measured_v), _fmt(rec.measured_i), rec.verdict]
        )
    atomic_write_text(args.out, buf.getvalue())
    if args.summary:
        atomic_write_text(
            args.summary,
            dump_json(
                {
                    "outcome": result.outcome,
                    "steps_executed": result.steps_executed,
                    "plan_steps": len(wt.build_plan(netlist)),
                    "elapsed_s": result.elapsed_s,
                }
            ),
        )
    return 0 if result.passed else 1


# ------------------------------------------------------------------ yieldmap


def _parse_cell_boost(spec: str):
    cx, cy, code, rate = spec.split(",")
    return (int(cx), int(cy)), code, float(rate)


def _parse_edge_boost(spec: str):
    code, rate, frac = spec.split(",")
    return code, float(rate), float(frac)


def _cmd_yieldmap(args) -> int:
    layout = ym.DEFAULT_LAYOUT
    sites = ym.layout_wafer(layout)
    rng = _rng(args.seed)
    # Defaults chosen so the expected pass fraction is ~0.54, the measured
    # full-wafer yield of the reference lot.
    rates = _load_json(args.rates) if args.rates else {
        "CONTINUITY_FAIL": 0.20,
        "LEAK_DC_DC": 0.22,
        "LEAK_DC_GND": 0.09,
        "LEAK_DC_RF": 0.05,
    }
    cell_boost = _parse_cell_boost(args.plant_cell) if args.plant_cell else None
    edge_boost = _parse_edge_boost(args.plant_edge) if args.plant_edge else None
    outcomes = ym.synthesize_outcomes(
        sites, rng, base_rates=rates, cell_boost=cell_boost, edge_boost=edge_boost, layout=layout
    )

    stats = ym.yield_stats(outcomes)
    cells = ym.reticle_periodicity(sites, outcomes)
    edge = ym.edge_concentration(sites, outcomes, layout=layout)
    flagged_cells = [c.cell for c in cells if c.flagged]

    atomic_write_text(
        args.out_svg,
        ym.render_svg(sites, outcomes, layout=layout, flagged_cells=flagged_cells),
    )
    atomic_write_text(args.out_csv, ym.render_csv(sites, outcomes))
    if args.out_stats:
        defects = ym.infer_defects(stats.yield_fraction, stats.total)
        atomic_write_text(
            args.out_stats,
            dump_json(
                {
                    "total": stats.total,
                    "passed": stats.passed,
                    "yield_fraction": stats.yield_fraction,
                    "code_counts": dict(stats.code_counts),
                    "defects_total": defects.total_defects,
                    "defects_per_step": defects.per_step,
                    "flagged_cells": [list(c) for c in flagged_cells],
                    "edge": {
                        "z": edge.z,
                        "p_value": edge.p_value,
                        "flagged": edge.flagged,
                    },
                }
            ),
        )
    return 1 if (flagged_cells or edge.flagged) else 0


# --------------------------------------------------------------------- field


def _parse_axis(spec: str):
    lo, hi, n = spec.split(":")
    return float(lo) * 1e-6, float(hi) * 1e-6, int(n)


def _cmd_field(args) -> int:
    geometry = _geometry(args.geometry)
    if args.voltages:
        voltages = {k: float(v) for k, v in _load_json(args.voltages).items()}
    else:
        voltages = {i: args.rf_volts for i in geometry.ids(role="rf")}
    xs = np.linspace(*_parse_axis(args.x)) if args.x else np.array([0.0])
    ys = np.linspace(*_parse_axis(args.y)) if args.y else np.array([0.0])
    zs = np.linspace(*_parse_axis(args.z)) if args.z else np.array([100e-6])
    pts = np.array([(x, y, z) for x in xs for y in ys for z in zs])
    phi = np.atleast_1d(potential_at(geometry, voltages, pts))
    e = np.atleast_2d(field_at(geometry, voltages, pts))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x_um", "y_um", "z_um", "phi_V", "Ex_V_per_m", "Ey_V_per_m", "Ez_V_per_m"])
    for p, f, ev in zip(pts, phi, e):
        w.writerow(
            [_fmt(p[0] * 1e6), _fmt(p[1] * 1e6), _fmt(p[2] * 1e6), _fmt(f), _fmt(ev[0]), _fmt(ev[1]), _fmt(ev[2])]
        )
    atomic_write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------- strayfield


def _cmd_strayfield(args) -> int:
    geometry = _geometry(args.geometry)
    applied = {k: float(v) for k, v in _load_json(args.applied).items()}
    reference = {k: float(v) for k, v in _load_json(args.reference).items()}
    point = np.array([float(c) * 1e-6 for c in args.point.split(",")])
    if point.shape != (3,):
        raise ValueError(f"--point needs x,y,z in um, got {args.point!r}")
    e = stray_field(geometry, applied, reference, point)
    atomic_write_text(
        args.out,
        dump_json(
            {
                "point_um": [c * 1e6 for c in point],
                "E_stray_V_per_m": list(e),
                "magnitude_V_per_m": float(np.linalg.norm(e)),
            }
        ),
    )
    return 0


# ------------------------------------------------------------------ diagnose


def _cmd_diagnose(args) -> int:
    spec = _load_json(args.scenario)
    geometry = _geometry(spec.get("geometry", "builtin"))
    voltages = {k: float(v) for k, v in spec["voltages"].items()}
    scales = [float(s) for s in spec.get("scales", [1.0, 2.0, 4.0])]
    window = tuple(float(v) * 1e-6 for v in spec["window_um"])
    axis = spec.get("axis_um")
    if axis is not None:
        axis = (float(axis["y"]) * 1e-6, float(axis["z"]) * 1e-6)

    nominal = simulate_positions(
        geometry, voltages, FaultScenario(kind="NOMINAL"), scales, window, axis=axis
    )

    if args.measurements:
        measured = []
        with open(args.measurements, "r", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                measured.append(
                    PositionMeasurement(
                        scale=float(rec["scale"]), position=float(rec["position_um"]) * 1e-6
                    )
                )
    else:
        fault = spec.get("fault")
        if fault is None:
            raise ValueError("scenario has no 'fault'; give one or pass --measurements")
        scenario = FaultScenario(
            kind=fault["kind"],
            electrode=fault.get("electrode"),
            held_voltage=float(fault.get("held_voltage", 0.0)),
            charge_rects=tuple(
                tuple(float(c) * 1e-6 for c in r) for r in fault.get("charge_rects_um", [])
            ),
            charge_voltage=float(fault.get("charge_voltage", 0.0)),
        )
        measured = simulate_positions(geometry, voltages, scenario, scales, window, axis=axis)

    label = classify_fault(measured, nominal)
    atomic_write_text(
        args.out,
        dump_json(
            {
                "classification": label,
                "scales": scales,
                "nominal_positions_um": [m.position * 1e6 for m in nominal],
                "measured_positions_um": [m.position * 1e6 for m in measured],
            }
        ),
    )
    return 0 if label == "NOMINAL" else 1


# -------------------------------------------------------------------- thermo


def _cmd_thermo(args) -> int:
    if args.preset:
        model = thermo.SENSOR_PRESETS[args.preset]
        fit_info = {"preset": args.preset}
    else:
        if not args.calibration:
            raise ValueError("thermo needs --preset or --calibration")
        t, r, s = [], [], []
        with open(args.calibration, "r", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                t.append(float(rec["T_K"]))
                r.append(float(rec["R_ohm"]))
                if "sigma_ohm" in rec and rec["sigma_ohm"]:
                    s.append(float(rec["sigma_ohm"]))
        fit = thermo.fit_rt_curve(t, r, sigma=s if s else None)
        model = fit.model
        fit_info = {"chi2": fit.chi2, "dof": fit.dof}

    out = {
        "model": {"r_res": model.r_res, "amplitude": model.amplitude, "theta": model.theta},
        "sensitivity_10_15_K": thermo.sensitivity(model),
        **fit_info,
    }
    code = 0
    if args.resistance is not None:
        try:
            t_read, sigma_t = thermo.invert_temperature(
                model, args.resistance, meter_resolution=args.meter_resolution
            )
            out["readout"] = {"T_K": t_read, "sigma_T_K": sigma_t}
        except ValueError as exc:
            out["readout"] = {"error": str(exc)}
            code = 1
    atomic_write_text(args.out, dump_json(out))
    return code


# ------------------------------------------------------------------- heating


def _cmd_heating(args) -> int:
    if args.csv:
        records = []
        with open(args.csv, "r", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                records.append(
                    heat.HeatingRecord(
                        site=int(rec.get("site", 0)),
                        frequency_mhz=float(rec["frequency_mhz"]),
                        rate=float(rec["rate_quanta_per_s"]),
                        sigma=float(rec["sigma_quanta_per_s"]),
                    )
                )
        if args.site is not None:
            records = [r for r in records if r.site == args.site]
    else:
        records = list(heat.site_rates(args.site if args.site is not None else 10))
    if len(records) < 3:
        raise ValueError(f"power-law fit needs at least 3 records, got {len(records)}")
    fit = heat.power_law_fit(
        [r.frequency_mhz for r in records],
        [r.rate for r in records],
        [r.sigma for r in records],
    )
    atomic_write_text(
        args.out,
        dump_json(
            {
                "n_points": len(records),
                "alpha": fit.alpha,
                "sigma_alpha": fit.sigma_alpha,
                "amplitude_at_1MHz": fit.amplitude,
                "chi2": fit.chi2,
                "dof": fit.dof,
            }
        ),
    )
    return 0


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapqa",
        description="Fabrication QA and characterization tools for surface ion traps.",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for all randomness (default fixed)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dissipation", help="RF power loss of the bundled trap builds")
    p.add_argument("--v0", type=float, default=dis.DEFAULT_DRIVE_V0, help="drive amplitude (V)")
    p.add_argument("--freq-mhz", type=float, default=22.0, help="drive frequency (MHz)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_dissipation)

    p = sub.add_parser("wafertest", help="run the simulated chip test plan")
    p.add_argument("--netlist", help="netlist JSON (default: bundled 480-step netlist)")
    p.add_argument("--faults", help="fault-set JSON to plant")
    p.add_argument("--out", required=True, help="step log CSV path")
    p.add_argument("--summary", help="summary JSON path")
    p.set_defaults(func=_cmd_wafertest)

    p = sub.add_parser("yieldmap", help="synthesize a wafer, analyze spatial defects, render maps")
    p.add_argument("--rates", help="JSON of code -> uniform failure rate")
    p.add_argument("--plant-cell", help="cx,cy,CODE,rate: boost one reticle cell")
    p.add_argument("--plant-edge", help="CODE,rate,annulus_fraction: boost wafer edge")
    p.add_argument("--out-svg", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-stats")
    p.set_defaults(func=_cmd_yieldmap)

    p = sub.add_parser("field", help="scan potential and field on a grid")
    p.add_argument("--geometry", default="builtin", help="geometry JSON or 'builtin'")
    p.add_argument("--voltages", help="JSON electrode -> volts (default: RF at --rf-volts)")
    p.add_argument("--rf-volts", type=float, default=1.0)
    p.add_argument("--x", help="lo:hi:n in um (default single 0)")
    p.add_argument("--y", help="lo:hi:n in um (default single 0)")
    p.add_argument("--z", help="lo:hi:n in um (default single 100)")
    p.add_argument("--out", required=True, help="scan CSV path")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("strayfield", help="stray field from compensation settings")
    p.add_argument("--geometry", default="builtin")
    p.add_argument("--applied", required=True, help="JSON electrode -> applied volts")
    p.add_argument("--reference", required=True, help="JSON electrode -> ideal volts")
    p.add_argument("--point", required=True, help="x,y,z in um")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_strayfield)

    p = sub.add_parser("diagnose", help="classify electrode faults from ion positions")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--measurements", help="CSV scale,position_um of measured positions")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("thermo", help="fit R(T) calibration or read back a temperature")
    p.add_argument("--calibration", help="CSV T_K,R_ohm[,sigma_ohm]")
    p.add_argument("--preset", choices=sorted(thermo.SENSOR_PRESETS), help="use a bundled model")
    p.add_argument("--resistance", type=float, help="invert this resistance (ohm)")
    p.add_argument("--meter-resolution", type=float, default=1.0, help="meter resolution (ohm)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("heating", help="power-law fit of heating rates vs mode frequency")
    p.add_argument("--site", type=int, help="trap site (default 10)")
    p.add_argument("--csv", help="heating CSV (default: bundled table)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_heating)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        parser.exit(2, f"trapqa: input not found: {exc.filename}\n")
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        parser.exit(2, f"trapqa: bad input: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Every command is deterministic: stochastic commands draw all randomness from
``--seed`` through a counter-based generator (Philox), so identical
invocations produce byte-identical artifacts. Output files are written
atomically.

Exit codes: 0 when the analysis ran and found nothing wrong, 1 when it ran
and detected a failure condition (failed chip, flagged spatial defect,
non-nominal fault class, out-of-range readout), 2 for usage or input errors
(an unreadable input or unwritable output path included), 3 for an
unexpected error, with its traceback.
"""

import argparse
import math
import sys

from ._io import as_list, as_number, as_object, as_text, atomic_write_text, csv_text, dump_json
from ._io import UnknownName, read_csv, read_json

# Each command imports the analysis modules it runs inside its own function,
# so a process pays only for the modules of the command it runs.

__all__ = ["main"]

DEFAULT_SEED = 20260819

# Parser defaults and choices that live in analysis modules, repeated here so
# that building the parser imports none of them; tests/test_cli.py checks
# them against dissipation.DEFAULT_DRIVE_V0 and thermometry.SENSOR_PRESETS.
DRIVE_V0 = 160.0
SENSOR_PRESET_NAMES = ("TS1", "TS2")

# Options whose value may start with "-" (a negative coordinate); argparse
# would take such a value for an option (see _join_signed).
SIGNED_OPTIONS = ("--x", "--y", "--z", "--point", "--plant-cell", "--plant-edge")


def _rng(seed: int) -> "np.random.Generator":
    import numpy as np

    if not 0 <= seed < 2**128:  # the range of a Philox key
        raise ValueError(f"--seed needs a whole number in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _voltage_map(data, what: str, geometry) -> dict:
    """Electrode id -> volts from a JSON object of finite numbers; any other
    shape, and an electrode ``geometry`` lacks, is refused naming it."""
    return {
        geometry.electrode(electrode).id: as_number(v, f"voltage of electrode {electrode!r}")
        for electrode, v in as_object(data, what).items()
    }


def _geometry(arg: str):
    from .electrostatics import load_geometry, paper_trap_geometry

    if arg == "builtin":
        return paper_trap_geometry()
    return load_geometry(arg)


def _finite_float(text: str) -> float:
    """argparse type for a number option: a float, refused unless finite."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _positive_float(text: str) -> float:
    """argparse type for a number option that must be finite and above zero."""
    x = _finite_float(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"must be above zero: {text!r}")
    return x


def _fields(option: str, spec: str, form: str, *types) -> tuple:
    """The value ``spec`` of ``option``, split at the separator of ``form``
    (``:`` if it has one, else ``,``) into one field per type in ``types``;
    any other shape is refused naming the option and its form."""
    parts = spec.split(":" if ":" in form else ",")
    try:
        if len(parts) == len(types):
            return tuple(t(p) for t, p in zip(types, parts))
    except ValueError:
        pass
    raise ValueError(f"{option} needs {form}, got {spec!r}")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# ---------------------------------------------------------------- dissipation


def _cmd_dissipation(args) -> int:
    from . import dissipation as dis

    drive_omega = 2.0 * math.pi * args.freq_mhz * 1e6
    rows = dis.dissipation_report(v0=args.v0, omega=drive_omega)
    text = csv_text(
        ["trap", "temperature_K", "p_ohmic_mW", "p_diel_mW", "p_total_mW", "p_exact_mW", "rel_error"],
        (
            [r.name, *map(_fmt, (r.temperature, r.p_ohmic * 1e3, r.p_diel * 1e3, r.p_total * 1e3,
                                 r.p_exact * 1e3, r.rel_error))]
            for r in rows
        ),
    )
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- wafertest


def _cmd_wafertest(args) -> int:
    from . import wafertest as wt

    netlist = wt.load_netlist(args.netlist) if args.netlist else wt.default_netlist()
    faults = wt.load_faults(args.faults) if args.faults else ()
    result = wt.run_chip(netlist, faults)
    atomic_write_text(
        args.out,
        csv_text(
            ["step_index", "net", "test_kind", "forced", "measured_V", "measured_I", "verdict"],
            (
                [r.index, r.net, r.test_kind, _fmt(r.forced), _fmt(r.measured_v), _fmt(r.measured_i), r.verdict]
                for r in result.log
            ),
        ),
    )
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


def _cmd_yieldmap(args) -> int:
    from . import yieldmap as ym

    layout = ym.DEFAULT_LAYOUT
    sites = ym.layout_wafer(layout)
    rng = _rng(args.seed)
    # Defaults chosen so the expected pass fraction is ~0.54, the measured
    # full-wafer yield of the reference lot.
    rates = read_json(args.rates) if args.rates else {
        "CONTINUITY_FAIL": 0.20,
        "LEAK_DC_DC": 0.22,
        "LEAK_DC_GND": 0.09,
        "LEAK_DC_RF": 0.05,
    }
    cell_boost = edge_boost = None
    if args.plant_cell is not None:
        cx, cy, code, rate = _fields("--plant-cell", args.plant_cell, "cx,cy,CODE,rate", int, int, str, float)
        cell_boost = (cx, cy), code, rate
    if args.plant_edge is not None:
        edge_boost = _fields("--plant-edge", args.plant_edge, "CODE,rate,annulus_fraction", str, float, float)
    outcomes = ym.synthesize_outcomes(
        sites, rng, base_rates=rates, cell_boost=cell_boost, edge_boost=edge_boost, layout=layout
    )

    stats = ym.yield_stats(outcomes)
    if args.out_stats and not stats.passed:
        raise ValueError("no chip passed, so --out-stats has no defect estimate: it needs a yield above zero")
    defects = ym.infer_defects(stats.yield_fraction, stats.total) if args.out_stats else None
    cells = ym.reticle_periodicity(sites, outcomes)
    edge = ym.edge_concentration(sites, outcomes, layout=layout)
    flagged_cells = [c.cell for c in cells if c.flagged]

    atomic_write_text(
        args.out_svg,
        ym.render_svg(sites, outcomes, layout=layout, flagged_cells=flagged_cells),
    )
    atomic_write_text(args.out_csv, ym.render_csv(sites, outcomes))
    if args.out_stats:
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


def _axis(option: str, spec: str | None, default: float) -> "np.ndarray":
    """The points of an axis option ``lo:hi:n`` in um, in m; without the
    option, the one point ``default``."""
    import numpy as np

    if spec is None:
        return np.array([default])
    lo, hi, n = _fields(option, spec, "lo:hi:n in um", float, float, int)
    if n < 1:
        raise ValueError(f"{option} {spec!r} needs lo:hi:n with n >= 1 points")
    return np.linspace(lo * 1e-6, hi * 1e-6, n)


def _cmd_field(args) -> int:
    import numpy as np

    from .electrostatics import field_at, potential_at

    geometry = _geometry(args.geometry)
    if args.voltages:
        voltages = _voltage_map(read_json(args.voltages), "--voltages", geometry)
    else:
        voltages = {i: args.rf_volts for i in geometry.ids(role="rf")}
    axes = _axis("--x", args.x, 0.0), _axis("--y", args.y, 0.0), _axis("--z", args.z, 100e-6)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    phi = potential_at(geometry, voltages, pts)
    e = field_at(geometry, voltages, pts)
    atomic_write_text(
        args.out,
        csv_text(
            ["x_um", "y_um", "z_um", "phi_V", "Ex_V_per_m", "Ey_V_per_m", "Ez_V_per_m"],
            (list(map(_fmt, (*p * 1e6, f, *ev))) for p, f, ev in zip(pts, phi, e)),
        ),
    )
    return 0


# ---------------------------------------------------------------- strayfield


def _cmd_strayfield(args) -> int:
    import numpy as np

    from .electrostatics import stray_field

    geometry = _geometry(args.geometry)
    applied = _voltage_map(read_json(args.applied), "--applied", geometry)
    reference = _voltage_map(read_json(args.reference), "--reference", geometry)
    point = np.array(_fields("--point", args.point, "x,y,z in um", float, float, float)) * 1e-6
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
    from .diagnosis import FaultScenario, PositionMeasurement, classify_fault, simulate_positions

    spec = as_object(
        read_json(args.scenario), "a scenario", {"geometry", "voltages", "scales", "window_um", "axis_um", "fault"}
    )
    geometry = _geometry(as_text(spec.get("geometry", "builtin"), "scenario 'geometry'"))
    voltages = _voltage_map(spec["voltages"], "scenario 'voltages'", geometry)
    scales = as_list(spec.get("scales", [1.0, 2.0, 4.0]), "scenario 'scales'")
    scales = [as_number(s, "scenario 'scales'") for s in scales]
    window = tuple(
        as_number(v, "scenario 'window_um'") * 1e-6 for v in as_list(spec["window_um"], "scenario 'window_um'", 2)
    )
    axis = spec.get("axis_um")
    if axis is not None:
        axis = as_object(axis, "scenario 'axis_um'", {"y", "z"})
        axis = tuple(as_number(axis[c], f"scenario 'axis_um' {c}") * 1e-6 for c in ("y", "z"))
    elif geometry.ion_axis is None:
        raise ValueError("the geometry has no ion_axis; give scenario 'axis_um'")

    nominal = simulate_positions(
        geometry, voltages, FaultScenario(kind="NOMINAL"), scales, window, axis=axis
    )

    if args.measurements:
        with open(args.measurements, "r", encoding="utf-8") as fh:
            rows = read_csv(fh, "--measurements", ("scale", "position_um"))
        measured = [PositionMeasurement(r["scale"], r["position_um"] * 1e-6) for r in rows]
    else:
        fault = spec.get("fault")
        if fault is None:
            raise ValueError("scenario has no 'fault'; give one or pass --measurements")
        fault = as_object(
            fault, "scenario 'fault'", {"kind", "electrode", "held_voltage", "charge_rects_um", "charge_voltage"}
        )
        electrode = as_text(fault.get("electrode"), "fault 'electrode'", optional=True)
        rects = as_list(fault.get("charge_rects_um", []), "fault 'charge_rects_um'")
        scenario = FaultScenario(
            kind=as_text(fault["kind"], "fault 'kind'"),
            electrode=None if electrode is None else geometry.electrode(electrode).id,
            held_voltage=as_number(fault.get("held_voltage", 0.0), "fault 'held_voltage'"),
            charge_rects=tuple(
                tuple(as_number(c, "fault 'charge_rects_um'") * 1e-6 for c in as_list(r, "a charge rectangle", 4))
                for r in rects
            ),
            charge_voltage=as_number(fault.get("charge_voltage", 0.0), "fault 'charge_voltage'"),
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
    from . import thermometry as thermo

    if args.preset:
        model = thermo.SENSOR_PRESETS[args.preset]
        fit_info = {"preset": args.preset}
    else:
        if not args.calibration:
            raise ValueError("thermo needs --preset or --calibration")
        with open(args.calibration, "r", encoding="utf-8") as fh:
            rows = read_csv(fh, "--calibration", ("T_K", "R_ohm"), ("sigma_ohm",))
        s = [r["sigma_ohm"] for r in rows if r["sigma_ohm"] is not None]
        if 0 < len(s) < len(rows):
            raise ValueError(f"--calibration: sigma_ohm is on {len(s)} of {len(rows)} rows; give it on all rows or none")
        fit = thermo.fit_rt_curve([r["T_K"] for r in rows], [r["R_ohm"] for r in rows], sigma=s if s else None)
        model = fit.model
        fit_info = {"chi2": fit.chi2, "dof": fit.dof, "fit_status": fit.status, "fit_nfev": fit.nfev}

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
    from . import heating as heat

    # without --site, a --csv table is fitted whole and the bundled one at site 10
    site = 10 if args.site is None and not args.csv else args.site
    records = [r for r in heat.load_heating_table(args.csv) if site is None or r.site == site]
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
    p.add_argument("--v0", type=_positive_float, default=DRIVE_V0, help="drive amplitude (V)")
    p.add_argument("--freq-mhz", type=_positive_float, default=22.0, help="drive frequency (MHz)")
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
    p.add_argument("--rf-volts", type=_finite_float, default=1.0)
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--calibration", help="CSV T_K,R_ohm[,sigma_ohm]")
    source.add_argument("--preset", choices=SENSOR_PRESET_NAMES, help="use a bundled model")
    p.add_argument("--resistance", type=_finite_float, help="invert this resistance (ohm)")
    p.add_argument(
        "--meter-resolution", type=_positive_float, default=1.0, help="meter resolution (ohm)"
    )
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("heating", help="power-law fit of heating rates vs mode frequency")
    p.add_argument("--site", type=int, help="trap site (default 10)")
    p.add_argument("--csv", help="heating CSV (default: bundled table)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_heating)

    return parser


def _join_signed(argv: list[str]) -> list[str]:
    """``argv`` with each option of ``SIGNED_OPTIONS`` joined to its value,
    so that ``--x -100:100:20`` reads as ``--x=-100:100:20``; a next
    argument that starts with ``--`` is left to argparse as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in SIGNED_OPTIONS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UnknownName as exc:
        parser.exit(2, f"trapqa: bad input: {exc}\n")
    except KeyError as exc:  # a required key the input document lacks
        parser.exit(2, f"trapqa: bad input: missing key {exc}\n")
    except ValueError as exc:  # json.JSONDecodeError included
        parser.exit(2, f"trapqa: bad input: {exc}\n")
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # a path from the command line
            path = str(exc.filename)  # or from a document, where it may hold a newline
            parser.exit(2, f"trapqa: cannot use {path if path.isprintable() else repr(path)}: {exc.strerror}\n")
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

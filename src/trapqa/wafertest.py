"""Needle-card electrical test of a trap chip, simulated.

The test plan walks a fixed sequence of four phases and aborts at the first
failing step:

1. **Continuity** on every bond-pad loop: force 1 mA, the voltage must stay
   in the 0..100 mV window and the current in 0.8..1.3 mA. An open loop
   drives the current source into its 10 V compliance.
2. **Leakage** (twice): every electrode bond pad is sensed individually
   while 50 V DC is applied to all other electrodes and the ground plane;
   the sensed current must not exceed 100 nA and the sense voltage must stay
   within +-100 mV. One extra configuration per pass stresses the RF line at
   300 V while sensing the leak current it drives. The pass is repeated to
   catch marginal and intermittent paths.
3. **Resistance**: force 5 mV across each net and check the measured
   resistance band: 0..50 ohm for DC and RF loops, the sensor-element bands
   for the two thermometers.

The bundled default netlist (70 DC loops, 6 compensation electrodes,
2 four-pad sensors, RF, ground) makes the plan exactly 480 steps long:
79 continuity + 2 x 161 leakage (152 DC-class pads + 8 sensor pads + 1 RF
stress) + 79 resistance. At 16.25 ms per step a defect-free chip completes
in 7.8 s.

Each executed step is logged as a ``StepRecord``, a named tuple of the step
index, the net, the ``test_kind`` label, the forced value, the measured
voltage and current, and the verdict. ``build_plan`` fixes each step's label
once: ``CONTINUITY``, ``LEAKAGE_1`` / ``LEAKAGE_2`` and ``LEAKAGE_RF_1`` /
``LEAKAGE_RF_2`` for the two leakage passes, and ``RESISTANCE``.

Simulation is deterministic: nominal isolation is perfect, the meters read
the exact values, and every run is checked against the one table of pass
windows, ``DEFAULT_LIMITS``. A run depends on the netlist and the faults
alone.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ._io import UnknownName, as_int, as_list, as_number, as_object, as_objects, as_text, read_json

__all__ = [
    "Net",
    "ChipNetlist",
    "Fault",
    "TestLimits",
    "TestStep",
    "StepRecord",
    "ChipResult",
    "DEFAULT_LIMITS",
    "default_netlist",
    "load_netlist",
    "netlist_from_dict",
    "load_faults",
    "faults_from_dict",
    "build_plan",
    "simulate_step",
    "run_chip",
    "FAILURE_CODES",
]

FAILURE_CODES = (
    "HW_FAIL",
    "CONTINUITY_FAIL",
    "LEAK_DC_DC",
    "LEAK_DC_RF",
    "LEAK_DC_GND",
    "LEAK_RF",
    "RES_FAIL_DC",
    "RES_FAIL_RF",
    "RES_FAIL_TS",
)

NET_ROLES = ("dc", "comp", "ts", "rf", "gnd")


@dataclass(frozen=True)
class Net:
    """One electrically testable net of the chip.

    ``loop_resistance`` is the bond-pad loop (pad, trace, electrode, trace,
    pad). Sensors additionally carry ``element_resistance``, the four-wire
    resistance of the sensing element itself, which is what the resistance
    phase measures for role ``ts``.
    """

    id: str
    role: str
    pads: tuple[str, ...]
    loop_resistance: float
    element_resistance: float | None = None

    def __post_init__(self):
        if self.role not in NET_ROLES:
            raise ValueError(f"net {self.id!r}: role must be one of {NET_ROLES}")
        if self.loop_resistance <= 0:
            raise ValueError(f"net {self.id!r}: loop_resistance must be positive")
        if self.role == "ts":
            if self.element_resistance is None or self.element_resistance <= 0:
                raise ValueError(f"sensor net {self.id!r} needs element_resistance > 0")
            if len(self.pads) != 4:
                raise ValueError(f"sensor net {self.id!r} needs 4 pads (Kelvin)")
        elif self.role != "gnd" and len(self.pads) < 2:
            raise ValueError(f"net {self.id!r} needs at least 2 pads")


@dataclass(frozen=True)
class ChipNetlist:
    """The nets of one chip design, immutable.

    The test plan and the fault-free run depend on the netlist alone, so
    each netlist object computes them once, on first use, and keeps them.
    """

    nets: tuple[Net, ...]
    name: str = ""
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ids = [n.id for n in self.nets]
        if len(set(ids)) != len(ids):
            raise ValueError("net ids must be unique")
        pads = [p for n in self.nets for p in n.pads]
        if len(set(pads)) != len(pads):
            raise ValueError("pad names must be unique across nets")
        object.__setattr__(self, "_index", {n.id: n for n in self.nets})

    def net(self, net_id: str) -> Net:
        try:
            return self._index[net_id]
        except KeyError:
            raise UnknownName(f"no net {net_id!r}") from None

    def ids(self, *roles: str) -> list[str]:
        """Net ids with any of the given roles (all if none given), ascending."""
        out = [n.id for n in self.nets if not roles or n.role in roles]
        return sorted(out)

    @functools.cached_property
    def _plan(self) -> tuple["TestStep", ...]:
        # what build_plan returns; a refusal raises again on every use
        steps = []

        def add(kind, net, pass_index=0, pad=None):
            label = f"{kind}_{pass_index}" if pass_index else kind
            steps.append(
                TestStep(index=len(steps), kind=kind, net=net, pass_index=pass_index, pad=pad, label=label)
            )

        loop_ids = self.ids("dc", "comp", "ts", "rf")
        for nid in loop_ids:
            add("CONTINUITY", nid)

        for pass_index in (1, 2):
            for nid in self.ids("dc", "comp", "rf", "ts"):
                net = self.net(nid)
                if net.role == "rf":
                    add("LEAKAGE_RF", nid, pass_index)
                else:
                    for pad in net.pads:
                        add("LEAKAGE", nid, pass_index, pad=pad)

        for nid in loop_ids:
            add("RESISTANCE", nid)

        if not steps:
            raise ValueError("the netlist has no dc, comp, ts or rf net to test")
        return tuple(steps)

    @functools.cached_property
    def _clean_run(self) -> "ChipResult":
        # what run_chip returns without faults; an aborted run is kept as it aborted
        return _walk_plan(self, ())


@dataclass(frozen=True)
class Fault:
    """A planted electrical defect.

    Kinds: ``OPEN`` (net loop broken), ``SHORT`` (resistive path between two
    nets), ``LEAK_TO_GND`` (resistive path from a net to the ground plane),
    ``RESISTANCE_SHIFT`` (net resistances multiplied by ``factor``),
    ``HW_FAIL`` (instrument failure at plan step ``step_index``).
    """

    kind: str
    net: str | None = None
    other: str | None = None
    resistance: float = 0.0
    factor: float = 1.0
    step_index: int = -1

    def __post_init__(self):
        if self.kind == "OPEN":
            if not self.net:
                raise ValueError("OPEN needs a net")
        elif self.kind == "SHORT":
            if not (self.net and self.other) or self.net == self.other:
                raise ValueError("SHORT needs two distinct nets")
            if self.resistance <= 0:
                raise ValueError("SHORT needs a positive path resistance")
        elif self.kind == "LEAK_TO_GND":
            if not self.net or self.resistance <= 0:
                raise ValueError("LEAK_TO_GND needs a net and positive resistance")
        elif self.kind == "RESISTANCE_SHIFT":
            if not self.net or self.factor <= 0:
                raise ValueError("RESISTANCE_SHIFT needs a net and positive factor")
        elif self.kind == "HW_FAIL":
            if self.step_index < 0:
                raise ValueError("HW_FAIL needs a step_index >= 0")
        else:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @classmethod
    def open(cls, net: str) -> "Fault":
        return cls(kind="OPEN", net=net)

    @classmethod
    def short(cls, net: str, other: str, resistance: float) -> "Fault":
        return cls(kind="SHORT", net=net, other=other, resistance=resistance)

    @classmethod
    def leak_to_gnd(cls, net: str, resistance: float) -> "Fault":
        return cls(kind="LEAK_TO_GND", net=net, resistance=resistance)

    @classmethod
    def resistance_shift(cls, net: str, factor: float) -> "Fault":
        return cls(kind="RESISTANCE_SHIFT", net=net, factor=factor)

    @classmethod
    def hw_fail(cls, step_index: int) -> "Fault":
        return cls(kind="HW_FAIL", step_index=step_index)


@dataclass(frozen=True)
class TestLimits:
    """Instrument settings and pass windows for the four test phases.

    The first sensor (ascending id) is checked against the high resistance
    band, the second against the low one.
    """

    continuity_force: float = 1.0e-3
    continuity_v: tuple[float, float] = (0.0, 0.1)
    continuity_i: tuple[float, float] = (0.8e-3, 1.3e-3)
    leakage_bias_dc: float = 50.0
    leakage_bias_rf: float = 300.0
    leakage_i_max: float = 100e-9
    leakage_v_window: float = 0.1
    resistance_force: float = 5.0e-3
    loop_band: tuple[float, float] = (0.0, 50.0)
    ts_band_high: tuple[float, float] = (28.9e3, 35.7e3)
    ts_band_low: tuple[float, float] = (10.3e3, 11.3e3)
    compliance_v: float = 10.0
    step_time: float = 0.01625


DEFAULT_LIMITS = TestLimits()


@dataclass(frozen=True)
class TestStep:
    """One plan entry: a force/sense configuration with a pass window.

    ``label`` is the ``test_kind`` an executed step logs: the kind, with the
    pass appended for leakage steps (``LEAKAGE_2``, ``LEAKAGE_RF_1``).
    """

    index: int
    kind: str  # CONTINUITY | LEAKAGE | LEAKAGE_RF | RESISTANCE
    net: str
    pass_index: int = 0  # 1 or 2 for the two leakage passes
    pad: str | None = None  # sensed pad for per-pad leakage steps
    label: str = field(kw_only=True)


class StepRecord(NamedTuple):
    """Executed step: forced value, measured voltage/current, verdict.

    A tuple, not a dataclass: a plan walk builds one per executed step, and
    a named tuple is the cheapest immutable record to build.
    """

    index: int
    net: str
    test_kind: str
    forced: float
    measured_v: float
    measured_i: float
    verdict: str  # PASS or a failure code


@dataclass(frozen=True)
class ChipResult:
    outcome: str  # PASS or the failure code of the aborting step
    steps_executed: int
    elapsed_s: float
    log: tuple[StepRecord, ...]

    @property
    def passed(self) -> bool:
        return self.outcome == "PASS"


def default_netlist() -> ChipNetlist:
    """The bundled linear-trap netlist; its plan is exactly 480 steps.

    70 DC loops, 6 compensation loops, two Kelvin-connected sensors, an RF
    loop and the ground plane. Step arithmetic: 79 continuity + 2 passes x
    (152 DC/comp pads + 8 sensor pads + 1 RF stress) + 79 resistance = 480.
    """
    nets = []
    for k in range(1, 71):
        nets.append(
            Net(
                id=f"DC{k:02d}",
                role="dc",
                pads=(f"DC{k:02d}A", f"DC{k:02d}B"),
                loop_resistance=20.0,
            )
        )
    for k in range(1, 7):
        nets.append(
            Net(
                id=f"CP{k}",
                role="comp",
                pads=(f"CP{k}A", f"CP{k}B"),
                loop_resistance=20.0,
            )
        )
    nets.append(
        Net(
            id="TS1",
            role="ts",
            pads=("TS1A", "TS1B", "TS1C", "TS1D"),
            loop_resistance=15.0,
            element_resistance=32.3e3,
        )
    )
    nets.append(
        Net(
            id="TS2",
            role="ts",
            pads=("TS2A", "TS2B", "TS2C", "TS2D"),
            loop_resistance=15.0,
            element_resistance=10.8e3,
        )
    )
    nets.append(Net(id="RF", role="rf", pads=("RFA", "RFB"), loop_resistance=5.0))
    nets.append(Net(id="GND", role="gnd", pads=("GNDA",), loop_resistance=1.0))
    return ChipNetlist(nets=tuple(nets), name="linear_trap_480")


def netlist_from_dict(data: dict) -> ChipNetlist:
    """A netlist from ``{"name": ..., "nets": [{...}, ...]}``, resistances in ohm."""
    data = as_object(data, "a netlist")
    nets = tuple(
        Net(
            id=as_text(n["id"], f"{at} 'id'"),
            role=as_text(n["role"], f"{at} 'role'"),
            pads=tuple(as_text(p, f"{at} 'pads'") for p in as_list(n["pads"], f"{at} 'pads'")),
            # the ground plane is not probed as a loop; its resistance entry
            # is a placeholder and may be omitted in configs
            loop_resistance=as_number(
                n["loop_resistance_ohm"] if n["role"] != "gnd" else n.get("loop_resistance_ohm", 1.0),
                f"{at} 'loop_resistance_ohm'",
            ),
            element_resistance=(
                as_number(n["element_resistance_ohm"], f"{at} 'element_resistance_ohm'")
                if "element_resistance_ohm" in n else None
            ),
        )
        for at, n in as_objects(data["nets"], "'nets'", "net")
    )
    return ChipNetlist(nets=nets, name=as_text(data.get("name", ""), "netlist 'name'", optional=True))


def load_netlist(path) -> ChipNetlist:
    return netlist_from_dict(read_json(path))


def faults_from_dict(data: dict) -> tuple[Fault, ...]:
    """Faults from ``{"faults": [{...}, ...]}``; a missing list plants none.

    Any other shape or type, and a number that is not finite, raises
    ``ValueError`` naming the fault and the field.
    """
    return tuple(
        Fault(
            kind=as_text(f["kind"], f"{at} 'kind'"),
            net=as_text(f.get("net"), f"{at} 'net'", optional=True),
            other=as_text(f.get("other"), f"{at} 'other'", optional=True),
            resistance=as_number(f.get("resistance_ohm", 0.0), f"{at} 'resistance_ohm'"),
            factor=as_number(f.get("factor", 1.0), f"{at} 'factor'"),
            step_index=as_int(f.get("step_index", -1), f"{at} 'step_index'"),
        )
        for at, f in as_objects(as_object(data, "a fault set").get("faults", []), "'faults'", "fault")
    )


def load_faults(path) -> tuple[Fault, ...]:
    return faults_from_dict(read_json(path))


def build_plan(netlist: ChipNetlist) -> tuple[TestStep, ...]:
    """The four-phase plan, intra-phase order ascending by net id (then pad).

    The plan depends only on the (frozen) netlist, so it is built once per
    netlist object, and that object returns the same tuple of frozen steps
    to every caller. A netlist without a net to test raises ``ValueError``,
    on every call: its empty plan would pass every chip.
    """
    return netlist._plan


_SHORT_CODES = {"rf": "LEAK_DC_RF", "gnd": "LEAK_DC_GND"}


class _FaultIndex(NamedTuple):
    """A chip's faults, read once: what each net and step of the plan sees.

    ``leaks`` maps a net to its defect paths ``(path_resistance, code)`` in
    fault order; ``code`` is the failure code the path maps to when sensed
    from a DC-class net, set by the role of the path's other end.
    """

    hw_fail: frozenset
    open: frozenset
    shift: dict
    leaks: dict


def _index_faults(netlist: ChipNetlist, faults, plan_length: int) -> _FaultIndex:
    """Index ``faults`` in one pass, refusing those the chip cannot host.

    Unknown nets and an ``HW_FAIL`` past the plan raise ``ValueError``: left
    in, such a fault is never exercised and the chip would report a
    confident PASS, or fail on a lookup of the unknown net.
    """
    hw_fail, opens, shift, leaks = set(), set(), {}, {}
    for f in faults:
        if f.kind == "HW_FAIL":
            if f.step_index >= plan_length:
                raise ValueError(
                    f"HW_FAIL fault at step {f.step_index} is past the {plan_length}-step plan"
                )
            hw_fail.add(f.step_index)
            continue
        for net_id in (f.net, f.other) if f.kind == "SHORT" else (f.net,):
            if net_id not in netlist._index:
                raise ValueError(f"{f.kind} fault names net {net_id!r}, which is not in the netlist")
        if f.kind == "OPEN":
            opens.add(f.net)
        elif f.kind == "RESISTANCE_SHIFT":
            shift[f.net] = shift.get(f.net, 1.0) * f.factor
        elif f.kind == "LEAK_TO_GND":
            leaks[f.net] = leaks.get(f.net, ()) + ((f.resistance, "LEAK_DC_GND"),)
        else:  # SHORT: a path from each end, coded by the role of the other
            for net_id, other in ((f.net, f.other), (f.other, f.net)):
                code = _SHORT_CODES.get(netlist.net(other).role, "LEAK_DC_DC")
                leaks[net_id] = leaks.get(net_id, ()) + ((f.resistance, code),)
    return _FaultIndex(frozenset(hw_fail), frozenset(opens), shift, leaks)


def _in(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


def _ts_band(netlist: ChipNetlist, net_id: str) -> tuple[float, float]:
    bands = (DEFAULT_LIMITS.ts_band_high, DEFAULT_LIMITS.ts_band_low)
    return bands[netlist.ids("ts").index(net_id) % 2]


def simulate_step(netlist: ChipNetlist, faults, step: TestStep) -> StepRecord:
    """Execute one plan step against the fault set.

    ``faults`` is any iterable of ``Fault``; it is indexed and checked like
    ``run_chip`` does, so a fault the chip cannot host raises ``ValueError``.
    A plan walk passes the index it built once for the chip instead.
    """
    if not isinstance(faults, _FaultIndex):
        faults = _index_faults(netlist, faults, len(build_plan(netlist)))
    limits = DEFAULT_LIMITS
    net = netlist.net(step.net)
    shift = faults.shift.get(step.net, 1.0)
    is_open = step.net in faults.open
    paths = faults.leaks.get(step.net, ())

    if step.index in faults.hw_fail:
        forced = v = i = 0.0
        verdict = "HW_FAIL"

    elif step.kind == "CONTINUITY":
        forced = limits.continuity_force
        if is_open:
            v, i = limits.compliance_v, 0.0
        else:
            loop = net.loop_resistance * shift
            v_would = forced * loop
            if v_would >= limits.compliance_v:
                v, i = limits.compliance_v, limits.compliance_v / loop
            else:
                v, i = v_would, forced
        ok = _in(v, limits.continuity_v) and _in(i, limits.continuity_i)
        verdict = "PASS" if ok else "CONTINUITY_FAIL"

    elif step.kind in ("LEAKAGE", "LEAKAGE_RF"):
        forced = limits.leakage_bias_rf if step.kind == "LEAKAGE_RF" else limits.leakage_bias_dc
        i = sum(forced / r for r, _ in paths)
        v = 0.0  # sense node held at virtual ground
        if i <= limits.leakage_i_max and abs(v) <= limits.leakage_v_window:
            verdict = "PASS"
        elif step.kind == "LEAKAGE_RF":
            verdict = "LEAK_RF"
        else:
            # attribute the failure to the strongest defect path
            verdict = min(paths)[1] if paths else "LEAK_DC_DC"

    else:  # RESISTANCE
        forced = limits.resistance_force
        r_nominal = net.element_resistance if net.role == "ts" else net.loop_resistance
        i = 0.0 if is_open else forced / (r_nominal * shift)
        v = forced
        r_meas = v / i if i > 0 else math.inf
        if net.role == "ts":
            band = _ts_band(netlist, step.net)
            code = "RES_FAIL_TS"
        else:
            band = limits.loop_band
            code = "RES_FAIL_RF" if net.role == "rf" else "RES_FAIL_DC"
        verdict = "PASS" if _in(r_meas, band) else code

    return StepRecord(
        index=step.index,
        net=step.net,
        test_kind=step.label,
        forced=forced,
        measured_v=v,
        measured_i=i,
        verdict=verdict,
    )


def run_chip(netlist: ChipNetlist, faults=()) -> ChipResult:
    """Run the plan against one chip, aborting at the first failing step.

    ``steps_executed`` counts the aborting step itself, so a defect caught at
    the very first step reports 1. Elapsed time is the fixed per-step cost
    times the number of executed steps. Raises ``ValueError`` for a fault on
    a net the netlist lacks, an ``HW_FAIL`` step beyond the plan, or a
    netlist with no net to test.

    ``faults`` may be any iterable; it is read once, into one fault index
    that every step of the walk consults, and the walk calls
    ``simulate_step`` once per executed step. Without faults the result
    depends only on the netlist, so it is computed once per netlist object
    and the same immutable ``ChipResult`` is returned to every such call.
    """
    faults = tuple(faults)
    if not faults:
        return netlist._clean_run
    return _walk_plan(netlist, faults)


def _walk_plan(netlist: ChipNetlist, faults: tuple) -> ChipResult:
    plan = build_plan(netlist)
    index = _index_faults(netlist, faults, len(plan))
    log = []
    for step in plan:
        log.append(simulate_step(netlist, index, step))
        if log[-1].verdict != "PASS":
            break
    return ChipResult(
        outcome=log[-1].verdict,
        steps_executed=len(log),
        elapsed_s=len(log) * DEFAULT_LIMITS.step_time,
        log=tuple(log),
    )

"""Needle-card electrical test of a trap chip, simulated.

The test plan walks a fixed sequence of four phases and aborts at the first
failing step:

1. **Continuity** on every bond-pad loop: force 1 mA, the voltage must stay
   in the 0..100 mV window and the current in 0.8..1.3 mA. An open loop
   drives the source into its 10 V compliance, the most any step applies.
2. **Leakage** (twice): every electrode bond pad is sensed individually
   while 50 V DC is applied to all other electrodes and the ground plane;
   the sensed current must not exceed 100 nA and the sense voltage must stay
   within +-100 mV. One extra configuration per pass stresses the RF line at
   300 V while sensing the leak current it drives. The pass is repeated to
   catch marginal and intermittent paths.
3. **Resistance**: force 5 mV across each net and check the measured
   resistance band: 0..50 ohm for DC and RF loops, and for the sensing
   elements of the thermometers 28.9..35.7 kohm for the first sensor
   (ascending id) and 10.3..11.3 kohm for the second.

The bundled default netlist (70 DC loops, 6 compensation electrodes,
2 four-pad sensors, RF, ground) makes the plan exactly 480 steps long:
79 continuity + 2 x 161 leakage (152 DC-class pads + 8 sensor pads + 1 RF
stress) + 79 resistance. At 16.25 ms per step a defect-free chip completes
in 7.8 s.

The plan is data, and the one place the limits above live. ``build_plan``
reads the netlist once and writes each setting and pass window into the
steps it builds, so each ``TestStep`` carries its log label, forced value,
compliance, pass windows, failure code and nominal resistance.
``simulate_step`` applies the chip's faults to those values and judges the
result against the step's windows. Each executed step is logged as a
``StepRecord``: the step index, the net, the ``test_kind`` label, the forced
value, the measured voltage and current, and the verdict. A chip's
``ChipResult`` is that log; its outcome, step count and model time are read
off it.

Simulation is deterministic: nominal isolation is perfect and the meters
read the exact values. A run depends on the netlist and the faults alone.
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
    "TestStep",
    "StepRecord",
    "ChipResult",
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

_STEP_TIME = 0.01625  # s of model time per executed step


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
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"net ids must be unique: {repeated!r} is repeated")
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
        # the first sensor (ascending id) gets the high band, the second the low one
        sensor_bands = ((28.9e3, 35.7e3), (10.3e3, 11.3e3))
        ts_band = {nid: sensor_bands[k % 2] for k, nid in enumerate(self.ids("ts"))}
        continuity = ((0.0, 0.1), (0.8e-3, 1.3e-3))
        leakage = ((-0.1, 0.1), (-math.inf, 100e-9))
        steps = []

        def add(kind, net, forced, windows, code, pass_index=0, pad=None):
            element = kind == "RESISTANCE" and net.role == "ts"
            steps.append(
                TestStep(
                    index=len(steps), kind=kind, net=net.id, pass_index=pass_index, pad=pad,
                    label=f"{kind}_{pass_index}" if pass_index else kind,
                    forced=forced, compliance=10.0, windows=windows, code=code,
                    nominal=net.element_resistance if element else net.loop_resistance,
                )
            )

        loops = [self._index[nid] for nid in self.ids("dc", "comp", "ts", "rf")]
        for net in loops:
            add("CONTINUITY", net, 1.0e-3, continuity, "CONTINUITY_FAIL")

        for pass_index in (1, 2):
            for net in loops:
                if net.role == "rf":
                    add("LEAKAGE_RF", net, 300.0, leakage, "LEAK_RF", pass_index)
                else:
                    for pad in net.pads:
                        add("LEAKAGE", net, 50.0, leakage, "LEAK_DC_DC", pass_index, pad)

        for net in loops:
            band = ts_band[net.id] if net.role == "ts" else (0.0, 50.0)
            add("RESISTANCE", net, 5.0e-3, (band,), _RES_CODES.get(net.role, "RES_FAIL_DC"))

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
class TestStep:
    """One plan entry: a force/sense configuration with its pass windows.

    ``build_plan`` fills in, from the plan's limits and the netlist,
    ``label``, the ``test_kind`` an executed step logs (the kind, with the
    pass appended for leakage steps: ``LEAKAGE_2``, ``LEAKAGE_RF_1``), and
    what executing the step needs. ``windows`` are the inclusive pass windows
    of the measured voltage and current, ``((V_lo, V_hi), (I_lo, I_hi))``,
    or of the measured resistance, ``((R_lo, R_hi),)``. ``code`` is the
    verdict of a failing step; a failing per-pad leakage step with a defect
    path is named by its strongest path instead.
    """

    index: int
    kind: str  # CONTINUITY | LEAKAGE | LEAKAGE_RF | RESISTANCE
    net: str
    pass_index: int = 0  # 1 or 2 for the two leakage passes
    pad: str | None = None  # sensed pad for per-pad leakage steps
    label: str = field(kw_only=True)
    forced: float = field(kw_only=True)  # A for a continuity step, V for the others
    compliance: float = field(kw_only=True)  # V, the most the source can apply
    windows: tuple[tuple[float, float], ...] = field(kw_only=True)
    code: str = field(kw_only=True)
    nominal: float = field(kw_only=True)  # ohm: the sensor element for a ts resistance step, else the loop


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
    """A chip's test run: the log of its executed steps, up to and including
    the aborting step of a failing chip. The rest is read off the log:
    ``outcome`` is the last verdict (PASS or the aborting step's failure
    code), ``steps_executed`` the log's length, and ``elapsed_s`` the fixed
    per-step model time times that length.
    """

    log: tuple[StepRecord, ...]

    @property
    def outcome(self) -> str:
        return self.log[-1].verdict

    @property
    def steps_executed(self) -> int:
        return len(self.log)

    @property
    def elapsed_s(self) -> float:
        return len(self.log) * _STEP_TIME

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
    data = as_object(data, "a netlist", {"name", "nets"})
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
        for at, n in as_objects(
            data["nets"], "'nets'", "net", {"id", "role", "pads", "loop_resistance_ohm", "element_resistance_ohm"}
        )
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
        for at, f in as_objects(
            as_object(data, "a fault set", {"faults"}).get("faults", []),
            "'faults'",
            "fault",
            {"kind", "net", "other", "resistance_ohm", "factor", "step_index"},
        )
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
_RES_CODES = {"ts": "RES_FAIL_TS", "rf": "RES_FAIL_RF"}


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
                code = _SHORT_CODES.get(netlist._index[other].role, "LEAK_DC_DC")
                leaks[net_id] = leaks.get(net_id, ()) + ((f.resistance, code),)
    return _FaultIndex(frozenset(hw_fail), frozenset(opens), shift, leaks)


def simulate_step(netlist: ChipNetlist, faults, step: TestStep) -> StepRecord:
    """Execute one plan step against the fault set.

    The faults on the step's net act on the step's nominal values, and the
    result is judged against the step's windows. ``faults`` is any iterable
    of ``Fault``; it is indexed and checked like ``run_chip`` does, so a
    fault the chip cannot host raises ``ValueError``. A plan walk passes the
    index it built once for the chip instead.
    """
    if not isinstance(faults, _FaultIndex):
        faults = _index_faults(netlist, faults, len(build_plan(netlist)))
    net, forced, code = step.net, step.forced, step.code

    if step.index in faults.hw_fail:
        forced = v = i = 0.0
        ok, code = False, "HW_FAIL"

    elif step.kind == "RESISTANCE":
        i = 0.0 if net in faults.open else forced / (step.nominal * faults.shift.get(net, 1.0))
        v = forced
        ((r_lo, r_hi),) = step.windows
        ok = r_lo <= (v / i if i > 0 else math.inf) <= r_hi

    else:
        if step.kind == "CONTINUITY":
            if net in faults.open:
                v, i = step.compliance, 0.0
            else:
                loop = step.nominal * faults.shift.get(net, 1.0)
                v, i = forced * loop, forced
                if v >= step.compliance:
                    v, i = step.compliance, step.compliance / loop
        else:  # LEAKAGE, LEAKAGE_RF: the sense node is held at virtual ground
            paths = faults.leaks.get(net, ())
            v, i = 0.0, sum(forced / r for r, _ in paths)
            if paths and step.kind == "LEAKAGE":
                code = min(paths)[1]  # the strongest defect path names a pad's failure
        (v_lo, v_hi), (i_lo, i_hi) = step.windows
        ok = v_lo <= v <= v_hi and i_lo <= i <= i_hi

    return StepRecord(
        index=step.index, net=net, test_kind=step.label, forced=forced,
        measured_v=v, measured_i=i, verdict="PASS" if ok else code,
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
    return ChipResult(tuple(log))

"""Reference computations the benchmark checks trapqa against.

Nothing here calls the trapqa function it is used to check: the electrode
potential comes from Gauss-Legendre quadrature of the solid angle, the
Bloch-Grueneisen integral from its own composite quadrature, the wafer-test
abort points from the written definition of the test plan, and the spatial
statistics from exact binomial tails and a hand-written z test.
"""

import math

import numpy as np

# --------------------------------------------------------------- electrostatics

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_nodes(lo, hi, panel):
    """Composite 8-point Gauss-Legendre nodes and weights on [lo, hi]."""
    n = max(1, math.ceil((hi - lo) / panel))
    edges = np.linspace(lo, hi, n + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def quad_phi(rects, points, panel):
    """Unit-volt potential of each rectangle at each point, shape (P, M).

    The solid angle over 2 pi, integrated as z/(2 pi) * int dA / r^3 with
    composite Gauss-Legendre panels no wider than ``panel``. The nodes depend
    only on the rectangles and ``panel``, so differences between nearby
    points are smooth.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if np.any(pts[:, 2] <= 0):
        raise ValueError("quadrature reference needs z > 0")
    z = pts[:, 2]
    out = np.empty((len(pts), len(rects)))
    for m, (x1, x2, y1, y2) in enumerate(np.asarray(rects, dtype=float)):
        xs, wx = _panel_nodes(x1, x2, panel)
        ys, wy = _panel_nodes(y1, y2, panel)
        dx2 = (pts[:, 0:1] - xs[None, :]) ** 2  # (P, nx)
        dy2 = (pts[:, 1:2] - ys[None, :]) ** 2  # (P, ny)
        r2 = dx2[:, :, None] + dy2[:, None, :] + (z**2)[:, None, None]
        out[:, m] = z / (2.0 * np.pi) * np.einsum("pij,i,j->p", r2**-1.5, wx, wy)
    return out


def _offsets(point, steps):
    p = np.asarray(point, dtype=float)
    return np.array([p + np.asarray(s, dtype=float) for s in steps])


def quad_basis(rects, point, h=1e-8):
    """Unit-volt potential and field of each rectangle at ``point``, shape (M, 4).

    Columns are (phi, Ex, Ey, Ez): :func:`quad_phi` with panels no wider
    than z/2, and minus its central difference with step ``h``.
    """
    eye = np.eye(3) * h
    pts = _offsets(point, [np.zeros(3)] + [s * e for e in eye for s in (1.0, -1.0)])
    phi = quad_phi(rects, pts, 0.5 * float(point[2]))
    out = np.empty((len(rects), 4))
    out[:, 0] = phi[0]
    for k in range(3):
        out[:, 1 + k] = -(phi[1 + 2 * k] - phi[2 + 2 * k]) / (2.0 * h)
    return out


def quad_field_gradient(rects, volts, point, h=1e-7):
    """dE_k/dx_i of ``rects`` at ``volts``, shape (3, 3), by second differences."""
    eye = np.eye(3) * h
    steps = [np.zeros(3)]
    for i in range(3):
        steps += [eye[i], -eye[i]]
        for j in range(i + 1, 3):
            steps += [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    phi = quad_phi(rects, _offsets(point, steps), 0.5 * float(point[2])) @ np.asarray(volts, dtype=float)
    H = np.empty((3, 3))
    k = 1
    for i in range(3):
        H[i, i] = (phi[k] - 2.0 * phi[0] + phi[k + 1]) / h**2
        k += 2
        for j in range(i + 1, 3):
            H[i, j] = H[j, i] = (phi[k] - phi[k + 1] - phi[k + 2] + phi[k + 3]) / (4.0 * h**2)
            k += 4
    return -H  # E = -grad(phi)


# ------------------------------------------------------------------ thermometry


def bg_reference(upper):
    """Int_0^u x^5 / ((e^x - 1)(1 - e^-x)) dx for each u, by composite quadrature.

    The integrand is x^5 e^x / (e^x - 1)^2; beyond x = 80 it is below 1e-25,
    so the upper limit is capped there.
    """
    u = np.atleast_1d(np.asarray(upper, dtype=float))
    out = np.zeros_like(u)
    for k, uk in enumerate(u):
        if uk <= 0:
            continue
        x, w = _panel_nodes(0.0, min(uk, 80.0), 0.5)
        f = x**5 / (np.expm1(x) * -np.expm1(-x))
        out[k] = f @ w
    return out


def rt_reference(r_res, amplitude, theta, temperatures):
    """R(T) of the residual plus Bloch-Grueneisen model, via :func:`bg_reference`."""
    t = np.asarray(temperatures, dtype=float)
    return r_res + amplitude * (t / theta) ** 5 * bg_reference(theta / t)


# ------------------------------------------------------------------- wafer test


def plan_definition(nets):
    """The test plan as its definition states it, from ``(id, role, pads)`` triples.

    Continuity on every loop net (DC, compensation, sensor, RF), two leakage
    passes sensing each pad of every non-RF loop net plus one RF stress step
    per pass, then resistance on every loop net; nets ascend by id inside each
    phase. Returns ``(kind, net, pass, pad)`` tuples.
    """
    loops = sorted(n for n, role, _ in nets if role in ("dc", "comp", "ts", "rf"))
    pads = {n: p for n, _, p in nets}
    role = {n: r for n, r, _ in nets}
    plan = [("CONTINUITY", n, 0, None) for n in loops]
    for pass_index in (1, 2):
        for n in loops:
            if role[n] == "rf":
                plan.append(("LEAKAGE_RF", n, pass_index, None))
            else:
                plan.extend(("LEAKAGE", n, pass_index, pad) for pad in pads[n])
    plan += [("RESISTANCE", n, 0, None) for n in loops]
    return plan


class AbortOracle:
    """First plan step that must catch a fault, and the failure code it reports.

    Continuity catches an open loop. The first leakage step that senses
    either end of a short or leak catches it; the code names the role of the
    other end. The resistance step catches a shifted resistance. An
    instrument failure aborts at its own step.
    """

    def __init__(self, nets):
        self.role = {n: r for n, r, _ in nets}
        self.plan = plan_definition(nets)
        self.first = {}
        for index, (kind, net, _, _) in enumerate(self.plan):
            self.first.setdefault((kind, net), index)

    def catch(self, fault):
        """``(step_index, code, nets_touched)`` for one fault."""
        kind = fault.kind
        if kind == "HW_FAIL":
            return fault.step_index, "HW_FAIL", ()
        if kind == "OPEN":
            return self.first[("CONTINUITY", fault.net)], "CONTINUITY_FAIL", (fault.net,)
        if kind == "RESISTANCE_SHIFT":
            code = {"rf": "RES_FAIL_RF", "ts": "RES_FAIL_TS"}.get(self.role[fault.net], "RES_FAIL_DC")
            return self.first[("RESISTANCE", fault.net)], code, (fault.net,)
        ends = [fault.net] if kind == "LEAK_TO_GND" else [fault.net, fault.other]
        best = None
        for net in ends:
            if self.role[net] == "gnd":
                continue
            if self.role[net] == "rf":
                step, code = self.first[("LEAKAGE_RF", net)], "LEAK_RF"
            else:
                other = "gnd" if kind == "LEAK_TO_GND" else self.role[ends[1] if net == ends[0] else ends[0]]
                step = self.first[("LEAKAGE", net)]
                code = {"rf": "LEAK_DC_RF", "gnd": "LEAK_DC_GND"}.get(other, "LEAK_DC_DC")
            if best is None or step < best[0]:
                best = (step, code)
        return best[0], best[1], tuple(ends)

    def expected(self, faults):
        """``(outcome, steps_executed)`` of a chip carrying ``faults``.

        Only fault sets whose faults are caught at distinct steps have a
        single expected code; :func:`draw_chip_faults` draws only those.
        """
        if not faults:
            return "PASS", len(self.plan)
        step, code, _ = min(self.catch(f) for f in faults)
        return code, step + 1


def draw_chip_faults(rng, families, oracle, k):
    """``k`` faults from ``families`` that never interact.

    The faults of one chip touch distinct nets and are caught at distinct
    steps, so the chip's abort point is the earliest single catch.
    """
    while True:
        picks = [families[i] for i in rng.integers(0, len(families), size=k)]
        catches = [oracle.catch(f) for f in picks]
        nets = [n for _, _, touched in catches for n in touched]
        steps = [s for s, _, _ in catches]
        if len(set(nets)) == len(nets) and len(set(steps)) == len(steps):
            return tuple(picks)


# ------------------------------------------------------------ wafer statistics


def binom_tail(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p), summed exactly with ``math.comb``."""
    if k <= 0:
        return 1.0
    return float(sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1)))


def edge_z_test(n_edge, f_edge, n_inner, f_inner):
    """Pooled one-sided two-proportion z test: ``(z, p)``."""
    pooled = (f_edge + f_inner) / (n_edge + n_inner)
    var = pooled * (1.0 - pooled) * (1.0 / n_edge + 1.0 / n_inner)
    if var == 0.0:
        return 0.0, 1.0
    z = (f_edge / n_edge - f_inner / n_inner) / math.sqrt(var)
    return z, 0.5 * math.erfc(z / math.sqrt(2.0))


# ------------------------------------------------------------------ dissipation

#: Reference RF powers of the source paper (mW) at 160 V and 2 pi x 22 MHz:
#: (p_ohmic 300 K, p_ohmic 10 K, p_diel, total 300 K, total 10 K).
PAPER_POWER_MW = {
    "si_partial_shield": (190.0, 20.0, 50.0, 240.0, 70.0),
    "si_full_shield": (430.0, 45.0, 74.0, 504.0, 119.0),
    "fused_silica": (13.0, 0.3, 21.0, 34.0, 21.3),
}


def check_power_table(rows, v0=160.0):
    """Errors of a dissipation table against the paper, within 5%.

    ``rows`` maps (trap, temperature) to (p_ohmic, p_diel, p_total) in mW.
    Every power scales as V0^2 at a fixed drive frequency.
    """
    scale = (v0 / 160.0) ** 2
    errors = []
    for name, (po300, po10, pd, tot300, tot10) in PAPER_POWER_MW.items():
        want = {
            300.0: (po300, pd, tot300),
            10.0: (po10, pd, tot10),
        }
        for temperature, expected in want.items():
            got = rows.get((name, temperature))
            if got is None:
                errors.append(f"dissipation: no row for {name} at {temperature} K")
                continue
            for g, w in zip(got, expected):
                if abs(g - w * scale) > 0.05 * w * scale:
                    errors.append(f"dissipation: {name} {temperature} K {g:.4g} mW vs {w * scale:.4g} mW")
    return errors

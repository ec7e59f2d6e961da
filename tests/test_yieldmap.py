"""Wafer layout, Poisson defect analytics, spatial statistics, rendering."""

import numpy as np
import pytest

from trapqa.yieldmap import (
    DEFAULT_LAYOUT,
    WaferLayout,
    edge_concentration,
    infer_defects,
    layout_wafer,
    render_csv,
    render_svg,
    reticle_periodicity,
    synthesize_outcomes,
    yield_from_defects,
    yield_stats,
)


@pytest.fixture(scope="module")
def sites():
    return layout_wafer()


def test_layout_chip_count(sites):
    assert len(sites) == 477


def test_layout_excludes_test_cells(sites):
    cells = {s.cell for s in sites}
    for tc in DEFAULT_LAYOUT.test_cells:
        assert tc not in cells
    assert len(cells) == 7


def test_layout_sites_inside_usable_radius(sites):
    r = DEFAULT_LAYOUT.usable_radius
    for s in sites:
        assert np.hypot(s.x, s.y) <= r + 1e-12


def test_layout_ids_unique_and_ordered(sites):
    ids = [s.chip_id for s in sites]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)
    assert ids[0] == "C001"


def test_poisson_defect_numbers():
    est = infer_defects(258 / 477, 477)
    assert est.total_defects == pytest.approx(293.15, abs=0.1)
    assert est.per_step == pytest.approx(2.82, abs=0.01)


def test_defect_yield_roundtrip():
    y = 258 / 477
    est = infer_defects(y, 477)
    assert yield_from_defects(est.total_defects, 477) == pytest.approx(y, rel=1e-12)


def test_yield_stats_counts(sites):
    outcomes = {s.chip_id: "PASS" for s in sites}
    outcomes[sites[0].chip_id] = "LEAK_DC_DC"
    outcomes[sites[1].chip_id] = "LEAK_DC_DC"
    outcomes[sites[2].chip_id] = "CONTINUITY_FAIL"
    stats = yield_stats(outcomes)
    assert stats.total == 477
    assert stats.passed == 474
    assert stats.yield_fraction == pytest.approx(474 / 477)
    counts = dict(stats.code_counts)
    assert counts["LEAK_DC_DC"] == 2
    assert counts["CONTINUITY_FAIL"] == 1


def test_planted_cell_is_flagged(sites, rng):
    outcomes = synthesize_outcomes(
        sites,
        rng,
        base_rates={"LEAK_DC_DC": 0.05},
        cell_boost=((1, 1), "LEAK_DC_DC", 0.9),
    )
    cells = reticle_periodicity(sites, outcomes)
    flagged = [c.cell for c in cells if c.flagged]
    assert flagged == [(1, 1)]


def test_uniform_null_not_flagged(sites, rng):
    outcomes = synthesize_outcomes(sites, rng, base_rates={"LEAK_DC_DC": 0.2})
    cells = reticle_periodicity(sites, outcomes)
    assert not any(c.flagged for c in cells)


def test_cell_stats_pool_correctly(sites):
    # all failures in one cell, every other cell clean
    target = (0, 1)
    outcomes = {
        s.chip_id: ("CONTINUITY_FAIL" if s.cell == target else "PASS") for s in sites
    }
    cells = reticle_periodicity(sites, outcomes)
    by_cell = {c.cell: c for c in cells}
    assert by_cell[target].flagged
    assert by_cell[target].p_value < 1e-20
    for cell, c in by_cell.items():
        if cell != target:
            assert not c.flagged


def test_planted_edge_is_flagged(sites, rng):
    outcomes = synthesize_outcomes(
        sites,
        rng,
        base_rates={"LEAK_DC_GND": 0.05},
        edge_boost=("LEAK_DC_GND", 0.6, 0.2),
    )
    edge = edge_concentration(sites, outcomes)
    assert edge.flagged
    assert edge.z > 2.33


def test_edge_null_not_flagged(sites, rng):
    outcomes = synthesize_outcomes(sites, rng, base_rates={"LEAK_DC_GND": 0.2})
    edge = edge_concentration(sites, outcomes)
    assert not edge.flagged


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"base_rates": {"LEAK_DC_DC": 0.2, "CONTINUITY_FAIL": -0.5}}, "rate of CONTINUITY_FAIL"),
        ({"base_rates": {"CONTINUITY_FAIL": 1.5}}, "rate of CONTINUITY_FAIL"),
        ({"base_rates": {"LEAK_RF": float("nan")}}, "rate of LEAK_RF"),
        ({"cell_boost": ((1, 1), "LEAK_DC_DC", 1.01)}, "cell boost rate of LEAK_DC_DC"),
        ({"edge_boost": ("LEAK_DC_GND", -0.1, 0.2)}, "edge boost rate of LEAK_DC_GND"),
        ({"edge_boost": ("LEAK_DC_GND", 0.6, 1.2)}, "edge annulus fraction of LEAK_DC_GND"),
    ],
    ids=["base_negative", "base_above_one", "base_nan", "cell_boost", "edge_rate", "edge_fraction"],
)
def test_synthesize_refuses_rates_outside_unit_interval(sites, kwargs, message):
    rng = np.random.Generator(np.random.Philox(key=5))
    with pytest.raises(ValueError, match=message):
        synthesize_outcomes(sites, rng, **kwargs)
    # refused before any draw
    assert rng.random() == np.random.Generator(np.random.Philox(key=5)).random()


@pytest.mark.parametrize("rate", ["0.2", None, True], ids=["string", "none", "bool"])
def test_synthesize_refuses_a_rate_that_is_not_a_number(sites, rate):
    rng = np.random.Generator(np.random.Philox(key=5))
    with pytest.raises(ValueError, match="rate of CONTINUITY_FAIL must be a number"):
        synthesize_outcomes(sites, rng, base_rates={"CONTINUITY_FAIL": rate})
    assert rng.random() == np.random.Generator(np.random.Philox(key=5)).random()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_rates": {"LEAK_DC_DC": 0.2, "FOO": 0.1}},
        {"base_rates": {"PASS": 0.1}},
        {"cell_boost": ((1, 1), "leak_dc_dc", 0.9)},
        {"edge_boost": ("-LEAK_DC_GND", 0.6, 0.2)},
    ],
    ids=["base", "pass", "cell_boost", "edge_boost"],
)
def test_synthesize_refuses_an_unknown_failure_code(sites, kwargs):
    rng = np.random.Generator(np.random.Philox(key=5))
    with pytest.raises(ValueError, match="unknown failure code"):
        synthesize_outcomes(sites, rng, **kwargs)
    assert rng.random() == np.random.Generator(np.random.Philox(key=5)).random()


def test_synthesize_is_deterministic(sites):
    a = synthesize_outcomes(
        sites, np.random.Generator(np.random.Philox(key=5)), base_rates={"LEAK_DC_DC": 0.3}
    )
    b = synthesize_outcomes(
        sites, np.random.Generator(np.random.Philox(key=5)), base_rates={"LEAK_DC_DC": 0.3}
    )
    assert a == b


def test_render_csv_shape(sites):
    outcomes = {s.chip_id: "PASS" for s in sites}
    text = render_csv(sites, outcomes)
    lines = text.strip().split("\n")
    assert len(lines) == 478  # header + sites
    assert lines[0].startswith("chip_id,")
    assert lines[1].startswith("C001,")


def test_render_svg_is_deterministic(sites, rng):
    outcomes = synthesize_outcomes(sites, rng, base_rates={"LEAK_DC_DC": 0.3})
    a = render_svg(sites, outcomes)
    b = render_svg(sites, outcomes)
    assert a == b
    assert a.startswith("<svg")
    # every chip appears, and outcomes are machine-readable
    assert a.count("data-chip=") == 477
    assert 'data-outcome="LEAK_DC_DC"' in a


def test_render_svg_marks_flagged_cells(sites):
    outcomes = {
        s.chip_id: ("CONTINUITY_FAIL" if s.cell == (1, 1) else "PASS") for s in sites
    }
    svg = render_svg(sites, outcomes, flagged_cells=[(1, 1)])
    assert "flagged" in svg


def test_custom_layout_chip_count_scales():
    # a coarser pitch on the same wafer fits fewer chips
    coarse = WaferLayout(
        wafer_diameter=0.2,
        chip_pitch=9e-3,
        edge_exclusion=3.25e-3,
        test_cells=((0, 0), (2, 2)),
    )
    assert 0 < len(layout_wafer(coarse)) < 477


# ---------------------------------------- p values, bit for bit scipy.stats
# The statistics compute their tails with scipy.special (a lighter import
# than scipy.stats); these tests pin that choice to the scipy.stats values.


def _acceptance_wafers(sites):
    """(code, outcomes) of the three wafers per seed that acceptance check 7 draws."""
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(key=seed))
        yield "LEAK_DC_DC", synthesize_outcomes(
            sites, rng, base_rates={"LEAK_DC_DC": 0.01},
            cell_boost=((1, 1), "LEAK_DC_DC", 0.9),
        )
        yield "CONTINUITY_FAIL", synthesize_outcomes(
            sites, rng, base_rates={"CONTINUITY_FAIL": 0.02},
            edge_boost=("CONTINUITY_FAIL", 0.6, 0.2),
        )
        yield None, synthesize_outcomes(
            sites, rng, base_rates={"LEAK_DC_DC": 0.1, "CONTINUITY_FAIL": 0.1},
        )


def _assert_binom_exact(cells):
    from scipy import stats

    rate = sum(c.n_fail for c in cells) / sum(c.n_sites for c in cells)
    for c in cells:
        expected = float(stats.binom.sf(c.n_fail - 1, c.n_sites, rate)) if c.n_fail else 1.0
        assert c.p_value == expected, (c, rate)


def test_p_values_equal_scipy_stats_on_acceptance_wafers(sites):
    from scipy import stats

    for code, outcomes in _acceptance_wafers(sites):
        _assert_binom_exact(reticle_periodicity(sites, outcomes, code=code))
        edge = edge_concentration(sites, outcomes, code=code)
        fails = edge.n_edge_fail + edge.n_inner_fail
        if 0 < fails < edge.n_edge + edge.n_inner:
            assert edge.p_value == float(stats.norm.sf(edge.z))
        else:
            assert (edge.z, edge.p_value) == (0.0, 1.0)


def test_cell_p_values_equal_scipy_stats_on_large_cells():
    from trapqa.yieldmap import ChipSite

    rng = np.random.default_rng(11)
    for fail_share in (0.0, 1.0, None):
        sizes = rng.integers(1, 5001, size=9)
        sites, outcomes = [], {}
        for i, n in enumerate(sizes):
            share = rng.random() if fail_share is None else fail_share
            for j in range(n):
                chip = f"S{i}-{j}"
                sites.append(ChipSite(chip, 0.0, 0.0, (0, 0), (i // 3, i % 3)))
                outcomes[chip] = "LEAK_DC_DC" if rng.random() < share else "PASS"
        _assert_binom_exact(reticle_periodicity(sites, outcomes))


def test_tail_functions_equal_scipy_stats():
    from scipy import special, stats

    rng = np.random.default_rng(5)
    n = np.arange(1, 5001)
    for k in (np.ones_like(n), n, rng.integers(1, n + 1)):
        for p in (0.0, 1.0, rng.random(n.size)):
            assert np.array_equal(special.betainc(k, n - k + 1, p), stats.binom.sf(k - 1, n, p))
    z = np.linspace(-8.0, 8.0, 20001)
    assert np.array_equal(special.ndtr(-z), stats.norm.sf(z))


def _one_site_edge_test():
    # a single chip puts every site on one side of the annulus split
    site = layout_wafer()[0]
    return edge_concentration([site], {site.chip_id: "PASS"})


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: WaferLayout(chip_pitch=0.0), "pitch and diameter must be positive", id="pitch_zero"),
        pytest.param(lambda: WaferLayout(wafer_diameter=-0.2), "pitch and diameter must be positive",
                     id="diameter_negative"),
        pytest.param(lambda: WaferLayout(edge_exclusion=0.1), "edge_exclusion out of range", id="exclusion_radius"),
        pytest.param(lambda: WaferLayout(edge_exclusion=-1e-3), "edge_exclusion out of range",
                     id="exclusion_negative"),
        pytest.param(lambda: WaferLayout(test_cells=((3, 0),)), "test cells must be inside the 3x3 reticle",
                     id="test_cell_outside"),
        pytest.param(lambda: yield_stats({}), "no outcomes", id="no_outcomes"),
        pytest.param(lambda: infer_defects(0.0, 100), "yield_fraction must be in (0, 1]", id="yield_zero"),
        pytest.param(lambda: infer_defects(1.5, 100), "yield_fraction must be in (0, 1]", id="yield_above_one"),
        pytest.param(lambda: infer_defects(0.5, 0), "n_chips and n_steps must be positive", id="no_chips"),
        pytest.param(lambda: infer_defects(0.5, 100, 0), "n_chips and n_steps must be positive", id="no_steps"),
        pytest.param(lambda: yield_from_defects(-1.0, 100), "total_defects must be >= 0", id="defects_negative"),
        pytest.param(_one_site_edge_test, "annulus split left one group empty", id="edge_group_empty"),
    ],
)
def test_layout_and_statistics_refuse_out_of_domain_input(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message

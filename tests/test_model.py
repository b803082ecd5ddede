from dataclasses import fields

import numpy as np
import pytest

from glsae.model import (
    SamplerSettings,
    SourcePanel,
    VARIANT_TAGS,
    init_state,
    unit_state,
    variant,
)
from glsae.rng import RngStream


def test_variant_dispatch_is_total():
    seen = set()
    for tag in VARIANT_TAGS:
        m = variant(tag)
        assert m.local_prior in ("horseshoe", "lasso", "unit")
        assert m.theta_variance_form in ("product", "source", "unit", "none")
        seen.add((m.local_prior, m.theta_variance_form))
    assert variant("m11a").theta_variance_form == "product"
    assert variant("m11b").theta_variance_form == "product"
    assert variant("m1a").theta_variance_form == "source"
    assert variant("m1b").theta_variance_form == "source"
    assert variant("m12").theta_variance_form == "unit"
    assert variant("m11a").local_prior == "horseshoe"
    assert variant("m11b").local_prior == "lasso"
    assert variant("m1b").local_prior == "lasso"
    assert variant("m12").local_prior == "unit"
    assert variant("one-source").tag == "one_source"
    assert variant("one_source").local_prior == "horseshoe"
    assert len(seen) == len(VARIANT_TAGS)  # every tag maps to a distinct pair


def test_variant_rejects_unknown_tag():
    with pytest.raises(ValueError):
        variant("m99")


def test_source_panel_accepts_reference_size():
    rng = np.random.default_rng(0)
    y = 0.25 + 0.02 * rng.standard_normal((62, 2))
    v = np.full((62, 2), 1e-3)
    panel = SourcePanel([f"c{i}" for i in range(62)], ["b", "s"], y, v)
    assert panel.n_areas == 62 and panel.n_sources == 2
    assert np.array_equal(panel.inv_v, 1.0 / v)


_Y = [[0.2, 0.3], [0.25, 0.27]]
_V = [[0.01, 0.01], [0.01, 0.01]]

# one broken invariant per case: (areas, sources, y, v, the message naming it)
_BROKEN_PANELS = {
    "y_not_2d": (["a", "b"], ["s1"], [0.2, 0.3], [0.01, 0.01], "y (2,) and v (2,) must be equal 2-d shapes"),
    "unequal_shapes": (["a", "b"], ["s1", "s2"], _Y, [[0.01], [0.01]], "y (2, 2) and v (2, 1) must be equal 2-d shapes"),
    "labels": (["a", "b", "c"], ["s1", "s2"], _Y, _V, "area/source labels do not match matrix dimensions"),
    "single_area": (["only"], ["s1"], [[0.2]], [[0.01]], "need at least 2 areas, got 1"),
    "no_source": (["a", "b"], [], np.empty((2, 0)), np.empty((2, 0)), "need at least 1 source"),
    "duplicate_area": (["a", "a"], ["s1", "s2"], _Y, _V, "duplicate area ids"),
    "duplicate_source": (["a", "b"], ["s1", "s1"], _Y, _V, "duplicate source ids"),
    "nonfinite_estimate": (["a", "b"], ["s1", "s2"], [[0.2, 0.3], [np.nan, 0.27]], _V,
                           "estimate at (1, 0) is not finite"),
    "zero_variance": (["a", "b"], ["s1", "s2"], _Y, [[0.01, 0.01], [0.01, 0.0]],
                      "sampling variance at (1, 1) must be > 0"),
    "negative_variance": (["a", "b"], ["s1", "s2"], _Y, [[-0.01, 0.01], [0.01, 0.01]],
                          "sampling variance at (0, 0) must be > 0"),
    "nonfinite_variance": (["a", "b"], ["s1", "s2"], _Y, [[0.01, np.inf], [0.01, 0.01]],
                           "sampling variance at (0, 1) must be > 0"),
    "subnormal_variance": (["a", "b"], ["s1", "s2"], _Y, [[0.01, 0.01], [1e-320, 0.01]],
                           "sampling variance at (1, 0) is below the smallest normal float"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_PANELS))
def test_source_panel_refuses(case):
    areas, sources, y, v, message = _BROKEN_PANELS[case]
    with pytest.raises(ValueError) as err:
        SourcePanel(areas, sources, y, v)
    assert message in str(err.value)


def test_source_panel_lists_every_problem_in_one_error():
    with np.errstate(all="raise"):  # the check runs before 1/v, so no floating-point error escapes
        with pytest.raises(ValueError) as err:
            SourcePanel(["a", "a"], ["s1", "s2"], [[0.2, np.inf], [0.25, 0.27]], [[0.0, 0.01], [0.01, np.nan]])
    assert str(err.value) == (
        "duplicate area ids; estimate at (0, 1) is not finite; "
        "sampling variance at (0, 0) must be > 0; sampling variance at (1, 1) must be > 0"
    )


def test_init_state_constant_data():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.25, 0.25], [0.25, 0.25]], [[0.01, 0.02], [0.01, 0.02]])
    state = init_state(panel, variant("m11a"), 0.0, RngStream(1))
    assert np.allclose(state.mu, 0.25)
    assert state.eta == pytest.approx(0.25)
    assert np.array_equal(state.theta, panel.y)
    assert state.tau1_sq == 1.0 and state.tau2_sq == 1.0


def test_init_state_equal_precision_average():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.3], [0.2, 0.3]], [[0.01, 0.01], [0.01, 0.01]])
    state = init_state(panel, variant("m1a"), 0.0, RngStream(1))
    assert state.mu[0] == pytest.approx(0.25)


def test_init_state_jitter_differs_across_streams():
    panel = SourcePanel(["a", "b"], ["s1"], [[0.2], [0.3]], [[0.01], [0.01]])
    s1 = init_state(panel, variant("one_source"), 0.1, RngStream(9, 0))
    s2 = init_state(panel, variant("one_source"), 0.1, RngStream(9, 1))
    assert not np.allclose(s1.mu, s2.mu)
    s3 = init_state(panel, variant("one_source"), 0.0, RngStream(9, 0))
    s4 = init_state(panel, variant("one_source"), 0.0, RngStream(9, 1))
    assert np.allclose(s3.mu, s4.mu)


def test_one_source_requires_single_source(small_panel):
    with pytest.raises(ValueError):
        init_state(small_panel, variant("one_source"), 0.0, RngStream(2))
    state = init_state(small_panel.select_source(0), variant("one_source"), 0.0, RngStream(2))
    assert state.theta is None and state.lambda_ij is None


def test_m12_state_has_unit_locals(small_panel):
    state = init_state(small_panel, variant("m12"), 0.0, RngStream(3))
    assert np.all(state.lambda_ij == 1.0) and np.all(state.lambda_i == 1.0)
    assert state.xi_ij is None and state.xi_i is None


# fields each variant carries besides mu, eta, lambda_i, tau1_sq, tau2_sq, xi_tau2
@pytest.mark.parametrize("tag, extra", [
    ("m11a", {"theta", "lambda_ij", "xi_ij", "xi_i", "xi_tau1"}),
    ("m11b", {"theta", "lambda_ij", "xi_tau1"}),
    ("m1a", {"theta", "lambda_ij", "xi_ij", "xi_i", "xi_tau1"}),
    ("m1b", {"theta", "lambda_ij", "xi_tau1"}),
    ("m12", {"theta", "lambda_ij", "xi_tau1"}),
    ("one_source", {"xi_i"}),
])
def test_unit_state_layout(tag, extra):
    model = variant(tag)
    J = 2 if model.has_theta_level else 1
    state = unit_state(model, 3, J)
    present = {f.name for f in fields(state) if getattr(state, f.name) is not None}
    assert present == {"mu", "eta", "lambda_i", "tau1_sq", "tau2_sq", "xi_tau2"} | extra
    shapes = {"mu": (3,), "lambda_i": (3,), "xi_i": (3,), "theta": (3, J), "lambda_ij": (3, J), "xi_ij": (3, J)}
    for name in present:
        val = getattr(state, name)
        assert np.shape(val) == shapes.get(name, ()), name
        assert np.all(val == (0.0 if name in ("mu", "eta", "theta") else 1.0)), name
    with pytest.raises(ValueError, match="single-source"):
        unit_state(variant("one_source"), 3, 2)


def test_settings_validation():
    with pytest.raises(ValueError):
        SamplerSettings(seed=1, n_iter=100, n_burnin=100)
    with pytest.raises(ValueError):
        SamplerSettings(seed=1, n_iter=0)
    with pytest.raises(ValueError):
        SamplerSettings(seed=1, monitor=frozenset({"bogus"}))
    s = SamplerSettings(seed=1)
    assert (s.n_iter, s.n_burnin, s.n_chains) == (18000, 3000, 1)


def test_panel_arrays_immutable(small_panel):
    with pytest.raises(ValueError):
        small_panel.y[0, 0] = 1.0

import numpy as np
import pytest

from glsae.rng import RngStream
from glsae.simgen import (
    Case5Params,
    LevelSpec,
    SimSpec,
    bootstrap_v,
    generate,
    load_spec_table,
    spec_table,
    synthetic_v_pool,
)


def _outlier_spec(p_mu, p_th, t_mu, t_th, I=20):
    return SimSpec(
        case_id=1, row=1,
        theta_level=LevelSpec("outlier", p=p_th, tau11=t_th),
        mu_level=LevelSpec("outlier", p=p_mu, tau11=t_mu),
        n_areas=I,
        v=np.full((I, 2), 1e-4),
    )


def test_zero_probability_outliers_collapse_to_constants():
    spec = _outlier_spec(0.0, 0.0, 0.1, 0.1)
    data = generate(spec, 0, RngStream(1, 0))
    assert np.allclose(data.truth_mu, 0.25)
    assert np.allclose(data.truth_theta, data.truth_mu[:, None])
    assert not np.allclose(data.panel.y, data.truth_theta)  # sampling noise stays


def test_case6_equals_case5_at_p_one():
    c5 = SimSpec(
        case_id=5, row=1, theta_level=None, mu_level=None,
        case5=Case5Params(tau=0.05, tau1=0.01, p=1.0, tau2=0.1),
        n_areas=15, v=np.full((15, 2), 1e-4),
    )
    c6 = SimSpec(
        case_id=6, row=1, theta_level=None, mu_level=None,
        case5=Case5Params(tau=0.05, tau1=0.01, p=0.123, tau2=0.1),  # p ignored at case 6
        n_areas=15, v=np.full((15, 2), 1e-4),
    )
    d5 = generate(c5, 3, RngStream(2, 9))
    d6 = generate(c6, 3, RngStream(2, 9))
    assert np.array_equal(d5.panel.y, d6.panel.y)
    assert np.array_equal(d5.truth_mu, d6.truth_mu)


def test_case3_mixture_small_component():
    spec = SimSpec(
        case_id=3, row=1,
        theta_level=LevelSpec("mixture", p=0.0, tau21=0.4),
        mu_level=LevelSpec("mixture", p=0.0, tau21=0.4),  # delta=0: N(0.25, 0.05^2)
        n_areas=4000, v=np.full((4000, 2), 1e-6),
    )
    data = generate(spec, 0, RngStream(3, 0))
    assert abs(data.truth_mu.std() - 0.05) < 0.002
    assert abs(data.truth_mu.mean() - 0.25) < 0.003


def test_empirical_moments_outlier_and_mixture():
    gen_stream = RngStream(4, 0)
    spec = _outlier_spec(0.3, 0.0, 0.1, 0.0, I=25)
    mus = np.concatenate([generate(spec, k, RngStream(4, k)).truth_mu for k in range(8000)])
    var = ((mus - 0.25) ** 2).mean()
    assert abs(var / (0.3 * 0.1**2) - 1.0) < 0.05

    mix = SimSpec(
        case_id=3, row=1,
        theta_level=LevelSpec("mixture", p=0.5, tau21=0.2),
        mu_level=LevelSpec("mixture", p=0.5, tau21=0.2),
        n_areas=25, v=np.full((25, 2), 1e-6),
    )
    mus = np.concatenate([generate(mix, k, RngStream(5, k)).truth_mu for k in range(8000)])
    expected = 0.5 * 0.2**2 + 0.5 * 0.05**2
    var = ((mus - 0.25) ** 2).mean()
    assert abs(var / expected - 1.0) < 0.05


def test_aberration_flag_rate_matches_probability():
    spec = _outlier_spec(0.25, 0.4, 0.1, 0.1, I=50)
    flags_mu = []
    flags_th = []
    for k in range(2000):
        d = generate(spec, k, RngStream(6, k))
        flags_mu.append(d.aberration_flags["mu"])
        flags_th.append(d.aberration_flags["theta"])
    rate_mu = np.concatenate(flags_mu).mean()
    rate_th = np.concatenate([f.ravel() for f in flags_th]).mean()
    n_mu = 2000 * 50
    n_th = 2000 * 100
    assert abs(rate_mu - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n_mu)
    assert abs(rate_th - 0.4) < 4 * np.sqrt(0.4 * 0.6 / n_th)


def test_determinism_given_stream():
    spec = _outlier_spec(0.2, 0.2, 0.05, 0.05)
    a = generate(spec, 5, RngStream(8, 5))
    b = generate(spec, 5, RngStream(8, 5))
    assert np.array_equal(a.panel.y, b.panel.y)
    c = generate(spec, 6, RngStream(8, 6))
    assert not np.array_equal(a.panel.y, c.panel.y)


def test_bootstrap_v():
    pool = np.array([[1e-4, 2e-4], [3e-4, 4e-4]])
    out = bootstrap_v(pool, 5, 4, RngStream(9, 0))  # J=4 from a J=2 pool
    assert out.shape == (5, 4)
    assert set(np.round(out.ravel(), 10)) <= set(np.round(pool.ravel(), 10))
    single = bootstrap_v(np.array([7e-4]), 3, 2, RngStream(9, 1))
    assert np.all(single == 7e-4)
    with pytest.raises(ValueError):
        bootstrap_v(np.array([]), 2, 2, RngStream(9, 2))


def test_bootstrap_v_inside_generate():
    spec = SimSpec(
        case_id=1, row=1,
        theta_level=LevelSpec("outlier", p=0.1, tau11=0.05),
        mu_level=LevelSpec("outlier", p=0.1, tau11=0.05),
        n_areas=6, n_sources=4,
        v_pool=np.array([1e-4, 2e-4, 5e-4]),
    )
    d = generate(spec, 0, RngStream(10, 0))
    assert d.panel.v.shape == (6, 4)
    assert set(np.round(d.panel.v.ravel(), 10)) <= {1e-4, 2e-4, 5e-4}


def test_spec_table_row_counts_and_values():
    counts = {1: 30, 2: 36, 3: 20, 4: 36, 5: 18, 6: 12}
    for case, n in counts.items():
        specs = spec_table(case)
        assert len(specs) == n, case
        assert [s.row for s in specs] == list(range(1, n + 1))

    row1 = spec_table(1)[0].params
    assert row1 == {"p2_mu": 0.1, "p2_theta": 0.1, "tau11_mu": 0.025, "tau11_theta": 0.025}
    row4 = spec_table(1)[3].params
    assert row4 == {"p2_mu": 0.1, "p2_theta": 0.1, "tau11_mu": 0.2, "tau11_theta": 0.2}
    c5r18 = spec_table(5)[17].params
    assert c5r18 == {"tau": 0.05, "tau1": 0.01, "p": 0.4, "tau2": 0.2}
    c6r5 = spec_table(6)[4].params
    assert c6r5 == {"tau": 0.05, "tau1": 0.005, "tau2": 0.2}
    with pytest.raises(ValueError):
        spec_table(7)


def test_spec_table_file_override(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(
        "row,p2_mu,p2_theta,tau11_mu,tau11_theta\n1,0.3,0.3,0.07,0.07\n2,0.1,0.3,0.07,0.14\n",
        encoding="utf-8",
    )
    specs = load_spec_table(path, 1, v=np.full((62, 2), 1e-4))
    assert len(specs) == 2
    assert specs[0].mu_level.p == 0.3
    assert specs[1].theta_level.tau11 == 0.14


def test_synthetic_pool_fixed_and_in_range():
    a = synthetic_v_pool()
    b = synthetic_v_pool()
    assert np.array_equal(a, b)
    assert a.shape == (62, 2)
    assert a.min() >= 1e-5 and a.max() <= 1e-2
    assert np.all(a[:, 0] >= a[:, 1])  # source 1 carries the larger variance


def test_case5_source_structure():
    spec = SimSpec(
        case_id=5, row=1, theta_level=None, mu_level=None,
        case5=Case5Params(tau=0.05, tau1=1e-9, p=0.5, tau2=0.3),
        n_areas=400, v=np.full((400, 2), 1e-10),
    )
    d = generate(spec, 0, RngStream(11, 0))
    # source 1 pinned to mu by tiny tau1
    assert np.allclose(d.truth_theta[:, 0], d.truth_mu, atol=1e-6)
    flags = d.aberration_flags["source2"]
    off = d.truth_theta[flags == 0, 1] - d.truth_mu[flags == 0]
    on = d.truth_theta[flags == 1, 1] - d.truth_mu[flags == 1]
    assert np.allclose(off, 0.0, atol=1e-6)  # delta=0 pins source 2 as well
    assert on.std() > 0.2  # delta=1 spreads source 2 by tau2

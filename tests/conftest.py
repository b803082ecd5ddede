import numpy as np
import pytest

from glsae.model import SamplerSettings, SourcePanel


@pytest.fixture
def small_panel() -> SourcePanel:
    return SourcePanel(
        areas=("a1", "a2", "a3"),
        sources=("brfss", "sahie"),
        y=[[0.20, 0.24], [0.31, 0.27], [0.22, 0.25]],
        v=[[0.0050, 0.0010], [0.0020, 0.0040], [0.0080, 0.0030]],
    )


@pytest.fixture
def quick_settings() -> SamplerSettings:
    return SamplerSettings(seed=123, n_iter=400, n_burnin=100, n_chains=1)


def random_positive_state(panel, model, gen):
    """A random in-support chain state for kernel-agreement checks."""
    from glsae.model import ChainState

    I, J = panel.n_areas, panel.n_sources
    horseshoe = model.local_prior == "horseshoe"
    unit = model.local_prior == "unit"
    return ChainState(
        mu=gen.normal(0.25, 0.05, size=I),
        eta=float(gen.normal(0.25, 0.05)),
        lambda_i=np.ones(I) if unit else np.exp(gen.normal(0.0, 1.0, size=I)),
        tau1_sq=float(np.exp(gen.normal(-2.0, 1.0))),
        tau2_sq=float(np.exp(gen.normal(-2.0, 1.0))),
        theta=gen.normal(0.25, 0.05, size=(I, J)) if model.has_theta_level else None,
        lambda_ij=(np.ones((I, J)) if unit else np.exp(gen.normal(0.0, 1.0, size=(I, J)))) if model.has_theta_level else None,
        xi_ij=np.exp(gen.normal(0.0, 0.5, size=(I, J))) if (horseshoe and model.has_local_ij) else None,
        xi_i=np.exp(gen.normal(0.0, 0.5, size=I)) if horseshoe else None,
        xi_tau1=float(np.exp(gen.normal(0.0, 0.5))) if model.has_theta_level else None,
        xi_tau2=float(np.exp(gen.normal(0.0, 0.5))),
    )

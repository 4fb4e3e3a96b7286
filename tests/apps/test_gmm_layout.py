"""GMM's coordinate-major exact kernels against the point-major original.

:class:`~repro.apps.gmm.GaussianMixtureEM` lays its E-step, gradient and
M-step tail out as ``(d, k, n)`` blocks and writes the summation order
out itself.  The functions below freeze the point-major ``(n, k, d)``
kernels they replaced, and every test asserts byte-equal floats: the
objective, the responsibilities, the gradient and the EM step, with its
energy ledger, along EM trajectories on the registry datasets and on
drawn problems with ``k·d ≥ 2``, ``k ≤ 7`` and ``d ≤ 7`` (outside that
range the point-major sums were pairwise, see ``_log_joint``).  The
lane tail must equal each lane's solo tail byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.gmm import (
    _LOG_2PI,
    _VAR_FLOOR,
    _WEIGHT_FLOOR,
    GaussianMixtureEM,
    GmmParams,
    _point_sum,
)
from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.data.registry import load_dataset

_BANK = default_mode_bank(32)
_FMT = FixedPointFormat(32, 16)


# ----------------------------------------------------------------------
# The point-major kernels, frozen
# ----------------------------------------------------------------------
def ref_log_joint(method, params):
    weights = np.maximum(params.weights, _WEIGHT_FLOOR)
    variances = np.maximum(params.variances, _VAR_FLOOR)
    log_w = np.log(weights / weights.sum())
    diff = method.points[:, None, :] - params.means[None, :, :]
    maha = np.sum(diff**2 / variances[None, :, :], axis=2)
    log_det = np.sum(np.log(variances), axis=1)
    log_pdf = -0.5 * (maha + log_det + method._d * _LOG_2PI)
    return log_pdf + log_w[None, :], diff


def ref_evaluate(method, x):
    """``(f, (n, k) resp, (n, k, d) diff)``."""
    log_joint, diff = ref_log_joint(method, method.params(x))
    peak = log_joint.max(axis=1, keepdims=True)
    joint = np.exp(log_joint - peak)
    total = joint.sum(axis=1, keepdims=True)
    log_lik = peak[:, 0] + np.log(total[:, 0])
    return float(-log_lik.mean()), joint / total, diff


def ref_gradient(method, x):
    _, resp, diff = ref_evaluate(method, x)
    variances = np.maximum(method.params(x).variances, _VAR_FLOOR)
    grad_means = -(resp[:, :, None] * diff / variances[None, :, :]).sum(
        axis=0
    ) / method._n
    grad_vars = -(
        resp[:, :, None] * 0.5 * (diff**2 / variances[None, :, :] ** 2
                                  - 1.0 / variances[None, :, :])
    ).sum(axis=0) / method._n
    return np.concatenate(
        [np.zeros(method.n_clusters), grad_means.ravel(), grad_vars.ravel()]
    )


def ref_tail(method, resp, means, counts):
    """Point-major weights and floored variances from ``(n, k)`` resp."""
    diff = method.points[:, None, :] - means[None, :, :]
    variances = (resp[:, :, None] * diff**2).sum(axis=0) / counts[:, None]
    return counts / counts.sum(), np.maximum(variances, _VAR_FLOOR)


def ref_em_step(method, x, engine):
    _, resp, _ = ref_evaluate(method, x)
    counts = np.maximum(resp.sum(axis=0), _WEIGHT_FLOOR * method._n)
    means = engine.weighted_sum(resp.T, method.points) / counts[:, None]
    weights, variances = ref_tail(method, resp, means, counts)
    return GmmParams(weights=weights, means=means, variances=variances)


def _engine(mode_name):
    return ApproxEngine(_BANK.by_name(mode_name), _FMT, EnergyLedger())


def assert_matches_point_major(method, x, mode_name="level2"):
    f, resp, _ = ref_evaluate(method, x)
    assert method.objective(x).hex() == f.hex()
    assert method.responsibilities(x).shape == resp.shape
    assert method.responsibilities(x).tobytes() == resp.tobytes()
    assert method.gradient(x).tobytes() == ref_gradient(method, x).tobytes()
    ref_labels = np.argmax(ref_log_joint(method, method.params(x))[0], axis=1)
    assert np.array_equal(method.assignments(x), ref_labels)
    new, ref = _engine(mode_name), _engine(mode_name)
    step = method.em_step(x, new).pack()
    assert step.tobytes() == ref_em_step(method, x, ref).pack().tobytes()
    assert new.ledger == ref.ledger
    return step


# ----------------------------------------------------------------------
# EM trajectories on the registry datasets
# ----------------------------------------------------------------------
def _perturb(method, x, rng):
    """An off-trajectory iterate: weights, means and variances moved."""
    params = method.params(x)
    return GmmParams(
        weights=params.weights * rng.uniform(0.2, 2.0, params.weights.shape),
        means=params.means + rng.normal(0.0, 0.5, params.means.shape),
        variances=params.variances * rng.uniform(0.05, 3.0, params.variances.shape),
    ).pack()


@pytest.mark.parametrize("key", ["3cluster", "3d3cluster", "4cluster"])
@pytest.mark.parametrize("seed", [0, 3])
def test_trajectory_matches_point_major(key, seed):
    method = GaussianMixtureEM.from_dataset(load_dataset(key), seed=seed)
    rng = np.random.default_rng(seed)
    x = method.initial_state()
    for it in range(6):
        mode = ("level2", "acc")[it % 2]
        assert_matches_point_major(method, _perturb(method, x, rng), mode)
        x = assert_matches_point_major(method, x, mode)


# ----------------------------------------------------------------------
# Drawn problems
# ----------------------------------------------------------------------
_weights = st.one_of(
    st.just(0.0),
    st.floats(1e-14, 0.5 * _WEIGHT_FLOOR),
    st.floats(1e-3, 1.0),
)
_variances = st.one_of(
    st.floats(1e-9, 0.5 * _VAR_FLOOR),
    st.floats(1e-2, 4.0),
)


@st.composite
def _problems(draw):
    k = draw(st.integers(1, 7))
    d = draw(st.integers(2 if k == 1 else 1, 7))
    n = draw(st.integers(k, 40))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
    points = np.random.default_rng(seed).normal(0.0, scale, (n, d))
    x = np.array(
        draw(st.lists(_weights, min_size=k, max_size=k))
        + draw(st.lists(st.floats(-4.0, 4.0), min_size=k * d, max_size=k * d))
        + draw(st.lists(_variances, min_size=k * d, max_size=k * d))
    )
    return GaussianMixtureEM(points, k), x


def _stranded_component():
    """Component 1 sits above every point with no responsibility
    anywhere, so its mean-gradient terms are all ``-0.0``."""
    points = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    x = np.array([1.0, 0.0] + [0.0, 0.0, 4.0, 4.0] + [1.0, 1.0, 1e-9, 1e-9])
    return GaussianMixtureEM(points, 2), x


@given(_problems())
@example(_stranded_component())
@settings(max_examples=60, deadline=None)
def test_drawn_problems_match_point_major(problem):
    method, x = problem
    assert_matches_point_major(method, x)


def test_point_sum_is_sequential_from_positive_zero():
    terms = np.array([[1.0] + [1e-16] * 14 + [-1.0], [-0.0] * 16])
    total = _point_sum(terms.copy())
    # Sequentially every 1e-16 rounds away; a pairwise sum keeps some.
    assert total[0] == 0.0 and terms[0].sum() != 0.0
    assert total[1] == 0.0 and not np.signbit(total[1])


# ----------------------------------------------------------------------
# One M-step tail for solo runs and lane groups
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lanes", [1, 3, 16])
def test_lane_tail_equals_solo_tails(lanes):
    method = GaussianMixtureEM.from_dataset(load_dataset("3cluster"))
    rng = np.random.default_rng(lanes)
    x0 = method.initial_state()
    iterates = [_perturb(method, x0, rng) for _ in range(lanes)]
    resp = np.stack([method.evaluate(x)[1]["resp"] for x in iterates])
    counts = np.maximum(_point_sum(resp.copy()), _WEIGHT_FLOOR * method._n)
    means = rng.normal(0.0, 2.0, (lanes, method.n_clusters, method._d))
    weights, variances = method._m_step_tail(resp, means, counts)
    assert weights.shape == counts.shape
    assert variances.shape == means.shape
    for lane in range(lanes):
        solo_w, solo_v = method._m_step_tail(resp[lane], means[lane], counts[lane])
        assert weights[lane].tobytes() == solo_w.tobytes()
        assert variances[lane].tobytes() == solo_v.tobytes()
        ref_w, ref_v = ref_tail(method, resp[lane].T, means[lane], counts[lane])
        assert solo_w.tobytes() == ref_w.tobytes()
        assert solo_v.tobytes() == ref_v.tobytes()


def test_layout_is_coordinate_major():
    method = GaussianMixtureEM.from_dataset(load_dataset("3d3cluster"))
    k, d, n = method.n_clusters, method._d, method._n
    _, state = method.evaluate(method.initial_state())
    assert state["resp"].shape == (k, n) and state["resp"].flags.c_contiguous
    assert state["diff"].shape == (d, k, n) and state["diff"].flags.c_contiguous
    assert method.points.flags.c_contiguous

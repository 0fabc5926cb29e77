import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hstconformal import (
    DataValidationError,
    FitConfig,
    HawkesModel,
    NetworkTopology,
    NumericalError,
    PreconditionError,
    fit,
    generate_synthetic,
    intensity,
    log_likelihood,
    log_likelihood_gradient,
    simulate_trajectory,
)
from hstconformal import _kernels
from hstconformal import hawkes as _hawkes
from hstconformal import rng as _rng
from hstconformal.hawkes import (
    _count_before,
    _gamma_series,
    _objective,
    _softplus,
    _softplus_inv,
    _Tied,
)


def _model(mu, A, beta=1.0, cap=math.inf, floor=0.0):
    return HawkesModel(
        mu=np.asarray(mu, float),
        A=np.asarray(A, float),
        beta=beta,
        cap=cap, floor=floor,
    )


# -- intensity ---------------------------------------------------------------

def test_intensity_hand_value_single_event():
    # one event one bin back, unit decay: lam = 0.5 + 2 * e^-1
    # A > beta trips the stability warning; fine for a one-step hand check
    with pytest.warns(UserWarning, match="explosive"):
        m = _model([0.5], [[2.0]], beta=1.0)
    lam = intensity(m, np.array([[1]]))
    assert abs(lam[0] - (0.5 + 2.0 * math.exp(-1.0))) < 1e-9
    assert abs(lam[0] - 1.2357588823) < 1e-6


def test_intensity_empty_history_is_baseline():
    m = _model([0.3, 0.7], np.full((2, 2), 0.5))
    assert np.allclose(intensity(m, None), [0.3, 0.7])
    assert np.allclose(intensity(m, np.zeros((0, 2))), [0.3, 0.7])


def test_intensity_zero_at_saturation():
    m = _model([0.5], [[1.0]], cap=10.0)
    lam = intensity(m, np.full((5, 1), 2))  # 10 cumulative adoptions
    assert lam[0] == 0.0


def test_intensity_floor_clamps_saturation():
    m = _model([2.0], [[0.0]], cap=10.0, floor=0.25)
    lam = intensity(m, np.full((10, 1), 2))  # far past the cap
    assert abs(lam[0] - 0.25 * 2.0) < 1e-12


def test_intensity_monotone_in_history_counts():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = _model(rng.uniform(0.1, 1, n), rng.uniform(0.05, 0.3 / n, (n, n)),
                   beta=float(rng.uniform(0.5, 1.5)))
        h = rng.integers(0, 4, size=(6, n))
        lo = intensity(m, h)
        h2 = h.copy()
        h2[-1] += 1
        hi = intensity(m, h2)
        assert np.all(hi >= lo - 1e-12)


# -- likelihood --------------------------------------------------------------

def test_loglik_hand_value_single_cell():
    # y=3 at lam=2: 3*log(2) - 2 (factorial term omitted)
    m = _model([2.0], [[0.0]])
    ll = log_likelihood(m, np.array([[3]]))
    assert abs(ll - (3 * math.log(2.0) - 2.0)) < 1e-12
    assert abs(ll - 0.0794415417) < 1e-6


def test_loglik_all_zero_panel_is_minus_total_intensity():
    m = _model(np.ones(3), np.zeros((3, 3)))
    Y = np.zeros((7, 3), dtype=int)
    assert abs(log_likelihood(m, Y) - (-21.0)) < 1e-12


def test_loglik_zero_rate_zero_count_contributes_nothing():
    m = _model([0.0], [[0.0]])
    assert log_likelihood(m, np.zeros((4, 1), dtype=int)) == 0.0


def test_loglik_zero_rate_positive_count_is_minus_inf():
    m = _model([0.0], [[0.0]])
    assert log_likelihood(m, np.array([[1]])) == -math.inf


def test_loglik_additive_over_bin_ranges():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(4, 20))
        m = _model(rng.uniform(0.2, 1, n), rng.uniform(0, 0.3, (n, n)))
        Y = rng.integers(0, 4, size=(T, n))
        k = int(rng.integers(1, T))
        whole = log_likelihood(m, Y)
        parts = log_likelihood(m, Y, bins=(0, k)) + log_likelihood(m, Y, bins=(k, T))
        assert abs(whole - parts) < 1e-9 * (1 + abs(whole))


def test_loglik_rejects_circuit_mismatch():
    m = _model([1.0], [[0.0]])
    with pytest.raises(PreconditionError):
        log_likelihood(m, np.zeros((3, 2), dtype=int))


# -- gradients ---------------------------------------------------------------

def _random_point(rng, n_max=5, T_max=50):
    n = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(3, T_max + 1))
    Y = rng.integers(0, 5, size=(T, n))
    total = Y.sum()
    m = HawkesModel(
        mu=rng.uniform(0.2, 1.5, n),
        A=rng.uniform(0.01, 0.4 / n, (n, n)),
        beta=float(rng.uniform(0.5, 1.5)),
        cap=float(max(total, 1) * rng.uniform(2.0, 4.0)),
    )
    return m, Y


def _fd_gradient(model, Y, eps=1e-5):
    # central differences in the unconstrained coordinates
    u_mu = np.log(model.mu)
    u_A = np.log(model.A)
    u_beta = _softplus_inv(model.beta)
    u_cap = math.log(model.cap)

    def rebuild(um, uA, ub, uc):
        return HawkesModel(
            mu=np.exp(um), A=np.exp(uA), beta=_softplus(ub),
            cap=math.exp(uc), floor=model.floor,
        )

    def ll_at(um, uA, ub, uc):
        return log_likelihood(rebuild(um, uA, ub, uc), Y)

    n = model.n
    g_mu = np.zeros(n)
    for i in range(n):
        up, dn = u_mu.copy(), u_mu.copy()
        up[i] += eps
        dn[i] -= eps
        g_mu[i] = (ll_at(up, u_A, u_beta, u_cap) - ll_at(dn, u_A, u_beta, u_cap)) / (2 * eps)
    g_A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            up, dn = u_A.copy(), u_A.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            g_A[i, j] = (ll_at(u_mu, up, u_beta, u_cap) - ll_at(u_mu, dn, u_beta, u_cap)) / (2 * eps)
    g_beta = (ll_at(u_mu, u_A, u_beta + eps, u_cap) - ll_at(u_mu, u_A, u_beta - eps, u_cap)) / (2 * eps)
    g_cap = (ll_at(u_mu, u_A, u_beta, u_cap + eps) - ll_at(u_mu, u_A, u_beta, u_cap - eps)) / (2 * eps)
    return g_mu, g_A, g_beta, g_cap


def _rel_err(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        m, Y = _random_point(rng)
        g = log_likelihood_gradient(m, Y)
        fd_mu, fd_A, fd_beta, fd_cap = _fd_gradient(m, Y)
        worst = max(
            worst,
            _rel_err(g.d_mu, fd_mu),
            _rel_err(g.d_A, fd_A),
            _rel_err(g.d_beta, fd_beta),
            _rel_err(g.d_cap, fd_cap),
        )
    assert worst < 1e-5


def test_gradient_beta_is_zero_without_excitation():
    rng = np.random.default_rng(9)
    m = _model(rng.uniform(0.5, 1, 3), np.zeros((3, 3)))
    Y = rng.integers(0, 4, size=(12, 3))
    g = log_likelihood_gradient(m, Y)
    assert g.d_beta == 0.0


def test_gradient_symmetry_under_symmetric_data():
    # identical columns and an exchange-symmetric model must give equal
    # baseline gradients
    col = np.array([2, 0, 1, 3, 0, 1])[:, None]
    Y = np.hstack([col, col])
    m = _model([0.6, 0.6], [[0.2, 0.1], [0.1, 0.2]])
    g = log_likelihood_gradient(m, Y)
    assert abs(g.d_mu[0] - g.d_mu[1]) < 1e-12
    assert abs(g.d_A[0, 0] - g.d_A[1, 1]) < 1e-12
    assert abs(g.d_A[0, 1] - g.d_A[1, 0]) < 1e-12


def test_gradient_raises_where_likelihood_not_finite():
    m = _model([0.0], [[0.0]])
    with pytest.raises(NumericalError):
        log_likelihood_gradient(m, np.array([[2]]))


def test_gradient_cap_is_zero_when_cap_infinite():
    m = _model([1.0], [[0.1]])
    g = log_likelihood_gradient(m, np.array([[1], [2], [0]]))
    assert g.d_cap == 0.0


# -- fitting -----------------------------------------------------------------

def test_fit_recovers_baselines_within_tolerance():
    truth = HawkesModel(
        mu=np.array([0.4, 0.8, 0.6, 0.3, 0.5]),
        A=np.full((5, 5), 0.3 / 5),
        beta=1.0,
    )
    panel, topo, _ = generate_synthetic(5, 2, 500, model=truth, seed=3)
    fitted = fit(panel, topo, FitConfig(epochs=700, fit_cap=False), seed=1)
    # the unfitted cap sits at log inf = inf with gradient 0: no step moves it
    assert fitted.cap == math.inf
    rel = np.abs(fitted.mu - truth.mu) / truth.mu
    assert rel.mean() <= 0.25
    assert fitted.meta.loglik_final >= fitted.meta.loglik_init


def test_fit_all_zero_panel_drives_baselines_to_zero():
    Y = np.zeros((50, 3), dtype=int)
    m = fit(Y, None, FitConfig(epochs=500), seed=0)
    assert np.all(m.mu < 1e-3)


def test_fit_is_deterministic_for_a_seed():
    panel, topo, _ = generate_synthetic(4, 2, 60, seed=8)
    cfg = FitConfig(epochs=80)
    a = fit(panel, topo, cfg, seed=5)
    b = fit(panel, topo, cfg, seed=5)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.A, b.A)
    assert a.beta == b.beta and a.cap == b.cap
    c = fit(panel, topo, cfg, seed=6)
    assert not np.array_equal(a.mu, c.mu)


def test_fit_meta_reports_run_length_and_improvement():
    panel, topo, _ = generate_synthetic(3, 1, 50, seed=2)
    m = fit(panel, topo, FitConfig(epochs=60), seed=0)
    assert m.meta.epochs_run <= 60
    assert m.meta.n_train_bins == 50
    assert m.meta.loglik_final >= m.meta.loglik_init
    assert m.circuit_ids == topo.circuit_ids


def test_fit_evaluates_the_objective_once_per_epoch(monkeypatch):
    # each trial point gets its likelihood and gradient in one evaluation, and
    # the gradient is reused for the next step once the point is accepted
    calls = {"loglik_grads": 0, "loglik_value": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(_kernels.ACTIVE, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(_kernels.ACTIVE, name, counted)
    panel, topo, _ = generate_synthetic(4, 2, 60, seed=8)
    epochs = 25
    m = fit(panel, topo, FitConfig(epochs=epochs), seed=5)
    # every epoch ran and none halved its step, else there would be more calls
    assert m.meta.epochs_run == epochs and not m.meta.converged
    assert calls == {"loglik_grads": epochs + 1, "loglik_value": 0}


def _objective_points(rng, counts):
    # (mu, A, beta, cap, floor) in call order: finite and infinite cap, beta
    # moving between calls, a floor-clamped gamma, then a finite call right
    # after a -inf one (zero rates where counts are positive)
    n = counts.shape[1]
    total = float(counts.sum())
    def point():
        return rng.uniform(0.2, 1.5, n), rng.uniform(0.0, 0.4 / n, (n, n))
    return [
        (*point(), 0.9, 3.0 * total, 0.0),
        (*point(), 2.3, math.inf, 0.0),
        (*point(), 0.4, 0.5 * total, 0.3),
        (np.zeros(n), np.zeros((n, n)), 1.7, math.inf, 0.0),
        (*point(), 1.1, 2.0 * total, 0.0),
    ]


def test_objective_on_a_reused_workspace_is_bit_identical():
    # the fit calls the kernels on one workspace for all its epochs; every
    # call must equal the kernels' allocating calls bit for bit, whatever
    # the previous call on the same buffers left in them, under the
    # identity assignment (the free A) and a tied one (B of width 2)
    rng = np.random.default_rng(31)
    K = _kernels.ACTIVE
    for T, n in ((1, 2), (15, 3), (16, 3), (17, 3), (300, 24), (301, 96)):
        counts = rng.poisson(1.0, (T, n)).astype(np.float64)
        counts[:, 0] += 1.0  # a positive count in every bin, for the -inf point
        before = _count_before(counts)
        tied = _Tied(counts, np.arange(n) % 2)
        for b0 in sorted({0, T // 3}):
            work = K.workspace(counts, b0, T)
            tied_work = K.workspace(counts, b0, T, 2)
            points = _objective_points(rng, counts)
            lls = []
            for mu, A, beta, cap, floor in points:
                G = K.excitation_series(counts, beta, work=work)
                G_ref = K.excitation_series(counts, beta)
                assert np.array_equal(G, G_ref)
                H = K.excitation_beta_series(counts, beta, G, work=work)
                H_ref = K.excitation_beta_series(counts, beta, G_ref)
                assert np.array_equal(H, H_ref)
                gamma, dgam = _gamma_series(before, cap, floor)
                got = K.loglik_grads(counts, G, H, gamma, dgam, mu, A, b0, T, work=work)
                ref = K.loglik_grads(counts, G_ref, H_ref, gamma, dgam, mu, A, b0, T)
                assert got[0] == ref[0]
                if math.isfinite(ref[0]):
                    for x, y in zip(got[1:], ref[1:]):
                        assert np.array_equal(x, y)
                args = (_Tied(counts, np.arange(n)), mu, A, beta, cap, floor, b0, T)
                ll, grad = _objective(*args, work=work)
                ll_ref, grad_ref = _objective(*args)
                assert ll == ll_ref == ref[0]
                assert (grad is None) == (grad_ref is None) == (not math.isfinite(ll))
                if grad is not None:
                    for x, y in zip(grad, grad_ref):
                        assert np.array_equal(x, y)
                lls.append(ll)
                args = (tied, mu, A[:2, :2], beta, cap, floor, b0, T)
                got, ref = _objective(*args, work=tied_work), _objective(*args)
                assert got[0] == ref[0] and (got[1] is None) == (ref[1] is None)
                for x, y in zip(got[1] or (), ref[1] or ()):
                    assert np.array_equal(x, y)
            assert lls[3] == -np.inf and all(map(math.isfinite, lls[:3] + lls[4:]))
            if T > 1:  # the floor clamps somewhere
                assert (_gamma_series(before, *points[2][3:])[0] == 0.3).any()


def _without_work(monkeypatch):
    # the fit's kernels with the workspace keyword dropped: every call allocates
    for name in ("excitation_series", "excitation_beta_series", "loglik_grads"):
        def stripped(*args, _orig=getattr(_kernels.ACTIVE, name), work=None):
            return _orig(*args)
        monkeypatch.setattr(_kernels.ACTIVE, name, stripped)


@pytest.mark.parametrize("n, m, T, epochs", [(24, 6, 300, 50), (96, 12, 300, 20)])
def test_fit_on_a_workspace_equals_the_allocating_fit(monkeypatch, n, m, T, epochs):
    # the tied fit, at the topology's width, and the free one, at n
    panel, topo, _ = generate_synthetic(n, m, T, seed=4)
    cfg = FitConfig(epochs=epochs)
    for coupling in (topo, None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            a = fit(panel, coupling, cfg, seed=2)
            with monkeypatch.context() as mp:
                _without_work(mp)
                b = fit(panel, coupling, cfg, seed=2)
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.A, b.A)
        assert a.beta == b.beta and a.cap == b.cap and a.meta == b.meta
        assert a.meta.epochs_run == epochs


def test_objective_on_a_workspace_allocates_no_panel_arrays():
    # a warm call writes every (T, n) array into the workspace; what it still
    # allocates is (n,) and (n, n) results, B's gathered rows and dA's block
    # sums, (T,) saturation factors and numpy's own iterator buffers.  With
    # allocating kernels the peak is 7-10.
    import tracemalloc

    rng = np.random.default_rng(32)
    T, n = 300, 96
    counts = rng.poisson(1.0, (T, n)).astype(np.float64)
    args = (_Tied(counts, np.arange(n)), rng.uniform(0.2, 1.0, n),
            rng.uniform(0.0, 0.5 / n, (n, n)), 0.9, 4.0 * counts.sum(), 0.0, 0, T)
    work = _kernels.ACTIVE.workspace(counts, 0, T)
    _objective(*args, work=work)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _objective(*args, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * T * n * 8


def test_fit_rejects_tiny_panels():
    with pytest.raises(PreconditionError):
        fit(np.zeros((1, 2), dtype=int), None, FitConfig(epochs=5))


def test_a_fit_step_past_float_range_is_halved_without_numpy_warnings():
    # a step of 1e4 sends log mu, log B and log cap past float range: the math
    # range error of the cap, or with no cap fitted numpy's overflow of mu and
    # B, makes a trial with no finite likelihood, which is halved; a step of
    # 1e300 stays past float range through every halving.  B is (3, 3) under
    # the topology and the free (8, 8) A without it
    panel, topo, _ = generate_synthetic(8, 3, 90, seed=7)
    for coupling, fit_cap in itertools.product((topo, None), (True, False)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            model = fit(panel, coupling, FitConfig(learning_rate=1e4, fit_cap=fit_cap), seed=7)
        assert math.isfinite(model.meta.loglik_final)
        # the one warning is the stall's (test_a_fit_that_stalls_is_not_converged)
        assert [w.category for w in seen] == [UserWarning]
    for coupling in (topo, None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="no finite likelihood"):
                fit(panel, coupling, FitConfig(learning_rate=1e300), seed=7)
    for rate in (math.inf, math.nan, 0.0):
        with pytest.raises(PreconditionError, match="learning_rate must be positive and finite"):
            FitConfig(learning_rate=rate)


def test_a_fit_that_stalls_is_not_converged():
    # the README quick-start panel at a step of 1e4: the first step lands
    # near e^600, the next gradient's square overflows Adam's second moment
    # in 8 coordinates (3 without the cap), which then never move, and the
    # likelihood they hold would read as converged at epoch 2; the point has
    # 8 + 9 + 2 coordinates with B tied to the 3 substations, 8 + 64 + 2 free
    panel, topo, _ = generate_synthetic(8, 3, 90, seed=7)
    for (coupling, size), (fit_cap, overflowed) in itertools.product(
            ((topo, 19), (None, 74)), ((True, 8), (False, 3))):
        with pytest.warns(UserWarning, match=f"the fit stalled at epoch 2: Adam's second "
                          f"moment overflowed in {overflowed} of {size} coordinates") as caught:
            model = fit(panel, coupling, FitConfig(learning_rate=1e4, fit_cap=fit_cap), seed=7)
        assert caught[0].filename == __file__
        meta = model.meta
        assert not meta.converged and meta.epochs_run == 1
        assert meta.loglik_final == meta.loglik_init
    # at the default step the moments stay finite: every epoch runs, unwarned
    for coupling in (topo, None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit(panel, coupling, FitConfig(epochs=50), seed=7).meta.epochs_run == 50


# the sha256 of mu, A, beta and cap's bytes, and the meta, of free fits of the
# README quick-start panel at 150 epochs, with and without the cap, as the
# (n, n) free fit computed them on the pure kernels under numpy 2.4.6, before
# the coupling became a block matrix
_FREE_FIT_NUMPY = "2.4.6"
_FREE_FIT_PINS = {
    True: ("d059b9b073bd6b0ac75dbbf39b885194469c71b585aad93f6d1494cc9b99a83e",
           -715.9564976082224, -683.0996214362415),
    False: ("f16a1a14e592ce76d75b637c9b8a46f0c6bfee72e1d4727e9d84f23a9d6afcb1",
            -685.4697821266634, -677.9491581871828),
}


def test_a_fit_without_topology_is_the_free_fit_byte_for_byte(monkeypatch):
    # the identity assignment: every block sum has one term and every gather
    # is a copy, so the fit makes the free fit's float operations.  The bytes
    # hold only where they were computed: the loop family's recursion and
    # numpy's exp, log and matmul on other builds agree to rounding, which
    # 150 Adam epochs carry into the last bits (the test's own sequential
    # kernels, run as plain Python, move the likelihoods by about 1e-15
    # relative), so the pure kernels are forced, and on another numpy only
    # the likelihoods are checked, to 1e-9 relative
    monkeypatch.setattr(_hawkes, "ACTIVE", _kernels.PURE)
    exact = np.__version__ == _FREE_FIT_NUMPY
    panel, _, _ = generate_synthetic(8, 3, 90, seed=7)
    for fit_cap, (digest, ll_init, ll_final) in _FREE_FIT_PINS.items():
        model = fit(panel.Y, None, FitConfig(epochs=150, fit_cap=fit_cap), seed=3)
        meta = model.meta
        assert (meta.epochs_run, meta.converged, meta.seed, meta.n_train_bins) == (150, False, 3, 90)
        assert meta.loglik_init == pytest.approx(ll_init, rel=1e-9, abs=0.0)
        assert meta.loglik_final == pytest.approx(ll_final, rel=1e-9, abs=0.0)
        if exact:
            h = hashlib.sha256()
            for x in (model.mu, model.A, np.float64(model.beta), np.float64(model.cap)):
                h.update(np.ascontiguousarray(x).tobytes())
            assert h.hexdigest() == digest
            assert (meta.loglik_init, meta.loglik_final) == (ll_init, ll_final)


def test_a_tied_fit_is_constant_on_each_substation_block():
    panel, _, _ = generate_synthetic(7, 2, 80, seed=12)
    topo = NetworkTopology.from_assignments(panel.circuit_ids, "aabbbab")
    model = fit(panel, topo, FitConfig(epochs=80), seed=1)
    s = topo.substation_of
    first = [int(members[0]) for members in topo.members]  # a circuit of each block
    B = model.A[np.ix_(first, first)]
    assert np.array_equal(model.A, B[np.ix_(s, s)])
    assert len(np.unique(model.A)) == 4


def test_the_tied_gradient_is_the_block_sum_of_the_full_gradient():
    # d ll / d log B[a, b] sums d ll / d log A[i, j] over the circuits of
    # blocks a and b, as every such A[i, j] is B[a, b]
    panel, topo, _ = generate_synthetic(12, 3, 60, seed=5)
    Y = panel.Y.astype(np.float64)
    rng = np.random.default_rng(6)
    s = topo.substation_of
    B = rng.uniform(0.01, 0.1, (3, 3))
    mu = rng.uniform(0.2, 1.0, 12)
    for cap in (math.inf, 3.0 * Y.sum()):
        model = HawkesModel(mu=mu, A=B[np.ix_(s, s)], beta=0.8, cap=cap)
        full = log_likelihood_gradient(model, Y)
        tied = _Tied(Y, s)
        ll, (g_mu, g_B, g_beta, g_cap) = _objective(tied, mu, B, 0.8, cap, 0.0, 0, len(Y))
        want = tied.block_sums(tied.block_sums(full.d_A, axis=0), axis=1)
        assert np.allclose(g_B, want, rtol=1e-12, atol=0.0)
        assert np.allclose([ll, g_beta, g_cap], [full.loglik, full.d_beta, full.d_cap],
                           rtol=1e-12, atol=0.0)
        assert np.allclose(g_mu, full.d_mu, rtol=1e-12, atol=0.0)


def test_a_tied_fit_forecasts_held_out_bins():
    # one (24, 6, 400) panel, its seed fixed before the fit was looked at:
    # fit bins 0-298 with the default settings, score bins 299-398
    panel, topo, _ = generate_synthetic(24, 6, 400, seed=21)
    Y = panel.Y[:399]
    model = fit(Y[:299], topo, FitConfig(), seed=21)
    assert model.branching_ratio < 1.0
    constant = _model(Y[:299].mean(axis=0), np.zeros((24, 24)))
    held_out = log_likelihood(model, Y, (299, 399))
    assert held_out > log_likelihood(constant, Y, (299, 399)) - 10.0


# -- simulation --------------------------------------------------------------

def test_one_step_simulation_zero_model_draws_zero():
    m = _model([0.0, 0.0], np.zeros((2, 2)))
    s = simulate_trajectory(m, np.zeros((3, 2), dtype=int), horizon=1, K=50, seed=1)[:, 0]
    assert s.shape == (50, 2) and s.dtype == np.int64
    assert np.all(s == 0)


def test_one_step_simulation_moments_match_poisson():
    m = _model([4.0], [[0.0]])
    s = simulate_trajectory(m, None, horizon=1, K=20_000, seed=0)[:, 0]
    mean = s.mean()
    assert abs(mean - 4.0) < 0.05
    assert abs(s.var() - 4.0) < 0.15


def test_one_step_simulation_deterministic_per_seed():
    m = _model([1.5, 0.5], np.full((2, 2), 0.1))
    h = np.array([[1, 0], [2, 1]])
    a = simulate_trajectory(m, h, horizon=1, K=40, seed=9)[:, 0]
    b = simulate_trajectory(m, h, horizon=1, K=40, seed=9)[:, 0]
    c = simulate_trajectory(m, h, horizon=1, K=40, seed=10)[:, 0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trajectory_first_step_equals_single_bin_simulation():
    m = _model([1.0, 2.0], np.full((2, 2), 0.15))
    h = np.array([[0, 1], [3, 0]])
    traj = simulate_trajectory(m, h, horizon=4, K=25, seed=7)
    s = simulate_trajectory(m, h, horizon=1, K=25, seed=7)[:, 0]
    assert traj.shape == (25, 4, 2)
    assert np.array_equal(traj[:, 0, :], s)


def test_trajectory_respects_saturation_cap():
    m = _model([3.0, 3.0], np.full((2, 2), 0.2), cap=50.0)
    traj = simulate_trajectory(m, None, horizon=40, K=200, seed=11)
    for k in range(traj.shape[0]):
        per_bin = traj[k].sum(axis=1)
        cum = per_bin.cumsum()
        # totals may overshoot only by the bin that crosses the cap
        over = np.nonzero(cum >= 50.0)[0]
        if over.size:
            first = over[0]
            assert cum[-1] <= 50.0 + per_bin[first]
            assert np.all(per_bin[first + 1:] == 0)


def test_trajectory_mean_flat_without_excitation_or_cap():
    m = _model([3.0], [[0.0]])
    traj = simulate_trajectory(m, None, horizon=5, K=4000, seed=13)
    means = traj[:, :, 0].mean(axis=0)
    assert abs(means[0] - means[-1]) < 0.2
    assert np.all(np.abs(means - 3.0) < 0.2)


def test_trajectory_generators_match_the_scalar_streams(monkeypatch, generator_streams):
    # oracle: numpy's own Generator per trajectory, one random call per row
    # and step; rates span the inversion and PTRS draws, and the seeds take
    # both the in-pool and the post-pool (4+ word) SeedSequence paths
    m = _model([2.0, 35.0, 0.5], np.full((3, 3), 0.1), cap=400.0)
    h = np.array([[1, 30, 0], [0, 41, 2]])

    def run(build, seed):
        made = []
        # the walk seeds with one seed per start bin: here the one start
        monkeypatch.setattr(_rng, "streams",
                            lambda seeds, K: made.append(build(*seeds, K)) or made[-1])
        traj = simulate_trajectory(m, h, horizon=6, K=30, seed=seed)
        return traj, [made[0].generator(k).bit_generator.state for k in range(30)]

    streams = _rng.streams
    for seed in (0, 7, 2**64 + 5, 2**100 + 9, _rng.derive(5, "cal", 40)):
        got, got_states = run(streams, seed)
        want, want_states = run(generator_streams, seed)
        assert np.array_equal(got, want), seed
        assert got_states == want_states, seed


def test_walk_draws_each_start_bin_as_its_own_trajectory(monkeypatch):
    # several start bins of several steps each, in blocks whose cells count
    # the horizon, the last start one past the panel: every start's K
    # trajectories are those of simulate_trajectory on its own prefix and seed
    m = _model([0.4, 2.0, 0.1], np.full((3, 3), 0.15), beta=0.8, cap=300.0)
    Y = np.random.default_rng(3).poisson(1.0, size=(12, 3)).astype(float)
    K, horizon = 3, 4
    monkeypatch.setattr(_hawkes, "_BLOCK_CELLS", 2 * K * horizon * 3 + 1)
    seeds = [_rng.derive(9, t) for t in range(5, 13)]
    blocks = list(_hawkes._walk(m, Y, 5, 13, seeds, K, horizon))
    assert [t for t, _ in blocks] == [5, 7, 9, 11]
    assert all(b.shape == (2, K, horizon, 3) for _, b in blocks)
    for t, got in zip(range(5, 13), np.concatenate([b for _, b in blocks])):
        want = simulate_trajectory(m, Y[:t], horizon, K=K, seed=seeds[t - 5])
        assert np.array_equal(got, want), t
    # a model of no circuits has no draw cells, and its walk still runs
    assert simulate_trajectory(_model([], np.zeros((0, 0))), None, 3, K=2).shape == (2, 3, 0)


def test_simulation_argument_validation():
    m = _model([1.0], [[0.0]])
    with pytest.raises(PreconditionError):
        simulate_trajectory(m, None, horizon=1, K=0)
    with pytest.raises(PreconditionError):
        simulate_trajectory(m, None, horizon=0, K=5)


# -- model housekeeping --------------------------------------------------------

def test_model_save_load_round_trip_is_value_exact(tmp_path):
    meta_model = fit(
        np.array([[1, 0], [0, 2], [3, 1], [0, 0]]), None, FitConfig(epochs=10)
    )
    path = tmp_path / "model.json"
    meta_model.save(path)
    back = HawkesModel.load(path)
    assert np.array_equal(back.mu, meta_model.mu)
    assert np.array_equal(back.A, meta_model.A)
    assert back.beta == meta_model.beta
    assert back.cap == meta_model.cap
    assert back.meta.loglik_final == meta_model.meta.loglik_final

    inf_model = _model([1.0], [[0.2]])
    p2 = tmp_path / "inf.json"
    inf_model.save(p2)
    assert math.isinf(HawkesModel.load(p2).cap)


def test_model_json_rejects_cov_coef():
    doc = _model([1.0], [[0.0]]).to_dict()
    assert "cov_coef" not in doc
    assert HawkesModel.from_dict(dict(doc, cov_coef=None)).n == 1
    with pytest.raises(DataValidationError, match="cov_coef"):
        HawkesModel.from_dict(dict(doc, cov_coef=[0.5]))


def _without(key):
    return lambda doc: json.dumps({k: v for k, v in doc.items() if k != key}).encode()


def _with(**changes):
    return lambda doc: json.dumps(dict(doc, **changes)).encode()


# a fit's meta as a model document holds it
_META = {"epochs_run": 40, "loglik_init": -120.5, "loglik_final": -80.25, "converged": True,
         "seed": 7, "n_train_bins": 90}


# edit of a saved model document's bytes -> what the error says besides the file
_MALFORMED_MODELS = {
    **{f"no {key}": (_without(key), f"model document has no ['{key}']")
       for key in ("mu", "A", "beta", "cap", "floor")},
    "text beta": (_with(beta="x"), "model beta must be a number"),
    "null in mu": (_with(mu=[1.0, None]), "model mu must be a list of numbers"),
    "ragged A": (_with(A=[[0.1], [0.0, 0.1]]), "model A must be a matrix of numbers"),
    "listed floor": (_with(floor=[0.0]), "model floor must be a number"),
    "cov_coef": (_with(cov_coef=[0.5]), "model has cov_coef"),
    # out-of-range values: the model's own checks, reported as data errors
    "negative cap": (_with(cap=-5), "cap must be positive, got -5.0"),
    "floor above 1": (_with(floor=2.0), "floor must lie in [0, 1), got 2.0"),
    "zero beta": (_with(beta=0), "beta must be positive and finite"),
    "negative mu": (_with(mu=[1.0, -2.0]), "mu and A must be nonnegative"),
    "short circuit_ids": (_with(circuit_ids=["c0"]), "circuit_ids length must match mu"),
    # keys the reader would not read, or would read wrongly
    "unknown key": (_with(circuit_id=["c1", "c0"]),
                    "model document has unknown keys ['circuit_id']"),
    "n disagrees": (_with(n=99), "model n = 99 but mu has 2 entries"),
    "text circuit_ids": (_with(circuit_ids="ab"), "model circuit_ids must be a list"),
    # a fit's meta: every field of its type and in its range
    **{f"meta {key} {value!r}": (_with(meta={**_META, key: value}),
                                  f"model meta {key} must be {what}, got {value!r}")
       for key, value, what in (
           ("epochs_run", "x", "a whole number >= 0"),
           ("epochs_run", -1, "a whole number >= 0"),
           ("epochs_run", 2.0, "a whole number >= 0"),
           ("epochs_run", True, "a whole number >= 0"),
           ("loglik_init", None, "a finite number"),
           ("loglik_final", "-3.5", "a finite number"),
           ("loglik_final", False, "a finite number"),
           ("converged", 1, "true or false"),
           ("converged", "true", "true or false"),
           ("seed", -7, "a whole number >= 0"),
           ("seed", 7.5, "a whole number >= 0"),
           ("n_train_bins", 1, "a whole number >= 2"),
           ("n_train_bins", [90], "a whole number >= 2"))},
    "meta without seed": (_with(meta={k: v for k, v in _META.items() if k != "seed"}),
                          "meta must hold the FitMeta fields"),
    "meta with extra": (_with(meta={**_META, "lr": 0.01}), "meta must hold the FitMeta fields"),
    "listed meta": (_with(meta=[1, 2]), "meta must hold the FitMeta fields"),
    "not a mapping": (lambda doc: b"[1, 2]", "model document must be a JSON object"),
    "not UTF-8": (lambda doc: b'{"mu": "\xff"}', ":1: not UTF-8 text"),
    "truncated": (lambda doc: json.dumps(doc, indent=2).encode()[:-20], ": not a JSON document"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_MODELS))
def test_model_load_rejects_a_malformed_document_naming_the_file(tmp_path, case):
    # as for a panel document: a data error naming the file, where a missing
    # key, a text value and bad JSON raised a bare KeyError, ValueError and
    # JSONDecodeError
    edit, message = _MALFORMED_MODELS[case]
    doc = _model([1.0, 2.0], [[0.1, 0.0], [0.0, 0.1]], cap=50.0).to_dict()
    path = tmp_path / "model.json"
    path.write_bytes(_with()(doc))  # the unedited document loads
    assert HawkesModel.load(path).cap == 50.0
    path.write_bytes(_with(meta=_META)(doc))  # and so does one with a fit's meta
    assert vars(HawkesModel.load(path).meta) == _META
    path.write_bytes(edit(doc))
    with pytest.raises(DataValidationError) as caught:
        HawkesModel.load(path)
    assert str(caught.value).startswith(str(path)) and message in str(caught.value)


def test_explosive_parameters_warn():
    with pytest.warns(UserWarning):
        _model([1.0, 1.0], np.full((2, 2), 1.3), beta=1.0)
    # a ratio just above 1 prints above 1, and the warning names this file
    with pytest.warns(UserWarning, match="branching ratio") as caught:
        HawkesModel(mu=np.array([1.0]), A=np.array([[1.0004 / 0.5819767]]), beta=1.0)
    (w,) = caught
    ratio = float(str(w.message).split("= ")[1].split(" >")[0])
    assert ratio > 1.0
    assert w.filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _model([1.0, 1.0], np.full((2, 2), 0.45), beta=1.0)


def test_model_validation_rejects_bad_shapes():
    with pytest.raises(PreconditionError):
        HawkesModel(mu=np.array([1.0]), A=np.zeros((2, 2)), beta=1.0)
    with pytest.raises(PreconditionError):
        HawkesModel(mu=np.array([-1.0]), A=np.zeros((1, 1)), beta=1.0)
    with pytest.raises(PreconditionError):
        HawkesModel(mu=np.array([1.0]), A=np.zeros((1, 1)), beta=0.0)
    with pytest.raises(PreconditionError, match=r"^cap must be positive, got 0\.0$"):
        HawkesModel(mu=np.array([1.0]), A=np.zeros((1, 1)), beta=1.0, cap=0)
    with pytest.raises(PreconditionError, match=r"^floor must lie in \[0, 1\), got 1\.0$"):
        HawkesModel(mu=np.array([1.0]), A=np.zeros((1, 1)), beta=1.0, floor=1.0)


def test_model_rejects_non_finite_parameters():
    # a NaN passes the sign tests and would skip the branching-ratio warning
    with pytest.raises(PreconditionError, match="finite"):
        _model([1.0], [[math.nan]])
    with pytest.raises(PreconditionError, match="finite"):
        _model([math.inf], [[0.0]])
    with pytest.raises(PreconditionError, match="finite"):
        _model([1.0], [[0.0]], beta=math.inf)
    doc = _model([1.0], [[0.2]]).to_dict()
    with pytest.raises(PreconditionError, match="finite"):
        HawkesModel.from_dict(dict(doc, A=[[math.nan]]))
    with pytest.raises(PreconditionError, match="finite"):
        HawkesModel.from_dict(dict(doc, mu=[math.nan]))


def test_history_counts_are_checked():
    m = _model([1.0], [[0.5]])
    for bad in ([[-5]], np.array([[2], [-1]]), [[math.nan]]):
        with pytest.raises(DataValidationError, match="nonnegative"):
            intensity(m, bad)
        with pytest.raises(DataValidationError, match="nonnegative"):
            simulate_trajectory(m, bad, horizon=1, K=3)
        with pytest.raises(DataValidationError, match="nonnegative"):
            simulate_trajectory(m, bad, horizon=2, K=3)
    with pytest.raises(PreconditionError, match="matrix"):
        intensity(m, [[[1]]])
    with pytest.raises(PreconditionError, match="columns"):
        simulate_trajectory(m, [[1, 2]], horizon=1, K=3)
    # None and an empty array stay the empty history of the first bin
    for empty in (None, [], np.zeros((0, 1))):
        assert np.array_equal(intensity(m, empty), m.mu)


def test_one_step_simulation_reads_its_history_once(monkeypatch):
    m = _model([1.0, 0.5], [[0.2, 0.0], [0.1, 0.3]])
    history = np.array([[1, 0], [2, 3], [0, 1]])
    read = []
    reader = _hawkes._panel_counts
    monkeypatch.setattr(_hawkes, "_panel_counts",
                        lambda panel, *a: read.append(np.shape(panel)) or reader(panel, *a))
    s = simulate_trajectory(m, history, horizon=1, K=4, seed=2)[:, 0]
    assert read.count(history.shape) == 1  # the (4, 1, 2) draws are not a history
    assert s.shape == (4, 2)
    for empty in ([], np.zeros((0, 2))):
        assert np.array_equal(simulate_trajectory(m, empty, horizon=1, K=4, seed=2),
                              simulate_trajectory(m, None, horizon=1, K=4, seed=2))


def test_a_runaway_simulation_is_a_numerical_error():
    # rates that grow past 2**53 used to end in an OverflowError from the draw
    with pytest.warns(UserWarning, match="branching ratio"):
        model = HawkesModel(mu=np.ones(4), A=np.full((4, 4), 3.0), beta=1.0)
    with pytest.raises(NumericalError, match="2\\*\\*53"):
        simulate_trajectory(model, None, horizon=30, K=2, seed=1)

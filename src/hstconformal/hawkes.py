"""Discrete-time multivariate Hawkes count model with saturation.

Counts live on a fixed bin grid.  Given the history of bins before t, the
bin-t intensity for circuit i is

    lambda_it = gamma_t * ( mu_i + sum_{t'<t} sum_{i'} A[i,i'] * y_{i',t'}
                            * beta * exp(-beta * (t - t')) )

with saturation factor gamma_t = max(floor, 1 - N_{<t}/cap) where N_{<t} is
the network-wide cumulative count before t; ``HawkesModel`` holds the cap and
floor next to mu, A and beta.  Counts in bin t are Poisson with mean lambda_it
given the history; events within a bin share the bin timestamp, so thinning
over the piecewise-constant intensity reduces exactly to one Poisson draw per
circuit per bin.

Likelihood values omit the log(y!) term throughout: it is constant in the
parameters, so fitting and model comparison are unaffected.

Every entry reads its counts or history through one checked reader,
``_panel_counts``; where a panel meets a topology, ``_topology_counts`` also
holds it to the topology's circuit order.  Simulations return plain int64
arrays of (K, horizon, n) trajectories.  Every scenario, calibration's too,
comes from one walk (``_walk``), whose one-row case is
``simulate_trajectory``.  The intensity, the likelihood and the walk
read their states off one scan (``_start_states``), and ``fit`` optimizes
one layout (``_pack``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import rng as _rng
from ._kernels import ACTIVE
from .errors import (DataValidationError, NumericalError, PreconditionError, check_circuits,
                     check_integer, document_keys, document_numbers, freeze, read_json,
                     write_json)

_MODEL_FORMAT = "hstconformal-model-v1"
_GAMMA_FORM = "linear_saturation_v1"
# the numbers of a model document: key, dimensions, and what they must be
_MODEL_NUMBERS = (("mu", 1, "a list of numbers"), ("A", 2, "a matrix of numbers"),
                  ("beta", 0, "a number"), ("cap", 0, "a number"), ("floor", 0, "a number"))
_INF = "inf"  # the document's spelling of an infinite cap
# every key a model document may hold; a null cov_coef is read as absent
_MODEL_KEYS = ("format", "gamma_form", "n", "circuit_ids", *(k for k, _, _ in _MODEL_NUMBERS),
               "meta", "cov_coef")

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_MAX_HALVINGS = 60
_CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Adam epoch budget and step size, and whether to fit the cap: the one
    declaration of the fit settings, extended by ``PipelineSettings``."""

    epochs: int = 1000
    learning_rate: float = 0.01
    fit_cap: bool = True

    def __post_init__(self):
        check_integer(self.epochs, "epochs")
        if self.epochs < 1:
            raise PreconditionError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise PreconditionError("learning_rate must be positive and finite")


@dataclass(frozen=True)
class FitMeta:
    epochs_run: int
    loglik_init: float
    loglik_final: float
    converged: bool
    seed: int
    n_train_bins: int


@dataclass(frozen=True, eq=False)
class HawkesModel:
    """Immutable parameter set; see the module docstring for the intensity.

    ``cap`` is the network-wide adoption cap and ``floor`` the lower clamp of
    the saturation factor.
    """

    mu: np.ndarray
    A: np.ndarray
    beta: float
    cap: float = math.inf
    floor: float = 0.0
    circuit_ids: tuple | None = None
    meta: FitMeta | None = None

    def __post_init__(self):
        for k in ("beta", "cap", "floor"):
            object.__setattr__(self, k, float(getattr(self, k)))
        mu, A = freeze(self, "mu", "A", dtype=np.float64)
        if mu.ndim != 1:
            raise PreconditionError("mu must be a vector")
        n = mu.shape[0]
        if A.shape != (n, n):
            raise PreconditionError(f"A must be ({n}, {n}), got {A.shape}")
        # a NaN would pass the sign tests and the branching-ratio check below
        if not (np.isfinite(mu).all() and np.isfinite(A).all()):
            raise PreconditionError("mu and A must be finite")
        if (mu < 0).any() or (A < 0).any():
            raise PreconditionError("mu and A must be nonnegative")
        if not 0 < self.beta < math.inf:
            raise PreconditionError("beta must be positive and finite")
        if not self.cap > 0:
            raise PreconditionError(f"cap must be positive, got {self.cap}")
        if not (0.0 <= self.floor < 1.0):
            raise PreconditionError(f"floor must lie in [0, 1), got {self.floor}")
        if self.circuit_ids is not None and len(self.circuit_ids) != n:
            raise PreconditionError("circuit_ids length must match mu")
        rowsum = float(A.sum(axis=1).max()) if n else 0.0
        # an event adds beta * e^(-beta * d) to the excitation at lag d, so
        # its expected offspring count is the row sum times the summed mass
        mass = self.beta * math.exp(-self.beta) / -math.expm1(-self.beta)
        if rowsum * mass > 1.0:
            # repr never rounds a ratio above 1 down to "1"; stacklevel 3
            # skips the dataclass __init__ and names the code that built the model
            warnings.warn(
                f"largest branching ratio = {rowsum * mass!r} > 1: "
                "excitation may be explosive",
                UserWarning,
                stacklevel=3,
            )

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        numbers = {k: np.asarray(getattr(self, k)).tolist() for k, _, _ in _MODEL_NUMBERS}
        return {
            "format": _MODEL_FORMAT,
            "gamma_form": _GAMMA_FORM,
            "n": self.n,
            "circuit_ids": list(self.circuit_ids) if self.circuit_ids else None,
            **{k: _INF if v == math.inf else v for k, v in numbers.items()},
            "meta": None if self.meta is None else asdict(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HawkesModel":
        document_keys(doc, _MODEL_KEYS, "model")
        if doc.get("format") != _MODEL_FORMAT:
            raise DataValidationError(f"unsupported model format {doc.get('format')!r}")
        if doc.get("gamma_form") != _GAMMA_FORM:
            raise DataValidationError(f"unsupported saturation form {doc.get('gamma_form')!r}")
        if doc.get("cov_coef") is not None:
            raise DataValidationError("model has cov_coef; the model has no covariate term")
        try:
            meta = None if doc.get("meta") is None else FitMeta(**doc["meta"])
        except TypeError:
            raise DataValidationError("meta must hold the FitMeta fields") from None
        missing = [k for k, _, _ in _MODEL_NUMBERS if k not in doc]
        if missing:
            raise DataValidationError(f"model document has no {missing}")
        numbers = {k: document_numbers(math.inf if doc[k] == _INF else doc[k],
                                       f"model {k} must be {what}", ndim)
                   for k, ndim, what in _MODEL_NUMBERS}
        if "n" in doc and doc["n"] != len(numbers["mu"]):
            raise DataValidationError(f"model n = {doc['n']!r} but mu has "
                                      f"{len(numbers['mu'])} entries")
        cids = doc.get("circuit_ids")
        if cids is not None and not isinstance(cids, list):
            raise DataValidationError("model circuit_ids must be a list")
        return cls(**numbers, circuit_ids=None if cids is None else tuple(cids), meta=meta)

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "HawkesModel":
        return read_json(path, cls.from_dict)


# ---------------------------------------------------------------------------
# Shared helpers.

def _panel_counts(panel, n: int | None = None) -> np.ndarray:
    """The nonnegative whole (bins, circuits) counts of a ``CountPanel`` or an
    array as floats, in ``n`` columns when ``n`` is given, which makes a None or
    empty history the (0, n) panel: the one reader of counts and histories.
    Counts and panel totals from 2**53 on are rejected: float64 holds whole
    numbers exactly only below it, so every running total is exact."""
    Y = np.asarray([] if panel is None else getattr(panel, "Y", panel))
    if Y.dtype.kind not in "biuf":  # float64 would parse numeric strings
        raise DataValidationError("counts must be numbers")
    Y = Y.astype(np.float64, copy=False)
    if n is not None and Y.shape == (0,):
        Y = Y.reshape(0, n)
    if Y.ndim != 2:
        raise PreconditionError("counts must form a (bins, circuits) matrix")
    if n is not None:
        check_circuits(Y.shape[1], n, "count")
    if not (Y >= 0).all():  # NaN fails this test too
        raise DataValidationError("counts must be nonnegative")
    if not ((Y < 2.0**53) & (Y == np.floor(Y))).all():  # inf fails the bound
        raise DataValidationError("counts must be whole numbers below 2**53")
    # a float sum of whole numbers that reaches 2**53 stays at or above it
    if not Y.sum() < 2.0**53:
        raise DataValidationError("counts must total below 2**53")
    return Y

def _topology_counts(panel, topo) -> np.ndarray:
    """``_panel_counts`` of ``panel`` with one column per circuit of ``topo``, in
    its order: a ``CountPanel`` that names its circuits must name the topology's
    in the same order.  The one check wherever a panel meets a topology."""
    Y = _panel_counts(panel, topo.n)
    ids = panel.circuit_ids if hasattr(panel, "Y") else None  # read as _panel_counts does
    if ids is not None and ids != topo.circuit_ids:
        raise DataValidationError("panel circuit ordering disagrees with topology")
    return Y

def _count_before(counts: np.ndarray) -> np.ndarray:
    """T+1 network-wide totals: the count before each bin, then after the panel."""
    return np.concatenate(([0.0], np.cumsum(counts.sum(axis=1))))

def _gamma_series(before: np.ndarray, cap: float, floor: float):
    """Saturation factors for each bin plus d(gamma)/d(cap), zero where clamped."""
    raw = 1.0 - before / cap
    gamma = np.maximum(floor, raw)
    if math.isinf(cap):
        dgam = np.zeros(before.shape[0])
    else:
        dgam = np.where(raw > floor, before / (cap * cap), 0.0)
    return gamma, dgam

def _normalize_bins(bins, T: int):
    if bins is None:
        return 0, T
    if isinstance(bins, range):
        b0, b1 = bins.start, bins.stop
        if bins.step != 1:
            raise PreconditionError("bin range must have step 1")
    else:
        try:
            b0, b1 = bins
        except (TypeError, ValueError):
            raise PreconditionError("bin range must be a range or a (start, stop) pair") from None
        check_integer(b0, "bin range start")
        check_integer(b1, "bin range stop")
        b0, b1 = int(b0), int(b1)
    if not (0 <= b0 < b1 <= T):
        raise PreconditionError(f"bin range [{b0}, {b1}) outside panel of {T} bins")
    return b0, b1


def intensity(model: HawkesModel, history) -> np.ndarray:
    """Intensity vector for the bin immediately after ``history``.

    ``history`` holds counts for all earlier bins, one row per bin; an empty
    or None history gives the pure-baseline first bin.
    """
    G, before = _start_states(model, _panel_counts(history, model.n))
    gamma = max(model.floor, 1.0 - float(before[-1]) / model.cap)
    return gamma * (model.mu + model.A @ G[-1])


def log_likelihood(model: HawkesModel, panel, bins=None) -> float:
    """Poisson log likelihood of the selected bins given prior history.

    The log(y!) term is omitted (constant in parameters).  Returns -inf when
    any selected cell has a positive count and a zero intensity, or any
    selected cell an infinite one.  The value of the gradient kernel, so the
    value that ``fit`` maximizes, bit for bit.
    """
    counts = _panel_counts(panel, model.n)
    b0, b1 = _normalize_bins(bins, counts.shape[0])
    G, before = _start_states(model, counts)
    gamma, _ = _gamma_series(before, model.cap, model.floor)
    return float(ACTIVE.loglik_value(counts, G, gamma, model.mu, model.A, b0, b1))


@dataclass(frozen=True, eq=False)
class GradientResult:
    """Gradient in the unconstrained parameterization (see ``fit``)."""

    loglik: float
    d_mu: np.ndarray
    d_A: np.ndarray
    d_beta: float
    d_cap: float

    def __post_init__(self):
        freeze(self, "d_mu", "d_A")


def _objective(counts: np.ndarray, before: np.ndarray, mu, A, beta: float,
               cap: float, floor: float, b0: int, b1: int, work=None):
    """Log likelihood of bins [b0, b1) and its unconstrained gradient.

    ``before`` is ``_count_before(counts)``; ``work``, from
    ``ACTIVE.workspace(counts, b0, b1)``, holds the kernels' arrays, which
    they allocate when it is None.  Returns ``(ll, (g_mu, g_A, g_beta,
    g_cap))``, or ``(ll, None)`` when ll is not finite.  The one objective
    behind ``fit`` and ``log_likelihood_gradient``.
    """
    G = ACTIVE.excitation_series(counts, beta, work=work)
    H = ACTIVE.excitation_beta_series(counts, beta, G, work=work)
    gamma, dgam = _gamma_series(before, cap, floor)
    ll, dmu, dA, dbeta, dcap = ACTIVE.loglik_grads(counts, G, H, gamma, dgam, mu, A,
                                                   b0, b1, work=work)
    if not math.isfinite(ll):
        return float(ll), None
    # mu, A, cap use an exponential map; beta a softplus map, whose derivative
    # expressed through the constrained value is 1 - exp(-beta).
    g_cap = 0.0 if math.isinf(cap) else dcap * cap
    return float(ll), (dmu * mu, dA * A, dbeta * (1.0 - math.exp(-beta)), g_cap)


def log_likelihood_gradient(model: HawkesModel, panel, bins=None) -> GradientResult:
    """Exact gradient of ``log_likelihood`` in unconstrained coordinates.

    Coordinates: log mu, log A (elementwise), inverse-softplus beta, log cap.
    Raises NumericalError when the likelihood is not finite at the point.
    """
    counts = _panel_counts(panel, model.n)
    b0, b1 = _normalize_bins(bins, counts.shape[0])
    ll, grad = _objective(counts, _count_before(counts), model.mu, model.A, model.beta,
                          model.cap, model.floor, b0, b1,
                          work=ACTIVE.workspace(counts, b0, b1))
    if grad is None:
        raise NumericalError("log likelihood is not finite at this parameter point")
    g_mu, g_A, g_beta, g_cap = grad
    return GradientResult(ll, g_mu, g_A, float(g_beta), float(g_cap))


# ---------------------------------------------------------------------------
# Fitting.

def _softplus(u: float) -> float:
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)

def _softplus_inv(x: float) -> float:
    # log(exp(x) - 1), stable for small and large x
    return x + math.log(-math.expm1(-x))


def _pack(u_mu, u_A, u_beta, u_cap) -> np.ndarray:
    """The optimizer's flat point: log mu, log A, inverse-softplus beta, log cap."""
    return np.concatenate([u_mu, u_A.ravel(), [u_beta, u_cap]])

def _unpack(u: np.ndarray, n: int):
    """mu, A, beta and cap of a point from ``_pack``."""
    return (np.exp(u[:n]), np.exp(u[n:n + n * n].reshape(n, n)),
            _softplus(float(u[n + n * n])), math.exp(float(u[-1])))


# a trial whose mu, A or cap leaves float range has no finite likelihood (an
# infinite or nan rate, or a nan saturation factor where the cap is 0) and is
# halved, and a gradient whose square overflows stops its coordinate's steps:
# numpy's float warnings on the way say no more
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit(panel, topo, cfg: FitConfig = FitConfig(), seed: int = 0) -> HawkesModel:
    """Maximize the likelihood by adaptive-moment gradient ascent.

    Fits mu, the full coupling matrix A, beta and, with ``cfg.fit_cap``,
    the cap; the saturation floor is 0.  Parameters are optimized in
    unconstrained space (exponential map for mu, A, cap; softplus for beta)
    from a scale-aware initialization with a +/-10% perturbation drawn from
    ``seed`` (recorded in ``FitMeta.seed``); ``cfg`` may be ``PipelineSettings``.
    The returned model is the best point seen, so its likelihood never
    falls below the initialization value.  Steps that land on a non-finite
    likelihood, or on a point whose mu, A or cap overflows, are retried with
    halved length; when no halving is finite, NumericalError.
    Each trial point costs one objective evaluation: its gradient is taken
    together with its likelihood and drives the next step once accepted.
    All evaluations write into one kernel workspace (``ACTIVE.workspace``),
    built once per fit with the cumulative bin totals of the saturation
    factor, so an epoch allocates no (T, n) array; the results are bit for
    bit those of the allocating kernels.
    The fit stops early once the likelihood changes by at most
    ``_CONVERGENCE_TOL`` relative to the previous epoch.
    """
    counts = _panel_counts(panel) if topo is None else _topology_counts(panel, topo)
    T, n = counts.shape
    if T < 2:
        raise PreconditionError("need at least 2 training bins")
    total = float(counts.sum())

    gen = _rng.generator(seed, "fit")
    def perturb(shape=None):
        return 1.0 + 0.1 * gen.uniform(-1.0, 1.0, shape)

    mu0 = np.maximum(counts.mean(axis=0), 1e-3) * perturb(n)
    A0 = np.full((n, n), 1e-2) * perturb((n, n))
    beta0 = 1.0 * perturb()
    # when the cap is not optimized it stays switched off entirely; a frozen
    # finite cap would bake a spurious downward trend into every intensity.
    # Its coordinate is then log inf = inf with gradient 0, which Adam never moves.
    cap0 = max(2.0 * total, 1.0) * perturb() if cfg.fit_cap else math.inf
    u = _pack(np.log(mu0), np.log(A0), _softplus_inv(float(beta0)), math.log(cap0))

    before = _count_before(counts)
    work = ACTIVE.workspace(counts, 0, T)

    def evaluate(uvec):
        try:
            params = _unpack(uvec, n)
        except OverflowError:  # math.exp of the cap coordinate
            return -math.inf, None
        ll, grad = _objective(counts, before, *params, 0.0, 0, T, work=work)
        return ll, None if grad is None else _pack(*grad)

    ll, grads = evaluate(u)
    if not math.isfinite(ll):
        raise NumericalError("likelihood not finite at initialization")
    ll_init = ll
    best_ll, best_u = ll, u.copy()

    m = np.zeros_like(u)
    v = np.zeros_like(u)
    epochs_run = 0
    converged = False
    ll_prev = ll
    for k in range(1, cfg.epochs + 1):
        m = _ADAM_B1 * m + (1.0 - _ADAM_B1) * grads
        v = _ADAM_B2 * v + (1.0 - _ADAM_B2) * grads * grads
        mhat = m / (1.0 - _ADAM_B1**k)
        vhat = v / (1.0 - _ADAM_B2**k)
        delta = cfg.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)

        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            u_try = u + scale * delta
            ll, grads = evaluate(u_try)
            if math.isfinite(ll):
                break
            scale *= 0.5
        else:
            raise NumericalError(
                f"no finite likelihood along the ascent direction at epoch {k}"
            )
        u = u_try
        epochs_run = k

        if ll > best_ll:
            best_ll, best_u = ll, u.copy()
        if abs(ll - ll_prev) <= _CONVERGENCE_TOL * (1.0 + abs(ll_prev)):
            converged = True
            break
        ll_prev = ll

    mu, A, beta, cap = _unpack(best_u, n)
    meta = FitMeta(
        epochs_run=epochs_run,
        loglik_init=ll_init,
        loglik_final=best_ll,
        converged=converged,
        seed=seed,
        n_train_bins=T,
    )
    return HawkesModel(
        mu=mu,
        A=A,
        beta=beta,
        cap=cap,
        circuit_ids=None if topo is None else tuple(topo.circuit_ids),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Simulation.

def _start_states(model: HawkesModel, counts: np.ndarray):
    """The state before each bin of read ``counts`` and after the last, from one scan.

    Returns (G, before), T+1 rows each: row t is the excitation and network
    total of ``counts[:t]`` bit for bit, as the scan is prefix-consistent and
    a total of integer counts is exact in any order of summation.
    """
    return ACTIVE.excitation_series(counts, model.beta), _count_before(counts)


# not exported and called by no command: kept only because perfbench/tracing.py
# and tests/test_tracing.py bind the name
def simulate_bin(model: HawkesModel, history, K: int = 10, seed: int = 0) -> np.ndarray:
    """K independent (K, n) joint count draws for the bin after ``history``:
    the first step of ``simulate_trajectory`` with the same seed."""
    return simulate_trajectory(model, history, horizon=1, K=K, seed=seed)[:, 0]


def simulate_trajectory(model: HawkesModel, history, horizon: int, K: int = 10,
                        seed: int = 0) -> np.ndarray:
    """K recursive trajectories of shape (horizon, n) after ``history``.

    Each trajectory extends its own simulated history bin by bin, from the
    excitation and network-wide count of ``history``; trajectory k draws from
    the generator (seed, k) and is the same for every K > k.  The one-row
    case of ``_walk``, which starts from the state after the last bin.
    """
    counts = _panel_counts(history, model.n)
    ((_, traj),) = _walk(model, counts, len(counts), len(counts) + 1, [seed], K, horizon)
    return traj[0]


# the most draw cells (trajectories x steps x circuits) that one block of a
# walk simulates at once: the larger the block, the fewer kernel calls, and
# the more memory the block's temporaries take.  Streams.random peaks at
# 40-48 bytes per uniform (tracemalloc, 200 to 20,000 rows of 24); a K = 10
# calibrate of 100 bins at n = 24 peaks at 0.91 MiB here, 1.78 MiB at
# 20,000 cells and 2.10 MiB at 24,576 (tracemalloc), and 24,576 cells raise
# run-fit's peak RSS by 1.2-1.5 MiB (3-4%, seeds 1-3)
_BLOCK_CELLS = 8192


def _walk(model: HawkesModel, counts: np.ndarray, b0: int, b1: int, seeds, K: int,
          horizon: int):
    """Yield K trajectories of ``horizon`` steps from each start bin b0, ..., b1-1
    of the read ``counts`` in blocks of consecutive start bins: (t, (R, K,
    horizon, n) draws from bins t, ..., t+R-1), R*K*horizon*n at most
    ``_BLOCK_CELLS`` unless R is 1.  The one simulator of the package.

    Start bin t is row t of one scan of ``counts[:b1]`` (``_start_states``),
    the state after ``counts[:t]``, so b1 may be one past the last bin.  Its
    trajectory k draws from the generator (``seeds[t - b0]``, k), as
    ``simulate_trajectory`` on ``counts[:t]`` with that seed does, bit for
    bit.  One ``rng.streams`` hash seeds every stream.
    """
    check_integer(K, "K")
    if K < 1:
        raise PreconditionError("need K >= 1")
    check_integer(horizon, "horizon")
    if horizon < 1:
        raise PreconditionError("need horizon >= 1")
    G, before = _start_states(model, counts[:b1])
    streams = _rng.streams(seeds, K)
    bins = max(1, _BLOCK_CELLS // max(1, K * horizon * model.n))
    for t in range(b0, b1, bins):
        stop = min(t + bins, b1)
        draws = ACTIVE.simulate_counts(streams[(t - b0) * K:(stop - b0) * K], model.mu,
                                       model.A, model.beta, model.cap, model.floor,
                                       G[t:stop], before[t:stop], horizon)
        yield t, draws.reshape(stop - t, K, horizon, model.n)

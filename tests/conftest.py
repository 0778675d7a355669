"""Shared fixtures: the shipped benchmark model and small synthetic nets."""

import multiprocessing
import pathlib

import numpy as np
import pytest

from lstmpc import lstm, mpc, plant, sysid

ASSETS = pathlib.Path(__file__).resolve().parents[1] / "src" / "lstmpc" / "assets"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running."""
    yield
    left = multiprocessing.active_children()
    if left:
        for proc in left:
            proc.terminate()
            proc.join()
        pytest.fail(f"test left child processes running: {left}")


@pytest.fixture(scope="session")
def bench():
    """(weights, observer-doc) of the shipped benchmark model."""
    return lstm.load_weights(ASSETS / "model.json")


@pytest.fixture(scope="session")
def bench_w(bench):
    return bench[0]


@pytest.fixture()
def bench_cell(bench_w):
    """A one-step ``lstm.Workspace`` of the shipped model's shapes, for
    ``lstm.step``, the observer and the reference calculation."""
    return lstm.Workspace(bench_w.n, bench_w.m, 1)


@pytest.fixture(scope="session")
def bench_certificate(bench):
    """The shipped model's certificate at horizon 5 and state weight 1."""
    return mpc.certify(*bench)


@pytest.fixture(scope="session")
def bench_cert(bench_certificate):
    return bench_certificate.model


@pytest.fixture(scope="session")
def bench_spec(bench_certificate):
    return bench_certificate.spec


@pytest.fixture(scope="session")
def bench_nrm(bench_w):
    return plant.Normalizer(*bench_w.u_range, *bench_w.y_range)


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls; the list it appends to."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def small_net(seed=0, n=3, m=1, p=1, scale=0.1):
    """Small random network; small init keeps it contraction-certified."""
    cfg = sysid.TrainConfig(seed=seed, n_neurons=n, init_scale=scale, epochs=1)
    return sysid.init_weights(cfg, m=m, p=p)


@pytest.fixture()
def tiny_w():
    return small_net(seed=3, n=3)


def _gate_rows(name, n):
    """The stack that holds the weights file's array ``name`` (``"U_o"``,
    ``"b_f"``) and its rows there, for n cells."""
    stack, _, g = name.partition("_")
    k = lstm.GATES.index(g)
    return stack, slice(k * n, (k + 1) * n)


def gate(w, name):
    """The rows of ``w``'s stack that the weights file names ``name``: a read-only view."""
    stack, rows = _gate_rows(name, w.n)
    return getattr(w, stack)[rows]


def with_arrays(w, **arrays):
    """New weights: ``w`` with the named arrays replaced, a stored one
    (``U=``) or a gate's rows of a stack (``b_f=30.0``), each value
    broadcast to the array's shape. The one way the tests build a perturbed
    model, since weights are read-only."""
    params = {name: getattr(w, name).copy() for name in lstm.PARAMETERS}
    for name, value in arrays.items():
        stack, rows = (name, ...) if name in params else _gate_rows(name, w.n)
        params[stack][rows] = value
    return lstm.LstmWeights(**params, u_max=w.u_max, u_range=w.u_range, y_range=w.y_range)


def zero_net(n=2, m=1, p=1):
    return lstm.LstmWeights(np.zeros((4 * n, m)), np.zeros((4 * n, n)), np.zeros(4 * n),
                            np.zeros((p, n)), np.zeros(p))


def induced_inf_norm(m):
    """Induced infinity-norm, the maximum absolute row sum (oracle helper)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


def random_invariant_state(w, rng, bounds=None):
    """Random state inside the invariant set C x H."""
    g = bounds or lstm.gate_bounds(w)
    c_rad = g.sigma_i * g.sigma_c / (1.0 - g.sigma_f)
    c = rng.uniform(-c_rad, c_rad, w.n)
    h = g.sigma_o * np.tanh(c_rad) * rng.uniform(-1.0, 1.0, w.n)
    return lstm.LstmState(c, h)


def local_factors_oracle(c, cache):
    """A sweep's local factors (f, k_f, k_i, k_g, k_o, k_t), from its ``c``
    and ``cache``, with each sigmoid derivative as its own product."""
    sig, g, tc = cache
    n = tc.shape[1]
    f, i, o = sig[:, :n], sig[:, n:2 * n], sig[:, 2 * n:]
    return (f, f * (1.0 - f) * c[:-1], i * (1.0 - i) * g, i * (1.0 - g ** 2),
            o * (1.0 - o) * tc, o * (1.0 - tc ** 2))

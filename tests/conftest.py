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


def small_net(seed=0, n=3, m=1, p=1, scale=0.1):
    """Small random network; small init keeps it contraction-certified."""
    cfg = sysid.TrainConfig(seed=seed, n_neurons=n, init_scale=scale, epochs=1)
    return sysid.init_weights(cfg, m=m, p=p)


@pytest.fixture()
def tiny_w():
    return small_net(seed=3, n=3)


def zero_net(n=2, m=1, p=1):
    z_nm = np.zeros((n, m))
    z_nn = np.zeros((n, n))
    z_n = np.zeros(n)
    return lstm.LstmWeights(
        W_f=z_nm, W_i=z_nm.copy(), W_c=z_nm.copy(), W_o=z_nm.copy(),
        U_f=z_nn, U_i=z_nn.copy(), U_c=z_nn.copy(), U_o=z_nn.copy(),
        b_f=z_n, b_i=z_n.copy(), b_c=z_n.copy(), b_o=z_n.copy(),
        W_y=np.zeros((p, n)), b_y=np.zeros(p))


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

"""Identification pipeline: excitation design, dataset handling, training.

The trainer is backpropagation through time with an Adam update: each
``loss`` call runs one ``lstm.rollout`` and one ``lstm.adjoint``, the
reverse sweep over the model's step Jacobians. The loss carries soft
penalties on the two stability margins r1, r2 so the final network is
certifiable. Training only terminates once both margins are negative.
``TrainConfig`` rejects a learning rate that is not finite and positive,
an extension factor or width below 1 and a negative washout.
"""

import csv
import functools
import json
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from . import lstm, plant
from .errors import TrainingError, UndefinedMetricError
from .lstm import LstmWeights


def generate_excitation(seed, levels_range, hold_range, total_steps):
    """Multilevel pseudo-random staircase signal.

    Levels are uniform in ``levels_range``; each level is held for a
    uniformly random integer number of steps in ``hold_range`` (inclusive).
    """
    lo, hi = levels_range
    h_lo, h_hi = int(hold_range[0]), int(hold_range[1])
    if hi < lo or h_hi < h_lo or h_lo < 1 or total_steps < 1:
        raise ValueError("empty excitation ranges")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    out = np.empty(total_steps)
    k = 0
    while k < total_steps:
        hold = int(rng.integers(h_lo, h_hi + 1))
        out[k:k + hold] = rng.uniform(lo, hi)
        k += hold
    return out


@dataclass
class Dataset:
    """Normalized input/output sequences with their train/val/test split."""

    train: list
    val: list
    test: list
    normalizer: plant.Normalizer


def _excite(params, seed, steps, t_s, hold_range):
    """Simulate one excitation sequence from the nominal equilibrium.

    Returns the raw (u_phi, y_phi). The plant is called through the
    ``plant`` module at call time, so a wrapper installed there sees
    every call.
    """
    u_phi = generate_excitation(seed, plant.U_PHI_RANGE, hold_range, steps)
    x = plant.equilibrium(params)
    y_phi = np.empty(steps)
    for k in range(steps):
        y_phi[k] = plant.measure_ph(params, x)
        x = plant.plant_step(params, x, u_phi[k], params.q2_nominal, t_s)
    return u_phi, y_phi


def generate_dataset(params=None, seed=0, n_train=10, n_val=3, n_test=2,
                     steps=1500, t_s=plant.T_S, hold_range=(10, 100)):
    """Excite the pH plant and package the sampled responses.

    Every sequence starts at the nominal equilibrium with the buffer flow
    held at its nominal value; u and y are normalized by the min/max seen
    in the training split.

    The sequences are simulated in a pool of min(CPU count, sequences)
    worker processes, each running ``_excite`` on the sequence's own seed
    ``seed * 1000 + s``. The pool uses the fork start method (Linux only),
    so the workers see the ``plant`` module as it is at the call, and the
    output is bit-identical to simulating the sequences one after another.
    No worker outlives the call.
    """
    # Imported here so that the closed loops, which never build a dataset,
    # do not load the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if n_train < 1:
        raise ValueError(f"n_train must be at least 1, got {n_train}")
    for name, n in (("n_val", n_val), ("n_test", n_test)):
        if n < 0:
            raise ValueError(f"{name} must be nonnegative, got {n}")
    params = params or plant.PhParams()
    n_seq = n_train + n_val + n_test
    excite = functools.partial(_excite, params, steps=steps, t_s=t_s, hold_range=hold_range)
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, n_seq),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        raws = list(pool.map(excite, [seed * 1000 + s for s in range(n_seq)]))
    u_train = np.concatenate([u for u, _ in raws[:n_train]])
    y_train = np.concatenate([y for _, y in raws[:n_train]])
    nrm = plant.Normalizer(u_train.min(), u_train.max(), y_train.min(), y_train.max())
    seqs = [(nrm.normalize_u(u), nrm.normalize_y(y)) for u, y in raws]
    return Dataset(train=seqs[:n_train],
                   val=seqs[n_train:n_train + n_val],
                   test=seqs[n_train + n_val:],
                   normalizer=nrm)


def save_dataset(ds, directory, t_s=plant.T_S):
    """One CSV per sequence (t, u_raw, y_raw) plus a JSON manifest."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"normalization": {"u_lo": ds.normalizer.u_lo, "u_hi": ds.normalizer.u_hi,
                                  "y_lo": ds.normalizer.y_lo, "y_hi": ds.normalizer.y_hi},
                "splits": {}}
    idx = 0
    for split in ("train", "val", "test"):
        names = []
        for u, y in getattr(ds, split):
            name = f"seq_{idx:03d}.csv"
            with open(directory / name, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["t", "u_raw", "y_raw"])
                u_raw = ds.normalizer.denormalize_u(u)
                y_raw = ds.normalizer.denormalize_y(y)
                for k in range(len(u)):
                    wr.writerow([k * t_s, repr(float(u_raw[k])), repr(float(y_raw[k]))])
            names.append(name)
            idx += 1
        manifest["splits"][split] = names
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_dataset(directory):
    directory = pathlib.Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    nz = manifest["normalization"]
    nrm = plant.Normalizer(nz["u_lo"], nz["u_hi"], nz["y_lo"], nz["y_hi"])
    splits = {}
    for split, names in manifest["splits"].items():
        seqs = []
        for name in names:
            rows = np.loadtxt(directory / name, delimiter=",", skiprows=1)
            seqs.append((nrm.normalize_u(rows[:, 1]), nrm.normalize_y(rows[:, 2])))
        splits[split] = seqs
    return Dataset(train=splits["train"], val=splits["val"], test=splits["test"],
                   normalizer=nrm)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 1000
    lambda1: float = 0.03
    lambda2: float = 0.02
    washout: int = 50
    seed: int = 0
    n_neurons: int = 5
    init_scale: float = 0.1
    extension_factor: int = 5   # hard cap on the certification-driven overrun

    def __post_init__(self):
        if self.epochs < 0 or self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("epochs and penalty weights must be nonnegative")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name, least in (("extension_factor", 1), ("n_neurons", 1), ("washout", 0)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


def _forward(w, u_seq):
    """Open-loop rollout from the zero state over all but the last input.

    Returns (y_hat, c, h, cache, u2): outputs and states of shape (t, .)
    for the t = len(u_seq) samples, and the inputs as a (t, m) array.
    """
    u2 = np.asarray(u_seq, dtype=float).reshape(len(u_seq), -1)
    zero = np.zeros(w.n)
    c, h, cache = lstm.rollout(w, zero, zero, u2[:-1])
    return h @ w.W_y.T + w.b_y, c, h, cache, u2


def predict(w, u_seq):
    """Open-loop prediction from the zero initial state."""
    return _forward(w, u_seq)[0]


def loss(w, u_seq, y_seq, cfg):
    """Training loss (MSE past washout + stability-margin penalties) and
    its gradient with respect to each array in ``lstm.PARAMETERS``."""
    t = len(u_seq)
    y_seq = np.asarray(y_seq, dtype=float).reshape(t, -1)
    y_hat, c, h, cache, u2 = _forward(w, u_seq)
    mask = np.arange(t) >= cfg.washout
    n_eval = int(mask.sum())
    if n_eval == 0:
        raise TrainingError("washout leaves no evaluated steps")
    err = np.where(mask[:, None], y_hat - y_seq, 0.0)
    if not np.all(np.isfinite(err)):
        raise TrainingError("non-finite forward pass")
    mse = float(np.sum(err ** 2)) / n_eval

    grads = {}
    scale = 2.0 / n_eval
    grads["W_y"] = scale * err.T @ h
    grads["b_y"] = scale * err.sum(axis=0)
    out_grad = scale * err @ w.W_y
    dz = lstm.adjoint(w, c, cache, np.zeros_like(c), out_grad)
    grads["W"], grads["U"], grads["b"] = dz.T @ u2[:t - 1], dz.T @ h[:t - 1], dz.sum(axis=0)
    pen, r1, r2 = _penalty_with_grads(w, cfg, grads)
    return mse + pen, grads, (r1, r2)


def _inf_norm_grads(w):
    """Subgradients of each gate's || lstm._gate_block(W, U, b, u_max) ||_inf
    with respect to the stacked (W, U, b): the signs of its argmax row."""
    block = lstm._gate_block(w.W, w.U, w.b, w.u_max)
    n, m = w.n, w.m
    j = np.abs(block).sum(axis=1).reshape(4, n).argmax(axis=1) + n * np.arange(4)
    sub = np.zeros_like(block)
    sub[j] = np.sign(block[j])
    return w.u_max * sub[:, :m], sub[:, m:m + n], sub[:, -1]


def _penalty_with_grads(w, cfg, grads):
    """Add the r1/r2 penalty gradients into ``grads["W"]``, ``grads["U"]``
    and ``grads["b"]``; return its value and (r1, r2).

    r1, r2 and the forward quantities are lstm's certificate, from one
    ``gate_bounds`` and one ``jury_margins``; this is their adjoint.
    """
    g = lstm.gate_bounds(w)
    r1, r2 = lstm.jury_margins(w, g)
    pen = (cfg.lambda1 * max(r1, 0.0) + cfg.lambda1 * max(r2, 0.0)
           + cfg.lambda2 * min(r1, 0.0) + cfg.lambda2 * min(r2, 0.0))
    a_r1 = cfg.lambda1 if r1 > 0 else cfg.lambda2
    a_r2 = cfg.lambda1 if r2 > 0 else cfg.lambda2
    sf, si, so, sc = g.sigma_f, g.sigma_i, g.sigma_o, g.sigma_c
    cr, sx, alpha = g.cell_radius, g.sigma_x, g.alpha
    n = w.n
    # Each ||U||_2 (GATES order) and its gradient u1 v1^T from one SVD.
    u_sv, s_sv, vt_sv = np.linalg.svd(w.U.reshape(4, n, n))
    n_uf, n_ui, n_uo, n_uc = s_sv[:, 0].tolist()
    k1 = 0.25 * n_uo
    # Adjoints of the scalar pipeline (reverse order of its definition).
    a_sf = a_r1 * (1.0 - k1 * sx) + a_r2 * k1 * sx
    a_alpha = a_r1 * so
    a_so = a_r1 * alpha
    a_sx = a_r1 * k1 * (1.0 - sf) + a_r2 * k1 * sf
    a_nuo = a_r1 * 0.25 * sx * (1.0 - sf) + a_r2 * 0.25 * sf * sx
    a_nuf = a_alpha * 0.25 * cr
    a_cr = a_alpha * 0.25 * n_uf
    a_si = a_alpha * n_uc
    a_nuc = a_alpha * si
    a_nui = a_alpha * 0.25 * sc
    a_sc = a_alpha * 0.25 * n_ui
    a_cr += a_sx * (1.0 - sx ** 2)
    a_si += a_cr * sc / (1.0 - sf)
    a_sc += a_cr * si / (1.0 - sf)
    a_sf += a_cr * si * sc / (1.0 - sf) ** 2
    # Push into the stacked weight tensors.
    a_norm = np.repeat([a_sf * sf * (1.0 - sf), a_si * si * (1.0 - si),
                        a_so * so * (1.0 - so), a_sc * (1.0 - sc ** 2)], n)[:, None]
    gw, gu, gb = _inf_norm_grads(w)
    grads["W"] += a_norm * gw
    grads["U"] += a_norm * gu + (np.array([a_nuf, a_nui, a_nuo, a_nuc])[:, None, None]
                                 * u_sv[:, :, :1] * vt_sv[:, :1, :]).reshape(4 * n, n)
    grads["b"] += a_norm[:, 0] * gb
    return pen, r1, r2


def init_weights(cfg, m=1, p=1, u_range=None, y_range=None):
    """Uniform small-weight initialization; keeps gates near 1/2."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_neurons
    s = cfg.init_scale

    def mat(r, c):
        return rng.uniform(-s, s, size=(r, c))

    return LstmWeights(
        W_f=mat(n, m), W_i=mat(n, m), W_c=mat(n, m), W_o=mat(n, m),
        U_f=mat(n, n), U_i=mat(n, n), U_c=mat(n, n), U_o=mat(n, n),
        b_f=rng.uniform(-s, s, n), b_i=rng.uniform(-s, s, n),
        b_c=rng.uniform(-s, s, n), b_o=rng.uniform(-s, s, n),
        W_y=mat(p, n), b_y=rng.uniform(-s, s, p),
        u_max=1.0, u_range=u_range, y_range=y_range)


def train(data, cfg, init=None, callback=None):
    """Adam training over the training split, one sequence per update.

    The epoch loop runs for cfg.epochs epochs and then keeps going (up to
    ``extension_factor`` times as long) until both stability margins are
    negative; it fails rather than return an uncertified model.
    """
    u_range = (data.normalizer.u_lo, data.normalizer.u_hi)
    y_range = (data.normalizer.y_lo, data.normalizer.y_hi)
    w = init.copy() if init is not None else init_weights(
        cfg, m=1, p=1, u_range=u_range, y_range=y_range)
    if cfg.epochs == 0 and lstm.delta_iss_check(w).certified:
        return w
    rng = np.random.default_rng(cfg.seed + 1)
    mom = {name: np.zeros_like(getattr(w, name)) for name in lstm.PARAMETERS}
    vel = {name: np.zeros_like(getattr(w, name)) for name in lstm.PARAMETERS}
    step_count = 0
    b1, b2, eps = 0.9, 0.999, 1e-8
    margins = lstm.jury_margins(w)
    max_epochs = max(cfg.epochs, 1) * cfg.extension_factor
    for epoch in range(max_epochs):
        order = rng.permutation(len(data.train))
        epoch_loss = 0.0
        for s in order:
            u_seq, y_seq = data.train[s]
            try:
                value, grads, margins = loss(w, u_seq, y_seq, cfg)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}, sequence {s}: {exc}") from exc
            epoch_loss += value
            step_count += 1
            corr1 = 1.0 - b1 ** step_count
            corr2 = 1.0 - b2 ** step_count
            for name in lstm.PARAMETERS:
                g = grads[name]
                mom[name] = b1 * mom[name] + (1 - b1) * g
                vel[name] = b2 * vel[name] + (1 - b2) * g * g
                upd = (mom[name] / corr1) / (np.sqrt(vel[name] / corr2) + eps)
                getattr(w, name)[...] -= cfg.learning_rate * upd
        if callback is not None:
            callback(epoch, epoch_loss / max(len(order), 1), margins)
        if epoch + 1 >= cfg.epochs and margins[0] < 0 and margins[1] < 0:
            break
    else:
        raise TrainingError(
            f"no certificate after {max_epochs} epochs (r1={margins[0]:.4f}, r2={margins[1]:.4f})")
    if not lstm.delta_iss_check(w).certified:
        raise TrainingError("margins negative but spectral radius >= 1 (inconsistent state)")
    return w


def fit_index(y_real, y_pred):
    """FIT percentage: 100 (1 - ||y_real - y_pred|| / ||y_real - mean||)."""
    y_real = np.asarray(y_real, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if len(y_real) != len(y_pred) or len(y_real) < 2:
        raise ValueError("traces must have equal length >= 2")
    denom = np.linalg.norm(y_real - y_real.mean())
    if denom == 0.0:
        raise UndefinedMetricError("reference trace is constant")
    return float(100.0 * (1.0 - np.linalg.norm(y_real - y_pred) / denom))


def evaluate_fit(w, sequences, washout=50):
    """Mean FIT of open-loop predictions over a list of (u, y) sequences;
    raises UndefinedMetricError on an empty list."""
    fits = []
    for u_seq, y_seq in sequences:
        y_hat = predict(w, u_seq)[:, 0]
        fits.append(fit_index(np.asarray(y_seq)[washout:], y_hat[washout:]))
    if not fits:
        raise UndefinedMetricError("no sequences to evaluate FIT on")
    return float(np.mean(fits))

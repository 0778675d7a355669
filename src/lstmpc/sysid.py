"""Identification pipeline: excitation design, dataset handling, training.

The trainer is backpropagation through time with an Adam update: each
``loss`` call runs one rollout and one adjoint, the reverse sweep over the
model's step Jacobians, in the ``lstm.Workspace`` it is given, the one
``train`` builds for the sequence's length. The loss carries soft
penalties on the two stability margins r1, r2 so the final network is
certifiable; training only terminates once both margins are negative.
"""

import csv
import functools
import json
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from . import lstm, plant
from .errors import (FINITE, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT,
                     InstabilityError, TrainingError, UndefinedMetricError, check, check_object,
                     read_json)
from .lstm import LstmWeights

HOLD_RANGE = (10, 100)   # steps each excitation level is held, inclusive


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


def _excite(params, seed, steps):
    """Simulate one excitation sequence from the nominal equilibrium.

    Returns the raw (u_phi, y_phi). The plant is called through the
    ``plant`` module at call time, so a wrapper installed there sees
    every call.
    """
    u_phi = generate_excitation(seed, plant.U_PHI_RANGE, HOLD_RANGE, steps)
    x = plant.equilibrium(params)
    y_phi = np.empty(steps)
    for k in range(steps):
        y_phi[k] = plant.measure_ph(params, x)
        x = plant.plant_step(params, x, u_phi[k], params.q2_nominal, plant.T_S)
    return u_phi, y_phi


def generate_dataset(params=None, seed=0, n_train=10, n_val=3, n_test=2, steps=1500):
    """Excite the pH plant and package the sampled responses.

    Each sequence is ``steps`` samples, ``plant.T_S`` apart, of the plant's
    response to a staircase whose levels last ``HOLD_RANGE`` steps, from the
    nominal equilibrium with the nominal buffer flow; u and y are normalized
    by the min/max seen in the training split. A pool of min(CPUs the
    process may run on, sequences) forked worker processes (Linux only; the
    CPUs are ``os.sched_getaffinity``'s, not the machine's count) runs
    ``_excite`` on each sequence's own seed ``seed * 1000 + s``, so the
    workers see the ``plant`` module as it is at the call, the output is
    bit-identical to a serial run, and no worker outlives the call.
    """
    # Imported here so that the closed loops, which never build a dataset,
    # do not load the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    for name, value, rule in (("n_train", n_train, POSITIVE_INT), ("n_val", n_val, NONNEGATIVE_INT),
                              ("n_test", n_test, NONNEGATIVE_INT), ("steps", steps, POSITIVE_INT)):
        check(name, value, rule)
    params = params or plant.PhParams()
    n_seq = n_train + n_val + n_test
    excite = functools.partial(_excite, params, steps=steps)
    with ProcessPoolExecutor(max_workers=min(len(os.sched_getaffinity(0)), n_seq),
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


def save_dataset(ds, directory):
    """One CSV per sequence (t = k ``plant.T_S``, u_raw, y_raw) plus a JSON manifest."""
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
                    wr.writerow([k * plant.T_S, repr(float(u_raw[k])), repr(float(y_raw[k]))])
            names.append(name)
            idx += 1
        manifest["splits"][split] = names
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


# a split entry names a file of the dataset directory, so no entry reads
# the directory itself, a subdirectory or a file outside it
_FILE_NAME = (lambda v: v not in ("", ".", "..") and "\0" not in v
              and pathlib.PurePath(v).name == v, "a file name in the dataset directory")


def load_dataset(directory):
    """Inverse of ``save_dataset``; a ValueError names the manifest's field, or
    the file and line, that breaks the layout ``save_dataset`` writes. Every
    split entry is checked before any sequence file opens."""
    directory = pathlib.Path(directory)
    manifest = check_object("manifest", read_json(directory / "manifest.json"),
                            ("normalization", "splits"))
    nrm = plant.Normalizer(**check_object("normalization", manifest["normalization"],
                                          ("u_lo", "u_hi", "y_lo", "y_hi")))
    splits = check_object("splits", manifest["splits"], ("train", "val", "test"))
    for split, names in splits.items():
        check(f"{split} split", names, (lambda v: isinstance(v, list) and all(
            isinstance(name, str) for name in v), "a list of file names"))
        for k, name in enumerate(names):
            check(f"splits.{split}[{k}]", name, _FILE_NAME)
    return Dataset(**{split: [_read_sequence(directory / name, nrm) for name in names]
                      for split, names in splits.items()}, normalizer=nrm)


def _read_sequence(path, nrm):
    """The normalized (u, y) of one sequence file; the rows are checked as text
    before numpy parses each as data (no comment lines), so a file without rows
    raises no numpy warning, and a cell numpy does not read as a number is
    named by its file and line. A normalization pair that maps the file's
    distinct u or y samples all to one value is named by its fields."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name} is not text: {exc}") from None
    check(f"rows of {path.name} after its header", len(lines), (lambda v: v >= 1, "at least 1"))
    for k in [k for k, line in enumerate(lines) if line.count(",") != 2][:1]:
        check(f"{path.name} line {k + 2}", lines[k], (lambda v: v.count(",") == 2,
                                                      "3 comma-separated values"))
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        for k, line in enumerate(lines):
            check(f"{path.name} line {k + 2}", line, (_is_row, "3 comma-separated numbers"))
        raise
    with np.errstate(over="ignore"):        # a pair the normalization overflows is named here
        u, y = nrm.normalize_u(rows[:, 1]), nrm.normalize_y(rows[:, 2])
        for k in np.flatnonzero(~(np.isfinite(u) & np.isfinite(y)))[:1]:
            pair = rows[k, 1:].tolist()
            check(f"{path.name} line {k + 2}", pair, (
                lambda v: all(FINITE[0](x) for x in v), "a finite (u_raw, y_raw) pair"))
            check(f"{path.name} line {k + 2}", pair, (
                lambda v: bool(np.isfinite([nrm.normalize_u(v[0]), nrm.normalize_y(v[1])]).all()),
                "a (u_raw, y_raw) pair that the manifest's normalization maps to finite numbers"))
    for signal, raw, values in (("u", rows[:, 1], u), ("y", rows[:, 2], y)):
        lo, hi = f"{signal}_lo", f"{signal}_hi"
        collapsed = raw.min() < raw.max() and values.min() == values.max()
        check(f"({lo}, {hi})", (getattr(nrm, lo), getattr(nrm, hi)), (lambda v: not collapsed, (
            f"a pair that maps the distinct {signal}_raw samples of {path.name} to more than "
            "one value")))
    return u, y


def _is_row(line):
    """Whether numpy reads the text ``line`` as comma-separated numbers."""
    try:
        np.loadtxt([line], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


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
        for name, rule in (("learning_rate", POSITIVE), ("init_scale", POSITIVE),
                           ("lambda1", NONNEGATIVE), ("lambda2", NONNEGATIVE),
                           ("epochs", NONNEGATIVE_INT), ("washout", NONNEGATIVE_INT),
                           ("seed", NONNEGATIVE_INT), ("n_neurons", POSITIVE_INT),
                           ("extension_factor", POSITIVE_INT)):
            check(name, getattr(self, name), rule)


def _workspaces(w, sequences):
    """One ``lstm.Workspace`` of ``w``'s shapes per length t of the (u, y)
    ``sequences``, keyed by t: a t-sample sequence sweeps t - 1 steps."""
    return {t: lstm.Workspace(w.n, w.m, max(t - 1, 0)) for t in {len(u) for u, _ in sequences}}


def _forward(w, u_seq, workspace):
    """Open-loop rollout from the zero state over all but the last input,
    in the ``lstm.Workspace`` ``workspace`` of its length (``_workspaces``).
    Returns (y_hat, h, u2): the outputs and hidden states of the t =
    len(u_seq) samples, (t, p) and (t, n), and the inputs as a (t, m) array."""
    u2 = np.asarray(u_seq, dtype=float).reshape(len(u_seq), -1)
    zero = np.zeros(w.n)
    h = workspace.rollout(w, zero, zero, u2[:-1])[1]
    return h @ w.W_y.T + w.b_y, h, u2


def loss(w, u_seq, y_seq, cfg, workspace):
    """(value, grads): training loss (MSE past washout + stability-margin
    penalties) and its gradient for each array in ``lstm.PARAMETERS``.
    The rollout and its reverse sweep run in the ``lstm.Workspace``
    ``workspace`` of the sequence's length (``_workspaces``)."""
    t = len(u_seq)
    y_seq = np.asarray(y_seq, dtype=float).reshape(t, -1)
    y_hat, h, u2 = _forward(w, u_seq, workspace)
    mask = np.arange(t) >= cfg.washout
    n_eval = int(mask.sum())
    if n_eval == 0:
        raise TrainingError("washout leaves no evaluated steps")
    err = np.where(mask[:, None], y_hat - y_seq, 0.0)
    if not np.all(np.isfinite(err)):
        raise TrainingError("non-finite forward pass")
    mse = float(np.sum(err ** 2)) / n_eval

    scale = 2.0 / n_eval
    dz = workspace.adjoint(np.zeros_like(h), scale * err @ w.W_y)     # no loss term reads c
    grads = {"W": dz.T @ u2[:t - 1], "U": dz.T @ h[:t - 1], "b": dz.sum(axis=0),
             "W_y": scale * err.T @ h, "b_y": scale * err.sum(axis=0)}
    return mse + _penalty_with_grads(w, cfg, grads), grads


def _penalty_with_grads(w, cfg, grads):
    """Add the r1/r2 penalty gradients into ``grads["W"]``, ``grads["U"]``
    and ``grads["b"]``; return the penalty's value.

    r1 and r2 are lstm's certificate margins, from one ``gate_bounds``, and
    ``lstm.margin_adjoint`` their gradient; this weights them by lambda.
    """
    g = lstm.gate_bounds(w)
    r1, r2 = g.r1, g.r2
    pen = (cfg.lambda1 * max(r1, 0.0) + cfg.lambda1 * max(r2, 0.0)
           + cfg.lambda2 * min(r1, 0.0) + cfg.lambda2 * min(r2, 0.0))
    a_r1 = cfg.lambda1 if r1 > 0 else cfg.lambda2
    a_r2 = cfg.lambda1 if r2 > 0 else cfg.lambda2
    for name, grad in zip(("W", "U", "b"), lstm.margin_adjoint(w, g, a_r1, a_r2)):
        grads[name] += grad
    return pen


def init_weights(cfg, m=1, p=1, u_range=None, y_range=None):
    """Uniform small-weight initialization; keeps gates near 1/2. W, U and b
    are drawn gate by gate, in the order f, i, c, o, then stacked."""
    rng = np.random.default_rng(cfg.seed)
    n, s = cfg.n_neurons, cfg.init_scale
    stacks = [{g: rng.uniform(-s, s, (n, *cols)) for g in "fico"} for cols in ((m,), (n,), ())]
    W_y, b_y = rng.uniform(-s, s, (p, n)), rng.uniform(-s, s, p)
    return LstmWeights(*(np.concatenate(lstm.in_gate_order(**blocks)) for blocks in stacks),
                       W_y, b_y, u_range=u_range, y_range=y_range)


def train(data, cfg, init=None, callback=None):
    """Adam training over the training split, one sequence per update.

    The epoch loop runs for cfg.epochs epochs and then keeps going (up to
    ``extension_factor`` times as long) until both stability margins are
    negative; it fails rather than return an uncertified model. The stop
    test and ``callback(epoch, mean loss, (r1, r2))`` read the margins of
    the weights after the epoch's last update. The weights returned carry
    the training split's normalization ranges, even with no update; every
    ``loss`` call runs in the one ``lstm.Workspace`` of its sequence's
    length, built once per call.
    """
    if not data.train:
        raise TrainingError("the training split is empty")
    u_range = (data.normalizer.u_lo, data.normalizer.u_hi)
    y_range = (data.normalizer.y_lo, data.normalizer.y_hi)
    w = init if init is not None else init_weights(
        cfg, m=1, p=1, u_range=u_range, y_range=y_range)
    if cfg.epochs == 0 and (bounds := lstm.gate_bounds(w)).r1 < 0 and bounds.r2 < 0:
        return LstmWeights(*(getattr(w, name) for name in lstm.PARAMETERS), u_max=w.u_max,
                           u_range=u_range, y_range=y_range)
    workspaces = _workspaces(w, data.train)
    rng = np.random.default_rng(cfg.seed + 1)
    # Adam runs on flat vectors in ``lstm.PARAMETERS`` order; each update's
    # weights are built from the parameter arrays' views of their slices
    given = [getattr(w, name) for name in lstm.PARAMETERS]
    params = np.concatenate(given, axis=None)
    grad, mom, vel, upd, tmp = np.zeros((5, params.size))
    arrays = [part.reshape(a.shape) for part, a in zip(
        np.split(params, np.cumsum([a.size for a in given])[:-1]), given)]
    step_count = 0
    b1, b2, eps = 0.9, 0.999, 1e-8
    max_epochs = max(cfg.epochs, 1) * cfg.extension_factor
    for epoch in range(max_epochs):
        order = rng.permutation(len(data.train))
        epoch_loss = 0.0
        for s in order:
            u_seq, y_seq = data.train[s]
            try:
                value, grads = loss(w, u_seq, y_seq, cfg, workspaces[len(u_seq)])
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}, sequence {s}: {exc}") from exc
            epoch_loss += value
            step_count += 1
            corr1 = 1.0 - b1 ** step_count
            corr2 = 1.0 - b2 ** step_count
            np.concatenate([grads[name] for name in lstm.PARAMETERS], axis=None, out=grad)
            # mom = b1 mom + (1 - b1) g, vel = b2 vel + ((1 - b2) g) g, and
            # params -= lr ((mom / corr1) / (sqrt(vel / corr2) + eps)), in place
            np.multiply(mom, b1, mom)
            np.multiply(grad, 1 - b1, tmp)
            np.add(mom, tmp, mom)
            np.multiply(vel, b2, vel)
            np.multiply(grad, 1 - b2, tmp)
            np.multiply(tmp, grad, tmp)
            np.add(vel, tmp, vel)
            np.divide(mom, corr1, upd)
            np.divide(vel, corr2, tmp)
            np.sqrt(tmp, tmp)
            np.add(tmp, eps, tmp)
            np.divide(upd, tmp, upd)
            np.multiply(upd, cfg.learning_rate, upd)
            np.subtract(params, upd, params)
            w = LstmWeights(*arrays, u_max=w.u_max, u_range=u_range, y_range=y_range)
        margins = (bounds := lstm.gate_bounds(w)).r1, bounds.r2
        if callback is not None:
            callback(epoch, epoch_loss / max(len(order), 1), margins)
        if epoch + 1 >= cfg.epochs and margins[0] < 0 and margins[1] < 0:
            break
    else:
        raise TrainingError(
            f"no certificate after {max_epochs} epochs (r1={margins[0]:.4f}, r2={margins[1]:.4f})")
    try:
        lstm.incremental_lyapunov(w)
    except InstabilityError as exc:
        raise TrainingError(f"margins negative but {exc}") from exc
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
    """Mean FIT of open-loop predictions over a list of (u, y) sequences,
    each predicted in the one ``lstm.Workspace`` of its length, built here;
    raises UndefinedMetricError on an empty list. A sequence too short for
    the washout, or constant after it, is named by its position."""
    if not sequences:
        raise UndefinedMetricError("no sequences to evaluate FIT on")
    workspaces = _workspaces(w, sequences)
    fits = []
    for k, (u_seq, y_seq) in enumerate(sequences):
        y_hat = _forward(w, u_seq, workspaces[len(u_seq)])[0][:, 0]
        try:
            fits.append(fit_index(np.asarray(y_seq)[washout:], y_hat[washout:]))
        except (ValueError, UndefinedMetricError) as exc:     # too short, or constant
            raise type(exc)(f"sequence {k} after the washout of {washout}: {exc}") from None
    return float(np.mean(fits))

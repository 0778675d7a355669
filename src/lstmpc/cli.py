"""Command-line interface: gen-data, train, certify, simulate."""

import argparse
import dataclasses
import inspect
import json
import pathlib
import sys

from . import harness, lstm, mpc, sysid
from .errors import LstmpcError


def _cmd_gen_data(args):
    ds = sysid.generate_dataset(seed=args.seed, n_train=args.n_train,
                                n_val=args.n_val, n_test=args.n_test,
                                steps=args.steps)
    sysid.save_dataset(ds, args.out)
    print(f"wrote {args.n_train + args.n_val + args.n_test} sequences to {args.out}")
    return 0


def _cmd_train(args):
    cfg = sysid.TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                            lambda1=args.lambda1, lambda2=args.lambda2,
                            washout=args.washout, seed=args.seed,
                            n_neurons=args.neurons)
    ds = sysid.load_dataset(args.data)
    init = lstm.load_weights(args.init)[0] if args.init else None

    def cb(epoch, loss_val, margins):
        if epoch % max(1, args.log_every) == 0:
            print(f"epoch {epoch} loss {loss_val:.6f} "
                  f"r1 {margins[0]:+.4f} r2 {margins[1]:+.4f}", flush=True)

    w = sysid.train(ds, cfg, init=init, callback=cb)
    lstm.save_weights(w, args.out)
    if not ds.test:
        print(f"saved {args.out}; no test split, so no test FIT")
        return 0
    fit = sysid.evaluate_fit(w, ds.test, washout=cfg.washout)
    print(f"saved {args.out}; test FIT {fit:.2f}%")
    return 0


def _cmd_certify(args):
    w, obs_doc = lstm.load_weights(args.weights)
    certificate = mpc.certify(w, obs_doc, args.horizon, k_bar=args.k_bar)
    print(json.dumps(certificate.to_dict(), indent=1))
    return 0


def _cmd_simulate(args):
    sc = harness.Scenario.from_json(args.scenario)
    w, obs_doc = lstm.load_weights(args.weights)
    records = harness.steps(sc, w, obs_doc)     # a rejected input raises before --out exists
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = harness.RunReport(sc, w, harness.write_trace(out / "trace.csv", records))
    report.save_json(out / "report.json")
    print(json.dumps(report.summary(), indent=1))
    return 0 if report.constraint_violations == report.feasibility_losses == 0 else 1


# the defaults of gen-data and train: those of the function and the config they call
_DATA = {name: p.default
         for name, p in inspect.signature(sysid.generate_dataset).parameters.items()}
_TRAIN = {f.name: f.default for f in dataclasses.fields(sysid.TrainConfig)}


def build_parser():
    ap = argparse.ArgumentParser(prog="lstmpc",
                                 description="Offset-free robust MPC with certified LSTM models")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="excite the pH plant and write a dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n-train", type=int, default=_DATA["n_train"])
    g.add_argument("--n-val", type=int, default=_DATA["n_val"])
    g.add_argument("--n-test", type=int, default=_DATA["n_test"])
    g.add_argument("--steps", type=int, default=_DATA["steps"])
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a certified model on a dataset",
                       description="Train a certified model on a dataset. The weights file "
                       "it writes has no observer section, so certify and simulate use "
                       "observer.select_gains' default gains.")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=_TRAIN["epochs"])
    t.add_argument("--learning-rate", type=float, default=_TRAIN["learning_rate"])
    t.add_argument("--lambda1", type=float, default=_TRAIN["lambda1"])
    t.add_argument("--lambda2", type=float, default=_TRAIN["lambda2"])
    t.add_argument("--washout", type=int, default=_TRAIN["washout"])
    t.add_argument("--neurons", type=int, default=_TRAIN["n_neurons"])
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--init", default=None, help="warm-start weights JSON")
    t.add_argument("--log-every", type=int, default=10)
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("certify", help="print certification constants as JSON")
    c.add_argument("--weights", required=True)
    c.add_argument("--horizon", type=int, default=5)
    c.add_argument("--k-bar", action="store_true", help="also estimate K_bar")
    c.set_defaults(func=_cmd_certify)

    s = sub.add_parser("simulate", help="run a closed-loop scenario")
    s.add_argument("--scenario", required=True)
    s.add_argument("--weights", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (LstmpcError, OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

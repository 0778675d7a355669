"""Command-line interface: gen-data, train, certify, simulate."""

import argparse
import json
import pathlib
import sys

from . import harness, lstm, mpc, numerics, observer, plant, refcalc, sysid
from .errors import LstmpcError


def _cmd_gen_data(args):
    ds = sysid.generate_dataset(seed=args.seed, n_train=args.n_train,
                                n_val=args.n_val, n_test=args.n_test,
                                steps=args.steps)
    sysid.save_dataset(ds, args.out)
    print(f"wrote {args.n_train + args.n_val + args.n_test} sequences to {args.out}")
    return 0


def _cmd_train(args):
    ds = sysid.load_dataset(args.data)
    cfg = sysid.TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                            lambda1=args.lambda1, lambda2=args.lambda2,
                            washout=args.washout, seed=args.seed,
                            n_neurons=args.neurons)
    init = lstm.load_weights(args.init)[0] if args.init else None

    def cb(epoch, loss_val, margins):
        if epoch % max(1, args.log_every) == 0:
            print(f"epoch {epoch} loss {loss_val:.6f} "
                  f"r1 {margins[0]:+.4f} r2 {margins[1]:+.4f}", flush=True)

    w = sysid.train(ds, cfg, init=init, callback=cb)
    lstm.save_weights(w, args.out)
    fit = sysid.evaluate_fit(w, ds.test, washout=cfg.washout)
    print(f"saved {args.out}; test FIT {fit:.2f}%")
    return 0


def _cmd_certify(args):
    w, obs_doc = lstm.load_weights(args.weights)
    if args.k_bar and (w.u_range is None or w.y_range is None):
        # the K_bar grid spans pH 6.5-8.5, mapped through both ranges
        raise ValueError("--k-bar needs weights with u_range and y_range")
    cert = lstm.incremental_lyapunov(w)
    spec = observer.ObserverSpec.from_dict(obs_doc) if obs_doc else None
    if spec is not None:
        observer.derive_constants(w, spec, w_bar=spec.w_bar)
    else:
        spec = observer.select_gains(w, d_max=args.d_max, l_d=args.l_d,
                                     w_bar=args.w_bar)
    sched = mpc.build_schedule(cert, spec, args.horizon)
    doc = {
        "model": {
            "rho_A_delta": cert.rho_A, "r1": cert.r1, "r2": cert.r2,
            "certified": cert.certified, "rho_s": cert.rho_s,
            "c_sl": cert.c_sl, "c_su": cert.c_su, "c_s": cert.c_s.tolist(),
            "P_s": cert.P_s.tolist(),
        },
        "observer": {
            "rho_A_d": numerics.spectral_radius(spec.A_d),
            "rho_o": spec.rho_o, "c_ol": spec.c_ol, "c_ou": spec.c_ou,
            "c_o": spec.c_o.tolist(), "L_max": spec.L_max,
            "w_bar": spec.w_bar, "e_bar_inf": sched.e_bar_inf,
            "P_o": spec.P_o.tolist(),
        },
        "tightening": {
            "a": sched.a.tolist(),
            "b": sched.b.tolist(),
        },
    }
    if args.k_bar:
        nrm = plant.Normalizer(*w.u_range, *w.y_range)
        lo, hi = nrm.normalize_y(6.5), nrm.normalize_y(8.5)
        k_bar, arg = refcalc.estimate_k_bar(w, (lo, hi), (-spec.d_max, spec.d_max))
        doc["k_bar"] = {"value": k_bar, "argmax": arg}
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_simulate(args):
    sc = harness.Scenario.from_json(args.scenario)
    weights_path = args.weights or sc.model_path
    if weights_path is None:
        raise LstmpcError("no model weights given (flag --weights or scenario model_path)")
    w, obs_doc = lstm.load_weights(weights_path)
    spec = None
    if obs_doc:
        spec = observer.ObserverSpec.from_dict(obs_doc)
        observer.derive_constants(w, spec, w_bar=spec.w_bar)
    report = harness.run_scenario(sc, w, spec=spec)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.save_csv(out / "trace.csv")
    report.save_json(out / "report.json")
    print(json.dumps(report.summary(), indent=1))
    return 0 if (report.constraint_violations == 0
                 and report.feasibility_losses == 0) else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="lstmpc",
                                 description="Offset-free robust MPC with certified LSTM models")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="excite the pH plant and write a dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n-train", type=int, default=10)
    g.add_argument("--n-val", type=int, default=3)
    g.add_argument("--n-test", type=int, default=2)
    g.add_argument("--steps", type=int, default=1500)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a certified model on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=1000)
    t.add_argument("--learning-rate", type=float, default=1e-3)
    t.add_argument("--lambda1", type=float, default=0.03)
    t.add_argument("--lambda2", type=float, default=0.02)
    t.add_argument("--washout", type=int, default=50)
    t.add_argument("--neurons", type=int, default=5)
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--init", default=None, help="warm-start weights JSON")
    t.add_argument("--log-every", type=int, default=10)
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("certify", help="print certification constants as JSON")
    c.add_argument("--weights", required=True)
    c.add_argument("--horizon", type=int, default=5)
    c.add_argument("--d-max", type=float, default=0.1)
    c.add_argument("--l-d", type=float, default=0.1)
    c.add_argument("--w-bar", type=float, default=0.01)
    c.add_argument("--k-bar", action="store_true", help="also estimate K_bar")
    c.set_defaults(func=_cmd_certify)

    s = sub.add_parser("simulate", help="run a closed-loop scenario")
    s.add_argument("--scenario", required=True)
    s.add_argument("--weights", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except LstmpcError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

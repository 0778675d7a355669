"""Identify a small recurrent model of the pH neutralization tank.

Excites the simulated plant with piecewise-constant flows, trains a
5-neuron LSTM with the stability-margin penalties, and reports the
prediction quality (FIT index) together with the contraction
certificate of the trained network.

A full-quality run (as used for the shipped model) takes 1000+ epochs;
this demo uses a reduced budget so it finishes in a few minutes.
"""

from lstmpc import lstm, sysid

print("Generating excitation data from the plant (15 sequences)...")
data = sysid.generate_dataset(seed=1, n_train=10, n_val=3, n_test=2, steps=1500)

print("Training (300 epochs, certified-stop rule)...")
cfg = sysid.TrainConfig(epochs=300, n_neurons=5, seed=1)


def progress(epoch, loss_value, margins):
    if epoch % 25 == 0:
        print(f"  epoch {epoch:4d}  loss {loss_value:.5f}  "
              f"r1 {margins[0]:+.3f}  r2 {margins[1]:+.3f}")


weights = sysid.train(data, cfg, callback=progress)

cert = lstm.incremental_lyapunov(weights)
print(f"\nContraction certificate: rho(A_delta) = {cert.rho_A:.4f} "
      f"(r1 = {cert.r1:+.4f}, r2 = {cert.r2:+.4f})")
print(f"Test FIT: {sysid.evaluate_fit(weights, data.test):.1f}%")

lstm.save_weights(weights, "demo_model.json")
print("Saved to demo_model.json")

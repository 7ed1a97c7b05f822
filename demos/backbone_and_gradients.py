"""Build a small backbone, check its gradients, and train it a little.

Walks the lowest layer of the library: parameter initialization, the
forward and backward passes, the finite-difference harness every analytic
gradient in the package is tested against, and the momentum SGD step.
"""

import argparse

import numpy as np

from fedgc.gradcheck import backward, batch_loss_and_grad, finite_diff_check
from fedgc.losses import LossSpec
from fedgc.nn import BackboneParams, SgdState, forward, init_backbone, sgd_update


def check_first_layer(params: BackboneParams, x: np.ndarray, probe: np.ndarray) -> float:
    """Finite-difference the probe objective <probe, forward(x)> w.r.t. W1."""

    def objective(w1):
        arrays = params.to_list()
        arrays[0] = w1
        return float((forward(BackboneParams.from_list(arrays), x) * probe).sum())

    grad, _ = backward(params, x, probe)
    report = finite_diff_check(objective, params.layers[0][0], grad.layers[0][0])
    return report.max_rel_err


def check_input_gradient(params: BackboneParams, x: np.ndarray, probe: np.ndarray) -> float:
    def objective(x_flat):
        return float((forward(params, x_flat.reshape(x.shape)) * probe).sum())

    _, grad_x = backward(params, x, probe)
    report = finite_diff_check(objective, x.ravel(), grad_x.ravel())
    return report.max_rel_err


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    params = init_backbone([10, 16, 8], seed=args.seed)
    print("backbone layers:", [w.shape for w, _ in params.layers], "activation: relu")

    x = rng.normal(size=(16, 10))
    feats = forward(params, x)
    print(f"forward: {x.shape} -> {feats.shape}, mean |feature| = {np.linalg.norm(feats, axis=1).mean():.3f}")

    probe = rng.normal(size=feats.shape)
    print(f"dL/dW1 vs finite differences: max rel err = {check_first_layer(params, x, probe):.2e}")
    print(f"dL/dx  vs finite differences: max rel err = {check_input_gradient(params, x, probe):.2e}")

    # a few supervised steps against a random 4-class head; loss should fall
    labels = rng.integers(4, size=16)
    head = rng.normal(0.0, 0.5, size=(8, 4))
    spec = LossSpec.softmax()
    # one optimizer per tensor, the head's last
    states = [SgdState(learning_rate=0.1, momentum=0.9) for _ in params.to_list() + [head]]
    print("step  loss")
    for step in range(6):
        feats = forward(params, x)
        lg = batch_loss_and_grad(spec, head, feats, labels)
        grad, _ = backward(params, x, lg.grad_feature)
        flat = params.to_list() + [head]
        gflat = grad.to_list() + [lg.grad_embeddings]
        new = [a.copy() for a in flat]
        for state, param, grad in zip(states, new, gflat, strict=True):
            sgd_update(state, param, grad)
        params = BackboneParams.from_list(new[:-1])
        head = new[-1]
        print(f"{step:4d}  {lg.loss:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Identities living on two clients at once: merge and masked correction.

Some identities are held by more than one client, each training its own
copy of that column.  The stacked head matrix tags every column with its
identity, so the server knows the copies from the stack alone: it averages
them after restacking, and the softmax penalty treats each merged group as
a single identity -- copies are never pushed away from each other, only
away from genuinely different identities.  This script trains such a
federation, then opens up one round to show the copies drifting during
local training, agreeing again after the merge, and being ignored by each
other's anchors.
"""

import argparse

import numpy as np
from dataclasses import replace

from fedgc import federation
from fedgc.experiments import default_spec, make_dataset, make_partition
from fedgc.regularizers import softmax_reg


def copy_cosines(server):
    """Cosine between the copies of every shared identity."""
    emb = server.embeddings
    out = {}
    for cols in emb.shared_columns():
        a, b = emb.W[:, cols[0]], emb.W[:, cols[1]]
        out[int(emb.class_of[cols[0]])] = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args()

    spec = default_spec(seed=args.seed)
    cfg = replace(spec.fed, mode="fedgc", lam=50.0, rounds=args.rounds)
    dataset = make_dataset(spec, cfg)
    part, client_data = make_partition(dataset, "shared", spec, cfg)
    shared = {cls: group for cls, group in sorted(part.assignment.items()) if len(group) > 1}
    print(f"{len(shared)} of {dataset.num_classes} identities shared:")
    for cls, group in shared.items():
        print(f"  identity {cls:2d} held by clients {tuple(group)}")

    server, clients = federation.build_federation(client_data, dataset.input_dim, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))
    for _ in range(cfg.rounds):
        server, mean_loss = federation.run_round(server, clients, cfg, rng)
    print(f"\ntrained {cfg.rounds} rounds, mean local loss {mean_loss:.4f}")

    # open up one more round: local training makes the copies drift apart,
    # the merge snaps them back together
    runs = []
    for k in range(cfg.num_clients):
        theta_b, head_b = federation.client_payload(server, k)
        runs.append(federation.client_update(clients[k], theta_b, head_b, cfg, server.round))
    new_w = server.embeddings.W.copy()
    for k, (_, head_k, _) in enumerate(federation.local_sgd(runs)):
        new_w[:, server.head_slices[k]] = head_k
    drifted = replace(server, embeddings=replace(server.embeddings, W=new_w))
    merged = federation.merge_shared_identities(drifted)

    pre, post = copy_cosines(drifted), copy_cosines(merged)
    print("\nidentity   copy cosine before merge   after merge")
    for cls in sorted(pre):
        print(f"{cls:8d}   {pre[cls]:23.6f}   {post[cls]:11.6f}")

    # group-mates are not each other's negatives: anchor one shared column
    # and look at the penalty gradient on its twin
    cols = merged.embeddings.shared_columns()[0]
    cls = int(merged.embeddings.class_of[cols[0]])
    mask = np.zeros(merged.embeddings.num_columns, dtype=bool)
    mask[cols[0]] = True
    solo = replace(merged.embeddings, anchor_mask=mask)
    grad = softmax_reg(solo, normalize_columns=cfg.normalize_reg).grad
    twin, outsider = np.abs(grad[:, cols[1]]).max(), np.abs(grad).max()
    print(f"\npenalty gradient from identity {cls}'s anchor: on its twin copy {twin:.1e}, "
          f"largest on any other column {outsider:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

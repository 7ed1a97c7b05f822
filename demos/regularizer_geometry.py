"""Watch the softmax penalty untangle colliding cross-client heads.

Two clients that never see each other's identities can easily end up
with nearly collinear head columns -- nothing in their local losses
prevents it.  This script builds exactly that collision and applies the
server-side correction step repeatedly (normalized-column variant, the
one used under margin losses).  Cross-client pairs separate while the
column norms stay put, because the chain rule through normalization
keeps the gradient orthogonal to each column.  Same-client pairs are
never *directly* pushed apart -- separating those is the local loss's
job -- which is the own-anchor zero checked at the end.
"""

import argparse

import numpy as np

from fedgc.gradcheck import anchor_term, softmax_reg_naive
from fedgc.regularizers import StackedEmbeddings, cosine_reg, softmax_reg


def collision_stack(rng, d=6, per_client=3):
    """Client 1's columns are small perturbations of client 0's."""
    base = rng.normal(size=(d, per_client))
    base /= np.linalg.norm(base, axis=0, keepdims=True)
    other = base + 0.05 * rng.normal(size=base.shape)
    w = np.concatenate([base, other], axis=1) * 2.0
    client_of = np.repeat([0, 1], per_client)
    return StackedEmbeddings(w, client_of)


def cos_split(emb):
    w = emb.W / np.linalg.norm(emb.W, axis=0, keepdims=True)
    cos = w.T @ w
    iu, ju = np.triu_indices(emb.num_columns, k=1)
    cross = emb.client_of[iu] != emb.client_of[ju]
    return cos[iu, ju][cross].max(), cos[iu, ju][~cross].max()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=80)
    ap.add_argument("--step-size", type=float, default=0.3)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    emb = collision_stack(rng)
    print("step  penalty   max cross cos   mean column norm")
    for step in range(args.steps + 1):
        rg = softmax_reg(emb, normalize_columns=True)
        cross, _ = cos_split(emb)
        if step % 16 == 0:
            norm = np.linalg.norm(emb.W, axis=0).mean()
            print(f"{step:4d}  {rg.value:7.4f}  {cross:13.4f}  {norm:16.3f}")
        emb = StackedEmbeddings(emb.W - args.step_size * rg.grad, emb.client_of)

    # the stable evaluation matches the direct-exponential one on this stack
    stable, naive = softmax_reg(emb), softmax_reg_naive(emb)
    print(f"\nstable vs direct evaluation: |dV| = {abs(stable.value - naive.value):.2e}, "
          f"|dG| = {np.abs(stable.grad - naive.grad).max():.2e}")

    # a column is never pushed by its own anchor: take column 0's anchor term
    # and look at the gradient on column 0 itself
    print(f"gradient on a column from its own anchor: {np.abs(anchor_term(emb, 0).grad[:, 0]).max():.1e}")

    # contrast: the cosine penalty's pull does not fade with separation
    far = StackedEmbeddings(np.concatenate([np.eye(3), -np.eye(3)], axis=1) * 3.0, np.repeat([0, 1], 3))
    print(f"\nwell-separated stack: softmax penalty grad norm = {np.linalg.norm(softmax_reg(far).grad):.2e}, "
          f"cosine penalty grad norm = {np.linalg.norm(cosine_reg(far).grad):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

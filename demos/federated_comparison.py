"""Train all four protocols on the same federation and compare them.

Eight clients, four identities each, private heads.  The uncorrected
protocol lets cross-client head columns collide; both corrections pull
them apart, and the softmax one does it adaptively (hard pairs get the
attention).  Verification accuracy is measured on held-out pairs through
the shared backbone only, so head geometry matters exactly as far as it
shapes the features.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from fedgc.experiments import cell_config, make_dataset, parse_config, run_cell

PRESET = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"

TAGLINE = {
    "fedpe": "private heads, no correction",
    "fedcos": "+ cosine-penalty correction",
    "fedgc": "+ softmax-penalty correction",
    "centralized": "pooled data, single head",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=200)
    args = ap.parse_args()

    spec, problems = parse_config(PRESET)
    if problems:
        raise SystemExit("\n".join(problems))
    spec = replace(spec, fed=replace(spec.fed, seed=args.seed, rounds=args.rounds))
    cells = spec.grid()
    dataset = make_dataset(spec, cell_config(spec, cells[0]))
    print(f"{dataset.num_classes} identities, {dataset.train_x.shape[0]} train samples, "
          f"{spec.fed.num_clients} clients, {spec.fed.rounds} rounds, seed {args.seed}")
    print()
    print(f"{'protocol':<13} {'':<30} {'accuracy':>9} {'cross-client max cos':>22}")
    for cell in cells:
        result = run_cell(spec, cell, dataset)
        acc = f"{result.final_accuracy:.4f}" if result.status == "ok" else result.status
        cos = f"{result.final_cross_cos:+.3f}" if result.status == "ok" else "-"
        print(f"{cell.mode:<13} {TAGLINE[cell.mode]:<30} {acc:>9} {cos:>22}")
    print()
    print("accuracy: fraction of held-out pairs called correctly at the best")
    print("threshold; cross-client max cos: worst head collision across clients.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

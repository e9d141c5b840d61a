"""One step of the depth ladder, in its own address-space-capped process.

    python3 perfbench/ladder.py --depth D --budget-mb MB

Caps its own address space at the budget before numpy is imported, builds
R(standard(2), standard(3)) at depth D and checks the rank and the defining
relation on a fixed sample of words of length D. Prints one JSON line with
``status`` "pass", "memory" (a MemoryError inside the cap) or "fail".
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

SAMPLE_WORDS = 16
SAMPLE_SEED = 2009  # the sample is fixed, not drawn from the run's seed


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget-mb", type=int, required=True)
    args = p.parse_args()
    cap = args.budget_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy as np

    import cuntzr
    import oracles as orc

    n, m, d = 2, 3, args.depth
    out = {"depth": d}
    try:
        rmat = cuntzr.build_r(cuntzr.GPState.standard(n), cuntzr.GPState.standard(m), d)
        rng = np.random.default_rng(SAMPLE_SEED)
        words = [tuple(int(k) for k in rng.integers(1, n * m + 1, d))
                 for _ in range(SAMPLE_WORDS)]
        Is = (np.eye(n, dtype=complex), np.eye(m, dtype=complex))
        apply = orc.dense_apply(rmat.apply, (n**d, m**d))
        worst = max(orc.dist(apply(orc.word_image(Is, word, d)),
                             orc.word_image(Is, word, d, opposite=True))
                    for word in words)
        ok = rmat.rank == (n * m) ** d and worst <= orc.DIST_TOL
        out.update(status="pass" if ok else "fail", rank=int(rmat.rank),
                   residual=worst)
    except MemoryError:
        out["status"] = "memory"
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

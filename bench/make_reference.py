"""Write ``bench/data/scan_ve_p1.json``: p1 of every feasible risk_grid (V, E) cell.

The file pins the values the library computed at the commit that defined the
benchmark, so that later changes to p-table generation or ``p1_exact`` are
checked against them to 12 significant digits.  Regenerate it only when a
change of those values is intended and stated.  Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py
"""

import json
import os

from sdcnoise import attacks, noise

V_VALUES = [0.25 * i for i in range(1, 81)]
E_VALUES = list(range(1, 41))


def main() -> None:
    p1 = {}
    for v in V_VALUES:
        for e in E_VALUES:
            if v <= noise.uniform_max_variance(e) + 1e-12:
                p1[f"{v!r},{e}"] = float(attacks.p1_exact(noise.gen_ptable(v, e).probabilities, e))
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "scan_ve_p1.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"grid": "V = 0.25..20 step 0.25, E = 1..40", "p1": p1}, fh, indent=0)
        fh.write("\n")
    print(f"{len(p1)} feasible cells -> {path}")


if __name__ == "__main__":
    main()

"""Oracle mean rates at fixed seeds, and the stored values they must match.

The oracle reads the true cell, so its actions and rates depend only on
the gain table, the paths and the noise draws, never on beliefs or on
solver output. Any refactor that keeps common random numbers must
reproduce these rates to 1e-12 relative.

    python3 bench/run.py ...            # checks against the stored file
    python3 bench/reference.py          # rewrites the stored file

Rewrite the file only in a change that says why the oracle rates moved.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference", "oracle_rates.json")
REF_SEED = 20251221
REL_TOL = 1e-12


def oracle_rates() -> dict[str, float]:
    """Random-path rates at p=0.95 and 0.35, and one fixed-path rate."""
    from specbeam import simulate
    from specbeam.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict({})
    out = {}
    for p in (0.95, 0.35):
        model = cfg.build_model(p=p)
        (m,) = simulate.monte_carlo([(model, simulate.OracleAgent(model))],
                                    6, 200, REF_SEED)
        out[f"random_path.p{p:g}"] = m.mean_rate_bps
    m = simulate.fixed_path_eval(model, cfg.scene(), simulate.OracleAgent(model),
                                 50.0, cfg.raw["simulation"]["slot_s"], 4, REF_SEED)
    out["fixed_path.50kmh"] = m.mean_rate_bps
    return out


def mismatches() -> list[str]:
    """Names whose rate differs from the stored value by more than REL_TOL."""
    with open(PATH) as fh:
        want = json.load(fh)
    got = oracle_rates()
    bad = [k for k in want if k not in got
           or abs(got[k] - want[k]) > REL_TOL * abs(want[k])]
    return bad + [k for k in got if k not in want]


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump(oracle_rates(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")

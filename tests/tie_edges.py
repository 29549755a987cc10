"""Count the solver and policy decisions that sit at the tie rule's band edge.

Every vector, action and adoption decision takes the lowest index whose
score is within tol = 4 gamma_k of the maximum (pbvi.first_near_max,
pbvi.tie_tolerance). A decision can change with the rounding of its
scores only when a candidate at or before the pick lies within 2 gamma_k
of the band's floor (relative to max(|top|, 2^-969)). This script records
every decision of the default 4-stage sm solves at p = 0.35 and p = 0.95,
of the single-band solves at p = 0.95, and of one 500-trial, 200-slot
simulation of all p = 0.95 planners (sm, sf15, sf39, sf60 and the oracle,
whose channel choices are counted there too), and prints, per kind of
decision, how many are that close and the smallest margin seen, in units
of gamma_k. A decision's kind is read from the call that makes it: the
calling function and the name of the scores it hands the rule, so a
kernel may lay its scores along any axis. The policy actions of a slot
are one rule call over all planners' rows, each row with its own
tolerance, or one per planner where their padded scores would outgrow
the beliefs (the 4-stage policies).

A backup's action rule sees float64 totals only for the candidates of its
float32 action screen (pbvi._screen), and -inf for the rest, and its
vector rule runs for each candidate. The "backup action screen" line
checks the screen against each backup's float64 action totals, computed
here over all columns as the kernel did before the screen: per belief,
how far the best screened-out action's total lies below the rule's band,
and, per action, how far the screen total lies from the float64 one, both
in units of the screen's error bound (pbvi._screen_error, relative to
max(|total|, 2^-969)). While the errors stay within the bound, the first
is at least _SCREEN_BAND - 2. The script exits nonzero if a screen error
exceeds the bound or a screened-out action lies within one bound of the
rule's band: the screen's proof would then not hold.

    PYTHONPATH=src:tests python tests/tie_edges.py [--stages 4] [--trials 500] [--horizon 200]
"""

from __future__ import annotations

import argparse
import linecache
import re
import sys
from collections import defaultdict

import numpy as np

from _oracles import edge_margins
from specbeam import pbvi, simulate
from specbeam.config import ExperimentConfig
from specbeam.pomdp import initial_belief


_KINDS = {("_backup_block", "totals"): "backup action",
          ("_backup_block", "scores"): "backup vector",
          ("backup_stage", "eval0"): "stage-start vector",
          ("act", "scores"): "policy action",
          ("oracle_action", "aligned"): "oracle channel"}


def _kind(frame) -> str:
    """The kind of the rule call on `frame`'s current line."""
    line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    scores = re.search(r"first_near_max\((\w+)", line).group(1)
    return _KINDS[frame.f_code.co_name, scores]


class EdgeLog:
    """Wraps the tie rule and the adoption test; keeps margins by decision kind."""

    def __init__(self):
        self.margins: dict[str, list[np.ndarray]] = defaultdict(list)
        self._rule = pbvi.first_near_max
        self._beats = pbvi._beats
        self._screen = pbvi._screen
        self.screen_margins: list[np.ndarray] = []
        self.screen_errors: list[np.ndarray] = []
        self.broken = False

    def rule(self, scores, tol, axis=-1):
        """The rule; tol is a float or per-decision tolerances (the kept-dims max's shape)."""
        kind = _kind(sys._getframe(1))
        self.margins[kind].append(edge_margins(scores, tol, axis).ravel())
        return self._rule(scores, tol, axis)

    def beats(self, fresh, kept, tol):
        kind = sys._getframe(1).f_code.co_name.strip("_") + " adoption"
        self.margins[kind].append(edge_margins(np.stack([kept, fresh]), tol, 0))
        return self._beats(fresh, kept, tol)

    def screen(self, model, cells, ht, reward):
        """The screen; records its margins and errors against float64 totals."""
        totals, floor = self._screen(model, cells, ht, reward)
        oz, n_a = cells[1], model.num_actions
        exact = reward + model.discount * np.stack(
            [(h.T @ oz).max(axis=0).reshape(n_a, -1).sum(axis=1) for h in ht])
        bound = pbvi._screen_error(ht.shape[1], model.num_observations)
        scale = bound * np.maximum(np.abs(exact), 2.0 ** -969)
        self.screen_errors.append((np.abs(totals - exact) / scale).max(axis=1))
        top = exact.max(axis=1, keepdims=True)
        out = np.where(totals < floor, exact, -np.inf).max(axis=1, keepdims=True)
        has_out = np.isfinite(out[:, 0])
        margin = (pbvi._band_floor(top, pbvi.tie_tolerance(model)) - out) / (
            bound * np.maximum(np.abs(top), 2.0 ** -969))
        self.screen_margins.append(margin[has_out, 0])
        return totals, floor

    def report(self, name: str, gamma: float) -> None:
        print(name)
        for kind, parts in self.margins.items():
            m = np.concatenate(parts) / gamma
            print(f"  {kind:26s} {m.size:9d} decisions, {int((m <= 2.0).sum()):4d} within "
                  f"2 gamma_k of the edge, {int((m <= 0.5).sum()):4d} within 0.5, "
                  f"smallest {m.min():.3f}")
        if self.screen_errors:
            err = np.concatenate(self.screen_errors)
            m = np.concatenate(self.screen_margins)
            near = int((m <= 1.0).sum())
            print(f"  {'backup action screen':26s} {err.size:9d} beliefs, {near:4d} screened-out "
                  f"within 1 bound of the band, smallest {m.min() if m.size else np.inf:.3f}; "
                  f"largest error {err.max():.3g} bounds")
            self.broken |= near > 0 or err.max() > 1.0
        self.margins.clear()
        self.screen_errors.clear()
        self.screen_margins.clear()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stages", type=int, default=4)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--horizon", type=int, default=200)
    args = ap.parse_args(argv)
    cfg = ExperimentConfig.from_dict({})
    log = EdgeLog()
    pbvi.first_near_max = simulate.first_near_max = log.rule
    pbvi._beats = log.beats
    pbvi._screen = log.screen
    for p in (0.35, 0.95):
        runs = []
        for agent in cfg.agent_names() if p == 0.95 else ("sm",):
            model = cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
            gamma = pbvi.tie_tolerance(model) / 4.0
            policy = pbvi.solve(model, initial_belief(model.states), num_stages=args.stages)
            log.report(f"solve {agent} p={p}, {args.stages} stages", gamma)
            runs.append((model, simulate.PolicyAgent(agent, model, policy)))
    # the planners share the chain, the SNR bins and the states, so gamma_k too
    runs.append((runs[0][0], simulate.OracleAgent(runs[0][0])))
    simulate.simulate_slots(runs, simulate.MarkovDynamics(runs[0][0]),
                            args.horizon, args.trials, seed=0)
    log.report(f"simulate {', '.join(a.label for _, a in runs)} p=0.95, "
               f"{args.trials} x {args.horizon}", gamma)
    if log.broken:
        sys.exit("a screened-out action lies within one bound of the rule's band, "
                 "or a screen error exceeds its bound")


if __name__ == "__main__":
    main()

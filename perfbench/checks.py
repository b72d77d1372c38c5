"""Correctness checks run on every op, outside the timed region.

Each check returns a list of problems; an empty list means the op
passed.  A failed check counts the op as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

#: |γ̂ − γ*| bound for the tracker's last checkpoint: half of the initial
#: DTU step η₀ = 0.1.  A tracker that has settled sits within a shrunken
#: step of the moving target; one that lost it is off by several steps.
TRACK_FINAL_LAG = 0.05


def check_solve(kernel, mfne, dtu, mfne_tolerance: float,
                dtu_tolerance: float) -> List[str]:
    """Theorem 1 fixed point, then Algorithm 1 converging onto it.

    ``V`` is a step function of γ, so the residual at the bisection's
    midpoint is not below the bracket tolerance: one user whose threshold
    flips inside the final bracket moves ``V`` by at most
    ``a_max / (N·c)``.  That single-user jump plus the bracket tolerance
    is the residual bound.
    """
    problems = []
    pop = kernel.population
    bound = mfne_tolerance + float(pop.arrival_rates.max()) / (
        pop.size * pop.capacity)
    if not mfne.converged:
        problems.append("solve_mfne did not converge")
    if not mfne.residual <= bound:
        problems.append(f"MFNE residual {mfne.residual:.3g} > {bound:.3g}")
    if not dtu.converged:
        problems.append("run_dtu did not converge")
    gap = abs(dtu.estimated_utilization - mfne.utilization)
    if not gap <= dtu_tolerance:
        problems.append(f"|γ̂ − γ*| = {gap:.4g} > ε = {dtu_tolerance:g}")
    return problems


def check_track(result, steps: int) -> List[str]:
    problems = []
    if result.steps != steps:
        problems.append(f"tracker ran {result.steps} of {steps} steps")
    if result.lag.size == 0 or not np.all(np.isfinite(result.lag)):
        problems.append("tracking lag is missing or not finite")
    elif not result.final_lag <= TRACK_FINAL_LAG:
        problems.append(f"final lag {result.final_lag:.4g} > "
                        f"{TRACK_FINAL_LAG:g}")
    return problems


def check_sharded(result) -> List[str]:
    problems = []
    if not result.converged:
        problems.append("sharded run did not converge")
    gammas = np.asarray(result.estimated_utilizations, dtype=float)
    if not np.all((gammas >= 0.0) & (gammas <= 1.0)):
        problems.append(f"site γ̂ outside [0, 1]: {gammas.tolist()}")
    return problems


def check_decide(kernel, ids: Sequence[int], body: bytes) -> List[str]:
    """Re-derive one ``/decide`` answer offline and require an exact match.

    ``kernel`` is compiled on the same seeded population the daemon
    serves; the answer is recomputed at the γ the response carries.
    """
    try:
        payload = json.loads(body)
        gamma = payload["gamma"]
        decisions = payload["decisions"]
        served_ids = [d["device"] for d in decisions]
        served = [(d["threshold"], d["offload_probability"],
                   d["offload_rate"]) for d in decisions]
    except (ValueError, KeyError, TypeError) as error:
        return [f"malformed /decide answer: {error!r}"]
    ids = np.asarray(ids, dtype=np.int64)
    if served_ids != ids.tolist():
        return ["/decide answered other devices than asked"]
    thresholds = kernel.user_thresholds(ids, gamma)
    alphas = kernel.user_alphas(ids, thresholds)
    rates = kernel.population.arrival_rates[ids] * alphas
    expected = list(zip(thresholds.tolist(), alphas.tolist(),
                        rates.tolist()))
    if served != expected:
        wrong = sum(a != b for a, b in zip(served, expected))
        return [f"{wrong} of {len(ids)} decisions differ from the "
                f"offline kernel at γ = {gamma!r}"]
    return []


def source_digest(src: Path) -> str:
    """A short hash of the program source, so stored counts follow it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RepeatCheck:
    """Deterministic work counts must repeat exactly.

    The first op of an invocation sets the reference; every later op must
    match it.  With a ``path``, the reference is also kept on disk, so a
    second invocation with the same seed (and the same program source)
    must match the first one.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = path
        self.reference: Optional[dict] = None
        if path is not None and path.exists():
            self.reference = json.loads(path.read_text())

    def check(self, counts: dict) -> List[str]:
        counts = json.loads(json.dumps(counts))
        if self.reference is None:
            self.reference = counts
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.write_text(json.dumps(counts, sort_keys=True))
            return []
        if counts == self.reference:
            return []
        changed = sorted(key for key in set(counts) | set(self.reference)
                         if counts.get(key) != self.reference.get(key))
        return ["work counts changed: " + ", ".join(
            f"{key} {self.reference.get(key)!r} -> {counts.get(key)!r}"
            for key in changed)]

"""The seed's stored outputs and the rule that judges new outputs against them.

reference.json holds, at 17 significant digits, every sweep cell's error,
beta_n and observed order, each problem's temporal-error floor, the
pass/fail of every check, and the two Euler split orders. Regenerate it
with ``python3 perfbench/run.py --write-reference`` only when a change to
the numbers has a stated numerical reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

PATH = Path(__file__).resolve().parent / "reference.json"

# Relative change of a measured error that still counts as roundoff: an
# error is "worse" only beyond it. Reordered floating-point sums move these
# errors by far less; a changed discretization moves them by far more.
ROUNDOFF = 1e-8


def g17(x: Optional[float]) -> Optional[str]:
    return None if x is None else format(float(x), ".17g")


def temporal_floor(sup_u: float, rtol: float, atol: float) -> float:
    """The temporal-error scale below which a spatial error says nothing.

    Same threshold as ``sandwich_check`` uses to call a cell conclusive:
    ten times the integrator's error scale rtol * sup|u| + atol.
    """
    return 10.0 * (rtol * sup_u + atol)


def cell_failure(reference_error: Optional[float], error: Optional[float], floor: float) -> Optional[str]:
    """Why a sweep cell fails against its stored reference, or None if it passes.

    ``error`` is None when the study raised. A cell fails when it raised, when
    its error is not finite, or when its error is worse than the reference
    beyond roundoff, unless both errors sit below the temporal floor.
    """
    if error is None:
        return "raised"
    if not math.isfinite(error):
        return f"non-finite error {error!r}"
    if reference_error is None:
        return "no stored reference"
    if error < floor and reference_error < floor:
        return None
    if error > reference_error * (1.0 + ROUNDOFF):
        return f"error {g17(error)} worse than the reference {g17(reference_error)}"
    return None


def order_failure(reference_order: float, order: float) -> Optional[str]:
    """Why a fitted convergence order differs from its stored value, or None."""
    if not math.isfinite(order):
        return f"non-finite order {order!r}"
    if abs(order - reference_order) > ROUNDOFF * max(1.0, abs(reference_order)):
        return f"order {g17(order)} differs from the reference {g17(reference_order)}"
    return None


def load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def save(data: dict) -> None:
    with open(PATH, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")

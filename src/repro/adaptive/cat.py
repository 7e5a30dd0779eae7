"""Computerized adaptive testing (the paper's stated future work).

:func:`select_next_item` is maximum-information item selection by exact
IRT evaluation: the unused pool item with the most Fisher information
at an ability estimate.  Online sittings select from a precomputed
table instead (:class:`~repro.adaptive.online.AdaptiveSession`); this
function is the exact reference the table is tested against.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adaptive.irt import ItemParameters, item_information

__all__ = ["select_next_item"]


def select_next_item(
    ability: float,
    pool: Dict[str, ItemParameters],
    administered: "set[str]",
) -> Optional[str]:
    """The unused pool item with maximum information at ``ability``."""
    best_id: Optional[str] = None
    best_information = -1.0
    for item_id in sorted(pool):
        if item_id in administered:
            continue
        information = item_information(ability, pool[item_id])
        if information > best_information:
            best_information = information
            best_id = item_id
    return best_id

"""Growth contracts: how an operation count grows with the size of its input.

Each contract counts operations through a monkeypatched wrapper at two
sizes and bounds the ratio of the two counts by the complexity the code
states.  A contract bounds a ratio of counts, never a wall time.
"""

import pytest

from qseries import expr as expr_mod
from qseries.claims import MAX_ORDER, within_cap
from qseries.expr import parse_expr

# trees of the given depth: a left-leaning product chain and a sum of d terms
TREES = {
    "product": lambda d: "*".join(["mock(v)"] + ["l(1)"] * (d - 1)),
    "sum": lambda d: "+".join(["mock(v)"] * d),
}


def planner_visits(text: str) -> int:
    """How often the bottom-up pass ``expr._facts`` runs while ``text`` is
    planned at order 3 and capped, as the commands plan and cap a read."""
    node = parse_expr(text)
    calls = 0
    real = expr_mod._facts

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_mod, "_facts", counted)
        within_cap([(node, 3)], MAX_ORDER)
    return calls


@pytest.mark.parametrize("shape", TREES)
def test_planning_is_linear_in_depth(shape):
    # expr.plan visits each node once bottom-up, so a tree four times as deep,
    # with four times the nodes, costs four times the visits (199 and 799 here)
    small, big = (planner_visits(TREES[shape](d)) for d in (100, 400))
    assert big <= 4.5 * small

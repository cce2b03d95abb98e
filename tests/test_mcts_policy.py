"""The MCTS tree policy: UCT selection and a pinned seeded search.

``MCTS._select`` must pick exactly the child ``max()`` picks over the UCT
scores ``total_reward / visits + c * sqrt(log(parent visits + 1) / visits)``
(an unvisited child scores infinity, ties go to the first maximum).  The
reference below keeps that formula as a per-node function.  The seeded
search pins a whole trajectory: its samples and the root's visit and reward
totals, under a reward with many ties.
"""

from __future__ import annotations

import hashlib
import math
import random
import zlib

import pytest

from repro.core.mcts import MCTS, MCTSConfig, _Node
from repro.library.specs import gpt2_projection_space
from repro.runtime import current

#: (visits, total_reward) pairs children draw from.  Few values, so siblings
#: often score exactly alike: equal pairs, several unvisited children, and
#: equal means under exploration 0.
_PAIRS = ((0, 0.0), (1, 0.0), (1, 0.5), (2, 0.5), (2, 1.0), (3, 1.5), (4, 1.0))

EXPLORATIONS = (0.0, 0.5, 1.0, math.sqrt(2.0), 3.0)


def _reference_uct(node: _Node, exploration: float) -> float:
    """The UCT score as a per-node function, kept as the selection rule's reference."""
    if node.visits == 0:
        return math.inf
    mean = node.total_reward / node.visits
    return mean + exploration * math.sqrt(math.log(node.parent.visits + 1) / node.visits)


def _reference_select(node: _Node, exploration: float) -> tuple[_Node, int]:
    """The node ``max()`` over reference scores descends to, and how many levels tied."""
    ties = 0
    while not (node.untried is None or node.untried) and node.children:
        scores = [_reference_uct(child, exploration) for child in node.children]
        ties += scores.count(max(scores)) > 1
        node = max(node.children, key=lambda child: _reference_uct(child, exploration))
    return node, ties


def _random_tree(rng: random.Random, depth: int) -> _Node:
    """A random tree whose fully expanded nodes selection descends through.

    Below the root, a node is fully expanded with children, a leaf that was
    never expanded (``untried`` is None), a leaf with untried children left,
    or a fully expanded leaf with nothing legal.
    """
    root = _Node(None, None)
    root.visits = rng.randint(0, 24)
    level = [root]
    for height in range(depth):
        next_level = []
        for node in level:
            kind = rng.randrange(4) if height else 0
            if kind == 1:
                continue
            node.untried = [None] if kind == 2 else []
            if kind != 0:
                continue
            for _ in range(rng.randint(1, 6)):
                child = _Node(None, node)
                child.visits, child.total_reward = rng.choice(_PAIRS)
                node.children.append(child)
                next_level.append(child)
        level = next_level
    return root


def test_select_matches_max_over_uct_scores():
    space = gpt2_projection_space(max_depth=3)
    searches = {
        exploration: MCTS(
            spec=space.spec,
            options=space.options,
            reward_fn=lambda operator: 0.0,
            config=MCTSConfig(exploration=exploration),
        )
        for exploration in EXPLORATIONS
    }
    rng = random.Random(0)
    tied_levels = 0
    for _ in range(300):
        root = _random_tree(rng, depth=rng.randint(1, 4))
        for exploration, search in searches.items():
            expected, ties = _reference_select(root, exploration)
            assert search._select(root) is expected
            tied_levels += ties
    # The trees exercise the tie-break, not just the scores.
    assert tied_levels > 250


def _tied_reward(operator) -> float:
    """A deterministic reward of the signature with three values, so many ties."""
    return zlib.crc32(operator.graph.signature().encode()) % 3 / 2


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.timeout(60)
def test_seeded_search_trajectory_is_pinned():
    space = gpt2_projection_space(max_depth=4)
    search = MCTS(
        spec=space.spec,
        options=space.options,
        reward_fn=_tied_reward,
        config=MCTSConfig(iterations=200, seed=7, batch_size=8),
    )
    with current().isolated().activate():
        search.run()
    samples = [
        (sample.iteration, sample.operator.graph.signature(), sample.reward)
        for sample in search.samples
    ]
    assert samples == [
        (13, "Shift(1)[e1->e2||];Reduce(K)[->e3||];Shift(1)[e3->e4||];Expand[e2->||]", 0.0),
        (20, "Expand[e1->||];Reduce(K)[->e2||]", 0.5),
        (21, "Reduce(K)[->e2||];Share[e1->|e1|0]", 1.0),
        (47, "Shift(1)[e0->e2||];Reduce(K)[->e3||];Share[->||0];Share[e1->|e1|1]", 0.5),
        (115, "Reduce(K)[->e2||];Share[->||0];Share[->||1];Share(+)[e1->|e1|1]", 1.0),
        (120, "Reduce(K)[->e2||];Share[->||0];Share(+)[e1->|e1|0]", 1.0),
        (131, "Reduce(K)[->e2||];Share[->||0];Share(+)[->||0];Share[e1->|e1|1]", 0.5),
        (139, "Reduce(K)[->e2||];Share[->||0];Share[e1->|e1|1]", 0.5),
        (198, "Reduce(K)[->e2||];Shift(1)[e2->e3||];Share[e1->|e1|0]", 0.0),
    ]
    root = [(child.visits, child.total_reward) for child in search._root.children]
    assert (len(root), _digest(root)) == (11, "5dc8e1e516256079")

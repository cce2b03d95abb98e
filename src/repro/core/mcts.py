"""Monte Carlo Tree Search over the primitive-application space (Section 7.2).

The synthesis problem is formulated as a Markov decision process: states are
partial pGraphs, actions are canonical primitive applications, terminal states
are complete pGraphs within budget.  The reward of a terminal state is
supplied by an evaluator (typically: proxy training accuracy of the backbone
model with the candidate operator substituted in, see
:mod:`repro.search.evaluator`); invalid rollouts receive zero reward.

The implementation is a standard UCT tree search with random rollouts that are
*guided* by the shape-distance metric, mirroring the paper's combination of
stochastic tree search and guided synthesis.  Selection descends through
fully expanded nodes to the child with the highest score ``total_reward /
visits + exploration * sqrt(log(parent visits + 1) / visits)``; an unvisited
child scores infinity, and ties go to the first child in expansion order.

The search loop is **batched**: :meth:`MCTS.propose_batch` runs the tree
policy for a wave of iterations (recording every pending terminal rollout
without evaluating it), :meth:`MCTS.pending_evaluations` lists the unique
signatures the wave needs rewards for, and :meth:`MCTS.apply_results` feeds
the rewards back in iteration order.  Within a wave only *visit counts* are
backpropagated eagerly (a deterministic virtual loss that diversifies the
selections); rewards land all at once in ``apply_results``.  Because the
wave's composition depends only on the seed and the wave width — never on
how, where, or whether rewards were cached — the sample sequence is
bit-identical across serial runs, sharded runs and cache round-trips.
:meth:`MCTS.run` maps every wave's rewards through
:func:`repro.search.parallel.sharded_map`, which fans out over the runtime
context's ``shards`` (in process at one shard), unless the serving layer
installed a ``wave_evaluator`` on the context.  ``batch_size=1`` (the
default) reproduces the classic one-sample-at-a-time UCT loop exactly.

A search costs each distinct terminal graph once, however often rollouts
reach it: per (signature, weight signature) it keeps the budget verdict and
the :class:`~repro.core.operator.SynthesizedOperator`.  The first rollout
to reach a signature supplies the operator that is rewarded and recorded.

Rewards are memoized twice: per instance (``_local_rewards``, which also
deduplicates the recorded samples) and context-wide through
:meth:`repro.runtime.RuntimeContext.cached_reward` under
``MCTSConfig.cache_context`` —
searches sharing a context (same backbone, same evaluation settings) reuse
each other's proxy-training results, including results reloaded from a
persisted cache snapshot.

Every expansion and rollout step draws from the same list: a graph's
canonical children (:func:`~repro.core.enumeration.enumerate_children`)
that shape distance still lets complete within ``max_depth``.  The list is a
pure function of the graph's signature, its weight signature and the
search space (spec shapes, every ``EnumerationOptions`` field, the
canonicalizer's rules), so it is memoized context-wide too, through
:meth:`repro.runtime.RuntimeContext.cached_children`: warm searches sharing
a context (a serve daemon's requests, a benchmark's sessions) enumerate
each pGraph once.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.enumeration import Action, EnumerationOptions, enumerate_children
from repro.core.operator import OperatorSpec, SynthesizedOperator
from repro.core.pgraph import PGraph
from repro.core.shape_distance import within_reach
from repro.runtime.context import current

#: Reward function over complete operators; should return a value in [0, 1].
RewardFn = Callable[[SynthesizedOperator], float]

#: Monotonic ids for instance-private cache contexts (``id()`` can be reused
#: after garbage collection, which would alias unrelated searches' rewards).
_INSTANCE_CONTEXTS = itertools.count()


@dataclass
class MCTSConfig:
    """Hyper-parameters of the tree search."""

    iterations: int = 200
    exploration: float = 1.0
    rollout_depth: int | None = None  # defaults to options.max_depth
    #: search RNG seed; ``None`` inherits the runtime context's root seed
    #: (``RuntimeConfig.seed``), so `REPRO_SEED`/`with_overrides(seed=...)`
    #: steer the tree search like every other seeded component.
    seed: int | None = None
    #: maximum number of children to expand per node (limits branching).
    max_children: int = 64
    #: frontier width: how many rollouts each wave proposes before their
    #: rewards are applied.  The wave composition (and hence the whole sample
    #: sequence) is a function of the seed and this width only — sharded
    #: evaluation parallelizes *within* a wave without changing it.  ``1``
    #: reproduces the classic one-sample-at-a-time UCT loop exactly.
    batch_size: int = 1
    #: context of the process-wide reward cache.  Searches sharing a context
    #: (same backbone, same evaluation settings) reuse each other's rewards;
    #: ``None`` keeps rewards private to this search instance.
    cache_context: Hashable | None = None
    #: signatures of root children to expand first, best first (seeded by the
    #: library warm start, :mod:`repro.library.warmstart`).  Pure reordering
    #: of the root's untried list: the RNG stream — shuffles and rollouts —
    #: is consumed identically whether or not this is set, so leaving it
    #: empty reproduces the cold search bit for bit.
    root_priority: tuple[str, ...] = ()


class _Node:
    """One node of the MCTS tree (a partial pGraph)."""

    __slots__ = ("graph", "parent", "children", "untried", "visits", "total_reward", "action")

    def __init__(self, graph: PGraph, parent: "_Node | None", action: Action | None):
        self.graph = graph
        self.parent = parent
        self.action = action
        self.children: list[_Node] = []
        self.untried: list[tuple[Action, PGraph]] | None = None
        self.visits = 0
        self.total_reward = 0.0


@dataclass
class SampleRecord:
    """One evaluated terminal sample (the paper records all MCTS samples)."""

    operator: SynthesizedOperator
    reward: float
    iteration: int


@dataclass
class PendingRollout:
    """One proposed-but-unrewarded rollout of a frontier wave.

    ``operator``/``signature`` are ``None`` for invalid rollouts (depth limit
    hit, dead end, or budget exceeded), which receive zero reward at apply
    time — exactly like the classic loop, just deferred to the wave boundary.
    """

    iteration: int
    node: _Node
    operator: SynthesizedOperator | None = None
    signature: str | None = None


def _reward_worker(
    reward_fn: RewardFn, context: Hashable, item: tuple[str, SynthesizedOperator]
) -> float:
    """Reward one pending (signature, operator) pair through the reward cache."""
    signature, operator = item
    return current().cached_reward(context, signature, lambda: float(reward_fn(operator)))


def _space_key(spec: OperatorSpec, options: EnumerationOptions) -> tuple:
    """The search space a graph's legal children depend on, as a memo key.

    The spec's shape key fixes the root (and so every dim's symbolic size).
    Every ``EnumerationOptions`` field is rendered as text in declaration
    order, list order included: child order decides what a rollout picks.
    The canonicalizer contributes its rule objects.  Text, unlike tuples of
    ``Size``, compares in one step on every hit.
    """
    rendered = ";".join(
        f"{f.name}={getattr(options, f.name)!r}"
        for f in fields(options)
        if f.name != "canonicalizer"
    )
    canonicalizer = options.canonicalizer
    rules = tuple(canonicalizer.rules) if canonicalizer is not None else None
    return (spec.shape_key, rendered, rules)


@dataclass
class MCTS:
    """UCT search for high-reward operators under a FLOPs budget."""

    spec: OperatorSpec
    options: EnumerationOptions
    reward_fn: RewardFn
    config: MCTSConfig = field(default_factory=MCTSConfig)

    def __post_init__(self) -> None:
        seed = self.config.seed if self.config.seed is not None else current().config.seed
        self._rng = random.Random(seed)
        self._root = _Node(PGraph.root(self.spec.output_shape, self.spec.input_shape), None, None)
        self.samples: list[SampleRecord] = []
        self._iteration = 0
        #: rewards already recorded by THIS search: deduplicates samples and
        #: keeps within-run memoization unconditional (even with the
        #: context's caches disabled via ``RuntimeConfig.eval_cache=False``).
        self._local_rewards: dict[str, float] = {}
        #: reward-cache context; private to the instance unless configured.
        self._context: Hashable = (
            self.config.cache_context
            if self.config.cache_context is not None
            else ("mcts-instance", next(_INSTANCE_CONTEXTS))
        )
        self._space = _space_key(self.spec, self.options)
        #: (signature, weight signature) of every terminal graph a rollout
        #: reached -> its operator, or None when it is over budget.
        self._terminals: dict[tuple[str, str], SynthesizedOperator | None] = {}

    # -- public API --------------------------------------------------------

    def run(self, iterations: int | None = None) -> list[SampleRecord]:
        """Run the search and return all evaluated samples (best first).

        Each wave's rewards are computed under the runtime context, sharded
        over its ``shards`` workers; the sample sequence is the same at any
        shard count because waves are composed before any evaluation.
        """
        iterations = iterations if iterations is not None else self.config.iterations
        width = max(self.config.batch_size, 1)
        self._iteration = 0
        done = 0
        while done < iterations:
            wave = self.propose_batch(min(width, iterations - done))
            if not wave:
                break
            rewards = self._evaluate_wave(wave)
            self.apply_results(wave, rewards)
            done += len(wave)
        return self.best_samples()

    # -- batched frontier API ----------------------------------------------

    def propose_batch(self, n: int) -> list[PendingRollout]:
        """Run the tree policy for up to ``n`` iterations, deferring rewards.

        Each iteration selects, expands and rolls out exactly as the classic
        loop does (consuming the same RNG stream) but records the terminal
        operator as a :class:`PendingRollout` instead of evaluating it.
        Visit counts are backpropagated immediately — a deterministic virtual
        loss that steers later selections in the same wave away from the
        frontier already being evaluated; rewards land in
        :meth:`apply_results`.
        """
        wave: list[PendingRollout] = []
        for _ in range(max(n, 0)):
            node = self._select(self._root)
            node = self._expand(node)
            pending = self._rollout_pending(node, self._iteration)
            self._propagate_visit(node)
            wave.append(pending)
            self._iteration += 1
        return wave

    def pending_evaluations(
        self, wave: Sequence[PendingRollout]
    ) -> list[tuple[str, SynthesizedOperator]]:
        """The unique (signature, operator) pairs this wave needs rewards for.

        First-appearance order; signatures already evaluated by this search
        are excluded (their recorded reward is reused at apply time).
        """
        seen = set(self._local_rewards)
        pending: list[tuple[str, SynthesizedOperator]] = []
        for rollout in wave:
            if rollout.signature is not None and rollout.signature not in seen:
                seen.add(rollout.signature)
                pending.append((rollout.signature, rollout.operator))
        return pending

    def apply_results(
        self, wave: Sequence[PendingRollout], rewards: Mapping[str, float]
    ) -> None:
        """Record the wave's samples and backpropagate rewards, in wave order."""
        for rollout in wave:
            if rollout.signature is None:
                reward = 0.0
            elif rollout.signature in self._local_rewards:
                reward = self._local_rewards[rollout.signature]
            else:
                reward = float(rewards[rollout.signature])
                self._local_rewards[rollout.signature] = reward
                self.samples.append(
                    SampleRecord(
                        operator=rollout.operator, reward=reward, iteration=rollout.iteration
                    )
                )
            self._propagate_reward(rollout.node, reward)

    def _evaluate_wave(self, wave: Sequence[PendingRollout]) -> Mapping[str, float]:
        from repro.search.parallel import sharded_map

        pending = self.pending_evaluations(wave)
        if not pending:
            return {}
        wave_evaluator = current().wave_evaluator
        if wave_evaluator is not None:
            # The serving layer installed a coalescer on this context: hand
            # the whole wave over so concurrent searches share one fan-out.
            # Wave *composition* already happened (propose_batch), so where
            # the rewards come from cannot change the sample sequence.
            return dict(wave_evaluator(pending, self.reward_fn, self._context))
        worker = functools.partial(_reward_worker, self.reward_fn, self._context)
        values = sharded_map(worker, pending)
        return {signature: value for (signature, _), value in zip(pending, values)}

    def best_samples(self, top_k: int | None = None) -> list[SampleRecord]:
        ordered = sorted(self.samples, key=lambda record: record.reward, reverse=True)
        return ordered if top_k is None else ordered[:top_k]

    def best_operator(self) -> SynthesizedOperator | None:
        samples = self.best_samples(1)
        return samples[0].operator if samples else None

    # -- MCTS phases -------------------------------------------------------

    def _select(self, node: _Node) -> _Node:
        """Descend from ``node`` by UCT to a node with untried or no children.

        One loop per level scores every child (the rule is in the module
        docstring), taking the parent's log once.  The first child stands
        until a later one scores strictly higher, as with ``max()``.
        """
        exploration = self.config.exploration
        while node.untried is not None and not node.untried and node.children:
            log_visits = math.log(node.visits + 1)
            best, best_score = None, -math.inf
            for child in node.children:
                visits = child.visits
                if visits:
                    score = child.total_reward / visits + exploration * math.sqrt(
                        log_visits / visits
                    )
                else:
                    score = math.inf
                if best is None or score > best_score:
                    best, best_score = child, score
            node = best
        return node

    def _expand(self, node: _Node) -> _Node:
        if node.graph.depth >= self.options.max_depth or (
            node.graph.is_complete and node.graph.depth > 0
        ):
            return node
        if node.untried is None:
            children = list(self._legal_children(node.graph))
            self._rng.shuffle(children)
            if node.parent is None and self.config.root_priority:
                node.untried = self._prioritized_root_children(children)
            else:
                node.untried = children[: self.config.max_children]
        if not node.untried:
            return node
        action, graph = node.untried.pop()
        child = _Node(graph, node, action)
        node.children.append(child)
        return child

    def _prioritized_root_children(
        self, children: list[tuple[Action, PGraph]]
    ) -> list[tuple[Action, PGraph]]:
        """The root's untried list with warm-start signatures expanded first.

        Expansion pops from the back, so the best-ranked preferred child goes
        last; unranked children fill the remaining ``max_children`` slots in
        their (already shuffled) order.  Runs after the shuffle and consumes
        no randomness.
        """
        rank = {sig: index for index, sig in enumerate(self.config.root_priority)}
        preferred: list[tuple[int, tuple[Action, PGraph]]] = []
        rest: list[tuple[Action, PGraph]] = []
        for action, graph in children:
            position = rank.get(graph.signature())
            if position is None:
                rest.append((action, graph))
            else:
                preferred.append((position, (action, graph)))
        preferred.sort(key=lambda pair: pair[0], reverse=True)
        keep = max(self.config.max_children - len(preferred), 0)
        return rest[:keep] + [pair for _, pair in preferred]

    def _legal_children(self, graph: PGraph) -> tuple[tuple[Action, PGraph], ...]:
        """``graph``'s canonical children that can still complete in time.

        :func:`enumerate_children` followed by the shape-distance prune,
        memoized per runtime context under the graph's signature, its weight
        signature and this search's space key.  The entry is shared by every
        search in the context, so callers copy it before reordering.
        """

        def compute() -> tuple[tuple[Action, PGraph], ...]:
            children = enumerate_children(graph, self.options)
            if not self.options.use_shape_distance:
                return tuple(children)
            remaining = self.options.max_depth - graph.depth - 1
            return tuple(
                (action, child) for action, child in children if within_reach(child, remaining)
            )

        key = (graph.signature(), graph.weight_signature(), self._space)
        return current().cached_children(key, compute)

    def _rollout_pending(self, node: _Node, iteration: int) -> PendingRollout:
        """Complete ``node``'s graph with guided random rollout, deferring the reward.

        Consumes exactly the RNG the classic rollout did; the terminal
        operator (or the invalid outcome) is recorded for wave evaluation.
        A terminal graph's budget verdict and operator come from the
        search's terminal memo.
        """
        graph = node.graph
        # ``rollout_depth=0`` is a legitimate setting (no random completion
        # beyond the tree policy), so only ``None`` falls back to max_depth.
        depth_limit = (
            self.config.rollout_depth
            if self.config.rollout_depth is not None
            else self.options.max_depth
        )
        while not (graph.is_complete and graph.depth > 0):
            if graph.depth >= depth_limit:
                return PendingRollout(iteration=iteration, node=node)
            children = self._legal_children(graph)
            if not children:
                return PendingRollout(iteration=iteration, node=node)
            _, graph = self._rng.choice(children)
        key = (graph.signature(), graph.weight_signature())
        if key not in self._terminals:
            self._terminals[key] = (
                SynthesizedOperator.from_graph(graph, self.spec)
                if self.options.within_budgets(graph)
                else None
            )
        operator = self._terminals[key]
        if operator is None:
            return PendingRollout(iteration=iteration, node=node)
        return PendingRollout(
            iteration=iteration, node=node, operator=operator, signature=key[0]
        )

    def _propagate_visit(self, node: _Node | None) -> None:
        while node is not None:
            node.visits += 1
            node = node.parent

    def _propagate_reward(self, node: _Node | None, reward: float) -> None:
        while node is not None:
            node.total_reward += reward
            node = node.parent

"""Fault injection: a registry of crash-prone seams and a plan to break them.

The supervised shard executor (:func:`repro.search.parallel.sharded_map`)
promises that a worker dying — OOM-killed, hung, or crashing mid-item —
degrades a run instead of corrupting it.  That promise is only worth having
if it is mechanically exercised, so this module makes faults a first-class,
*declarative* input: the ``fault_plan`` config field (env edge:
``REPRO_FAULT_PLAN``) carries a plan of rules, and the code under test calls
:func:`inject` at a small set of **registered sites** — the seams where real
production faults land:

========================  ====================================================
site                      where it fires
========================  ====================================================
``shard-entry``           supervised shard worker body, after context
                          activation and before any work item runs
``item-eval``             before each work item is evaluated in a shard worker
``store-publish``         inside :meth:`SharedCacheStore.publish`, under the
                          store lock's error envelope
``snapshot-load``         inside :meth:`SharedCacheStore.load`, ditto
========================  ====================================================

**Plan grammar.**  Rules are separated by ``;``; each rule is
``action:site[:key=value,...]``::

    kill:shard-entry:shard=1,attempt=1
    hang:item-eval:shard=0
    raise:store-publish
    exit:shard-entry:shard=2,exitcode=3

Actions: ``kill`` (SIGKILL the current process), ``exit`` (``os._exit``),
``hang`` (sleep ``seconds=``, default far beyond any shard timeout) and
``raise`` (raise :class:`FaultInjected`).  Matchers: ``shard=N`` and
``attempt=N`` (1-based) scope a rule to one shard worker / one supervision
attempt — ``attempt=1`` is the canonical *transient* fault, killed once and
healthy on retry.  The first matching rule fires.

**Safety.**  The destructive actions (``kill``/``exit``/``hang``) only ever
fire inside a supervised shard worker — the executor arms the forked child
with :func:`arm_worker` after the fork, and an unarmed process ignores them
with a warning.  The parent process, and the in-process serial fallback at
the bottom of the degradation ladder, can therefore never be killed by a
plan, which is precisely what makes ``repro chaos``'s fingerprint-parity
assertion well-defined.  ``raise`` is allowed anywhere; it raises
:class:`FaultInjected`, an :class:`OSError` subclass, so injected store
faults flow through the very same ``except OSError`` envelopes that absorb
real I/O failures into ``SnapshotStatus`` degradations.
"""

from __future__ import annotations

import logging
import os
import signal as _signal
import time
from dataclasses import dataclass

log = logging.getLogger(__name__)


class FaultPlanError(ValueError):
    """A ``fault_plan`` spec that does not parse or names unknown sites/keys."""


class FaultInjected(OSError):
    """The error raised by a ``raise`` rule.

    Subclasses :class:`OSError` deliberately: injected faults at the store
    seams must exercise the same degradation paths (``write-failed`` /
    ``unreadable`` statuses) that genuine I/O errors take.
    """


# ---------------------------------------------------------------------------
# Site registry
# ---------------------------------------------------------------------------

#: site name -> human description; :func:`inject` only accepts registered
#: sites and the plan parser only accepts these names.
_SITES: dict[str, str] = {}


def register_site(name: str, description: str) -> str:
    """Register an injection site; returns the name for use as a constant."""
    _SITES[name] = description
    return name


SITE_SHARD_ENTRY = register_site(
    "shard-entry", "supervised shard worker entry, before any work item"
)
SITE_ITEM_EVAL = register_site(
    "item-eval", "before each work item evaluated in a shard worker"
)
SITE_STORE_PUBLISH = register_site(
    "store-publish", "shared cache store publish, under its error envelope"
)
SITE_SNAPSHOT_LOAD = register_site(
    "snapshot-load", "shared cache store load, under its error envelope"
)


def fault_sites() -> dict[str, str]:
    """The registered injection sites (name -> description)."""
    return dict(_SITES)


# ---------------------------------------------------------------------------
# Plan parsing
# ---------------------------------------------------------------------------

_ACTIONS = ("kill", "exit", "hang", "raise")
#: actions that take the process down (or wedge it); confined to supervised
#: shard workers by :func:`_fire`.
_DESTRUCTIVE_ACTIONS = ("kill", "exit", "hang")

#: default ``hang`` duration — far beyond any sane shard timeout, so a hang
#: rule means "wedge until the supervisor reaps me" unless ``seconds=`` says
#: otherwise.
_DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultRule:
    """One parsed plan rule: an action at a site, optionally scoped."""

    action: str
    site: str
    shard: int | None = None
    attempt: int | None = None
    seconds: float = _DEFAULT_HANG_SECONDS
    exitcode: int = 17

    def matches(self, site: str, shard: int | None, attempt: int | None) -> bool:
        if site != self.site:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def describe(self) -> str:
        scope = [
            f"shard={self.shard}" if self.shard is not None else "",
            f"attempt={self.attempt}" if self.attempt is not None else "",
        ]
        suffix = ",".join(part for part in scope if part)
        return f"{self.action}:{self.site}" + (f":{suffix}" if suffix else "")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s parsed from one spec string."""

    rules: tuple[FaultRule, ...] = ()
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``action:site[:key=value,...]`` (``;``-separated) spec.

        Raises :class:`FaultPlanError` on unknown actions, unregistered
        sites, unknown matcher keys or malformed values — a chaos run with a
        typo'd plan must fail loudly, not silently run fault-free.
        """
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise FaultPlanError(
                    f"malformed fault rule {chunk!r}: expected action:site[:key=value,...]"
                )
            action, site = parts[0].strip(), parts[1].strip()
            if action not in _ACTIONS:
                raise FaultPlanError(
                    f"unknown fault action {action!r} (expected one of {', '.join(_ACTIONS)})"
                )
            if site not in _SITES:
                raise FaultPlanError(
                    f"unknown fault site {site!r} (registered sites: "
                    f"{', '.join(sorted(_SITES))})"
                )
            kwargs: dict[str, object] = {}
            if len(parts) == 3:
                for pair in parts[2].split(","):
                    pair = pair.strip()
                    if not pair:
                        continue
                    key, separator, raw = pair.partition("=")
                    key = key.strip()
                    if not separator or not raw:
                        raise FaultPlanError(
                            f"malformed matcher {pair!r} in rule {chunk!r} (expected key=value)"
                        )
                    try:
                        if key in ("shard", "attempt", "exitcode"):
                            kwargs[key] = int(raw)
                        elif key == "seconds":
                            kwargs[key] = float(raw)
                        else:
                            raise FaultPlanError(
                                f"unknown matcher key {key!r} in rule {chunk!r} "
                                "(known: shard, attempt, seconds, exitcode)"
                            )
                    except ValueError:
                        raise FaultPlanError(
                            f"malformed value {raw!r} for {key!r} in rule {chunk!r}"
                        ) from None
            rules.append(FaultRule(action=action, site=site, **kwargs))  # type: ignore[arg-type]
        return cls(rules=tuple(rules), spec=spec)

    def rule_for(
        self, site: str, shard: int | None, attempt: int | None
    ) -> FaultRule | None:
        """The first rule matching this (site, shard, attempt), if any."""
        for rule in self.rules:
            if rule.matches(site, shard, attempt):
                return rule
        return None


#: parsed-plan memo: spec string -> plan.  Plans are tiny and specs few, so
#: this never needs eviction; it keeps :func:`inject` cheap on hot paths.
_PLAN_CACHE: dict[str, FaultPlan] = {}

_EMPTY_PLAN = FaultPlan()


def plan_from(spec: str) -> FaultPlan:
    """The parsed plan for a spec string (memoized; '' is the empty plan)."""
    if not spec:
        return _EMPTY_PLAN
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = FaultPlan.parse(spec)
        _PLAN_CACHE[spec] = plan
    return plan


# ---------------------------------------------------------------------------
# Worker arming + injection
# ---------------------------------------------------------------------------

#: identity of the supervised shard worker this process is (armed post-fork
#: by the executor); ``None`` outside a worker — where destructive actions
#: are refused.
_WORKER_SHARD: int | None = None
_WORKER_ATTEMPT: int | None = None


def arm_worker(shard: int, attempt: int) -> None:
    """Mark this process as supervised shard ``shard``, attempt ``attempt``.

    Called by the executor inside the freshly forked child.  Destructive
    fault actions only fire in an armed process, and shard/attempt matchers
    resolve against these values.
    """
    global _WORKER_SHARD, _WORKER_ATTEMPT
    _WORKER_SHARD = shard
    _WORKER_ATTEMPT = attempt


def disarm_worker() -> None:
    """Clear the worker identity (tests that inject in-process use this)."""
    global _WORKER_SHARD, _WORKER_ATTEMPT
    _WORKER_SHARD = None
    _WORKER_ATTEMPT = None


def inject(site: str) -> None:
    """Fire the active plan's first matching rule at ``site``, if any.

    The plan is the ambient context's ``fault_plan``.  With an empty plan
    this is a fast no-op — the hot paths (per-item evaluation) pay one
    attribute read.  Raises :class:`FaultInjected` for ``raise`` rules and
    :class:`FaultPlanError` for malformed specs (callers validate upfront via
    :meth:`FaultPlan.parse` when the spec is user input).
    """
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    from repro.runtime.context import current  # lazy: avoids an import cycle

    spec = getattr(current().config, "fault_plan", "")
    if not spec:
        return
    rule = plan_from(spec).rule_for(site, _WORKER_SHARD, _WORKER_ATTEMPT)
    if rule is not None:
        _fire(rule)


def _fire(rule: FaultRule) -> None:
    if rule.action in _DESTRUCTIVE_ACTIONS and _WORKER_SHARD is None:
        # The parent (or the serial fallback) must survive every plan: only
        # supervised children — which the executor can reap and retry — are
        # allowed to die.  This confinement is what makes fault-ridden and
        # fault-free runs comparable at all.
        log.warning(
            "fault plan: ignoring destructive rule %s outside a supervised "
            "shard worker", rule.describe(),
        )
        return
    log.info("fault plan: firing %s (pid %d)", rule.describe(), os.getpid())
    if rule.action == "kill":
        os.kill(os.getpid(), _signal.SIGKILL)
    elif rule.action == "exit":
        os._exit(rule.exitcode)
    elif rule.action == "hang":
        time.sleep(rule.seconds)
    elif rule.action == "raise":
        raise FaultInjected(
            f"injected fault at {rule.site} (rule {rule.describe()}, pid {os.getpid()})"
        )

"""Deterministic fault injection for the simulated device.

Production GPU clusters lose kernels to transient launch failures, exchanges
to flaky interconnect links, and allocations to memory pressure.  This module
lets a test (or the CI chaos job) script those failures *deterministically*:
a :class:`FaultPlan` counts matching events per fault site and raises at
chosen occurrence indices, so the same plan over the same program always
fails at exactly the same kernel launch.

Fault sites
-----------

* ``kernel`` — a :meth:`Device.charge` call whose kernel name matches;
  raises :class:`~repro.errors.TransientDeviceError` (retryable).
* ``alloc`` — a :meth:`Device.allocate` call whose label matches; raises
  :class:`~repro.errors.DeviceOutOfMemoryError` *before* any pool state
  changes (an injected allocation failure).
* ``exchange`` — a ``device_to_device`` / ``broadcast_to`` transfer whose
  label matches; raises :class:`~repro.errors.ExchangeError` carrying the
  receiving peer (the fixpoint driver's shard-crash signal).

Plans install per device (``Device(fault_plan=...)``) or process-wide via the
``REPRO_FAULT_PLAN`` environment variable.  Sharing one plan instance across
shard devices gives cluster-global occurrence counting (the single-threaded
evaluator makes the ordering deterministic).

Spec string format (used by the env var and :meth:`FaultPlan.parse`)::

    kind:pattern:at=3          fire on the 3rd matching event
    kind:pattern:at=3,7        fire on the 3rd and 7th
    kind:pattern:every=97      fire on every 97th (capped by times=)
    kind:pattern:every=97:times=2

Multiple specs are separated by ``;``.  ``pattern`` is an ``fnmatch`` glob
over the kernel name / allocation label.  Three names are special: ``none``
(explicitly no faults, overriding the environment), ``ci-default`` (the
chaos-mode plan used by CI: sparse transient faults on join kernels, an
injected allocation failure, and one exchange fault), and ``serving-chaos``
(bounded faults aimed at serving-epoch sites — delta-fixpoint kernels, DRed
rebuilds, shard exchanges — that the serving engine's whole-epoch replay
ladder must absorb).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from ..errors import DeviceOutOfMemoryError, ExchangeError, SchemaError, TransientDeviceError

__all__ = [
    "FAULT_PLAN_ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "resolve_fault_plan",
]

#: Environment variable supplying the default fault plan (the CI chaos job
#: exports ``REPRO_FAULT_PLAN=ci-default``, mirroring ``REPRO_BACKEND``).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

KIND_KERNEL = "kernel"
KIND_ALLOC = "alloc"
KIND_EXCHANGE = "exchange"
_KINDS = (KIND_KERNEL, KIND_ALLOC, KIND_EXCHANGE)

#: The chaos-mode plan CI installs process-wide: sparse retryable faults on
#: join kernels (every label of the join chain contains ``<-``), one injected
#: allocation failure on a relation's ``new`` buffer, and one exchange fault.
#: Sparse on purpose — the default retry budget (3) must absorb it without
#: per-test tuning.
CI_DEFAULT_SPEC = "kernel:*<-*:every=211:times=3;alloc:*.new:at=7;exchange:*:at=3"

#: Chaos plan aimed at the *serving* fault sites: epoch delta-fixpoint joins,
#: DRed retraction rebuilds, and shard exchanges all charge kernels/transfers
#: after the bootstrap horizon these occurrence indices target.  Every spec is
#: ``times``-bounded so a whole-epoch replay (the serving ladder's rung above
#: the evaluator's per-version retries) eventually runs fault-free — the plan
#: exercises rollback, not permanent outage.
SERVING_CHAOS_SPEC = "kernel:*:every=131:times=2;exchange:*:at=4:times=1"


@dataclass
class FaultSpec:
    """One scripted fault: fire on chosen occurrences of matching events."""

    kind: str
    pattern: str = "*"
    #: explicit 1-based occurrence indices that fire
    at: tuple[int, ...] = ()
    #: additionally fire whenever the occurrence count is a multiple of this
    every: int = 0
    #: total firings allowed (None = unlimited); explicit ``at`` indices
    #: default to firing once each
    times: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        self.at = tuple(sorted(int(i) for i in self.at))
        if any(i <= 0 for i in self.at):
            raise SchemaError("fault occurrence indices are 1-based and positive")
        self.every = int(self.every)
        if not self.at and self.every <= 0:
            raise SchemaError(f"fault spec {self.kind}:{self.pattern} never fires (no at= or every=)")
        if self.times is None and not self.every:
            self.times = len(self.at)

    def matches(self, name: str) -> bool:
        return fnmatchcase(name, self.pattern)

    def should_fire(self, occurrence: int, fired: int) -> bool:
        if self.times is not None and fired >= self.times:
            return False
        if occurrence in self.at:
            return True
        return self.every > 0 and occurrence % self.every == 0


@dataclass
class _SpecState:
    spec: FaultSpec
    occurrences: int = 0
    fired: int = 0


class FaultPlan:
    """A deterministic schedule of injected device faults.

    The plan is *stateful*: each spec counts the events matching it, across
    every device the plan is installed on.  Counting (not randomness at fire
    time) is what makes a plan reproducible — :meth:`seeded` derives its
    occurrence indices from a seed once, up front.
    """

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]" = (), *, name: str = "") -> None:
        self.name = name
        self._states = [_SpecState(spec) for spec in specs]
        #: every fault the plan has raised, as (kind, name, occurrence) —
        #: lets tests assert a scenario actually exercised its fault path
        self.fired_events: list[tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan | None":
        """Parse a spec string (see module docstring); named plans accepted."""
        text = text.strip()
        if not text or text.lower() in {"none", "off", "0"}:
            return None
        if text.lower() == "ci-default":
            plan = cls.parse(CI_DEFAULT_SPEC)
            assert plan is not None
            plan.name = "ci-default"
            return plan
        if text.lower() == "serving-chaos":
            plan = cls.parse(SERVING_CHAOS_SPEC)
            assert plan is not None
            plan.name = "serving-chaos"
            return plan
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 3:
                raise SchemaError(
                    f"bad fault spec {chunk!r}; expected kind:pattern:at=N or kind:pattern:every=N"
                )
            kind, pattern = parts[0].strip(), parts[1].strip()
            at: tuple[int, ...] = ()
            every = 0
            times: int | None = None
            for option in parts[2:]:
                key, _, value = option.partition("=")
                key = key.strip()
                try:
                    if key == "at":
                        at = tuple(int(v) for v in value.split(","))
                    elif key == "every":
                        every = int(value)
                    elif key == "times":
                        times = int(value)
                    else:
                        raise SchemaError(f"unknown fault spec option {key!r} in {chunk!r}")
                except ValueError as error:
                    raise SchemaError(f"bad fault spec option {option!r} in {chunk!r}") from error
            specs.append(FaultSpec(kind=kind, pattern=pattern, at=at, every=every, times=times))
        if not specs:
            return None
        return cls(specs, name=text)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        kinds: tuple[str, ...] = (KIND_KERNEL,),
        pattern: str = "*",
        faults: int = 1,
        horizon: int = 500,
    ) -> "FaultPlan":
        """Derive a random-looking but fully reproducible plan from ``seed``.

        Picks ``faults`` distinct occurrence indices in ``[1, horizon]`` for
        each kind; the same seed always yields the same plan.
        """
        rng = np.random.default_rng(int(seed))
        specs = []
        for kind in kinds:
            count = min(int(faults), int(horizon))
            indices = rng.choice(np.arange(1, int(horizon) + 1), size=count, replace=False)
            specs.append(FaultSpec(kind=kind, pattern=pattern, at=tuple(int(i) for i in indices)))
        return cls(specs, name=f"seeded:{seed}")

    # ------------------------------------------------------------------
    # Event hooks (called by Device / DeviceKernels)
    # ------------------------------------------------------------------
    def _check(self, kind: str, name: str) -> "FaultSpec | None":
        for state in self._states:
            if state.spec.kind != kind or not state.spec.matches(name):
                continue
            state.occurrences += 1
            if state.spec.should_fire(state.occurrences, state.fired):
                state.fired += 1
                self.fired_events.append((kind, name, state.occurrences))
                return state.spec
        return None

    def on_kernel(self, kernel: str) -> None:
        """Raise :class:`TransientDeviceError` if a kernel fault is due."""
        if self._check(KIND_KERNEL, kernel) is not None:
            raise TransientDeviceError(
                f"injected transient fault in kernel {kernel!r} (plan {self.name or 'anonymous'!r})",
                kernel=kernel,
            )

    def on_alloc(self, label: str, nbytes: int, pool) -> None:
        """Raise an injected :class:`DeviceOutOfMemoryError` if due."""
        if self._check(KIND_ALLOC, label or "device_malloc") is not None:
            raise DeviceOutOfMemoryError(int(nbytes), pool.in_use_bytes, pool.capacity_bytes)

    def on_exchange(self, label: str, peer) -> None:
        """Raise :class:`ExchangeError` if an exchange fault is due."""
        if self._check(KIND_EXCHANGE, label) is not None:
            raise ExchangeError(
                f"injected exchange fault on transfer {label!r} (plan {self.name or 'anonymous'!r})",
                device=peer,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def specs(self) -> list[FaultSpec]:
        return [state.spec for state in self._states]

    @property
    def fault_count(self) -> int:
        """Total faults the plan has raised so far."""
        return len(self.fired_events)

    def reset(self) -> None:
        """Forget all counters (the plan will replay from the beginning)."""
        for state in self._states:
            state.occurrences = 0
            state.fired = 0
        self.fired_events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(name={self.name!r}, specs={len(self._states)}, fired={self.fault_count})"


def resolve_fault_plan(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Resolve a ``fault_plan=`` argument to an installed plan.

    ``None`` defers to ``REPRO_FAULT_PLAN`` (a fresh plan per call, so two
    independently created devices do not share counters unless the caller
    shares an explicit instance); a string is parsed (``"none"`` explicitly
    disables injection even when the environment sets a plan).
    """
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        return FaultPlan.parse(plan)
    if plan is None:
        text = os.environ.get(FAULT_PLAN_ENV_VAR, "").strip()
        if text:
            return FaultPlan.parse(text)
        return None
    raise SchemaError(f"fault_plan must be a FaultPlan, spec string, or None; got {plan!r}")

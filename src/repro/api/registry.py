"""Named policy registry.

Every routing policy of the reproduction — OSCAR and all baselines — is
registered here under a short string name, so consumers never hard-wire
policy classes:

>>> from repro import api
>>> policy = api.make_policy("oscar", total_budget=5000.0)

Factories are keyword-configurable; anything not supplied explicitly is
filled in from an :class:`~repro.experiments.config.ExperimentConfig` (the
paper's defaults when none is given): ``make_policy("oscar")`` builds the
paper's OSCAR and ``default_registry.make("oscar", config)`` the OSCAR a
configuration describes.

User-defined policies join the same namespace through the decorator:

>>> @api.register_policy("always-idle")
... def _make_idle(config, **kwargs):
...     return IdlePolicy(**kwargs)

or, for :class:`~repro.core.policy.RoutingPolicy` dataclasses whose fields
follow the standard names (``total_budget``, ``horizon``, ``gamma``, …),
by registering the class itself — matching config values are injected
automatically.
"""

from __future__ import annotations

import dataclasses
import difflib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.baselines import (
    MyopicAdaptivePolicy,
    MyopicFixedPolicy,
    ShortestRouteUniformPolicy,
    UnconstrainedPolicy,
)
from repro.core.fidelity import FidelityAwarePolicy
from repro.core.oscar import OscarPolicy
from repro.core.policy import RoutingPolicy
from repro.experiments.config import ExperimentConfig

#: A policy factory takes the experiment configuration plus free-form
#: keyword overrides and returns a fresh, un-reset policy instance.
PolicyFactory = Callable[..., RoutingPolicy]

class UnknownPolicyError(KeyError):
    """Raised when a policy name is not (or not yet) registered."""

    def __init__(self, name: str, known: Iterable[str]):
        known = sorted(known)
        message = f"unknown policy {name!r}; registered policies: {', '.join(known)}"
        suggestions = difflib.get_close_matches(name, known, n=3)
        if suggestions:
            message += f" (did you mean {' or '.join(repr(s) for s in suggestions)}?)"
        super().__init__(message)
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __reduce__(self):
        # KeyError's default reduce replays cls(*args) with the formatted
        # message, which does not match __init__(name, known) — without this
        # the exception cannot cross a process-pool boundary.
        return (type(self), (self.name, self.known))


def _normalise(name: str) -> str:
    """Canonical spelling of a policy name: lower-case, hyphen-separated."""
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def apply_fidelity_constraint(
    policy: RoutingPolicy, config: ExperimentConfig
) -> RoutingPolicy:
    """Wrap ``policy`` for fidelity-constrained mode when the config asks for it.

    With the physical layer on, ``physical.fidelity_constrained`` set and a
    positive ``physical.fidelity_target``, the policy is wrapped in a
    :class:`~repro.core.fidelity.FidelityAwarePolicy` whose route model uses
    the physical model's best-case per-edge delivered fidelity
    (:meth:`~repro.simulation.physical.PhysicalModel.edge_fidelity_bound`) —
    candidate routes that cannot deliver the target even under full
    purification are filtered before route selection, so every base policy
    gains the constraint without modification (the paper's Sec. III-C
    point).  Every registry ``make`` applies this, which is how the
    constraint reaches scenarios, studies and the CLI uniformly.
    """
    model = config.physical
    if model is None or not model.fidelity_constrained or model.fidelity_target <= 0.0:
        return policy
    return FidelityAwarePolicy(
        base=policy,
        fidelity_model=model.route_fidelity_model(config.attempts_per_slot),
        fidelity_target=model.fidelity_target,
    )


def _factory_from_class(cls: type) -> PolicyFactory:
    """Wrap a policy class so config-derived defaults fill missing kwargs."""
    parameters = inspect.signature(cls).parameters

    def factory(config: ExperimentConfig, **kwargs: object) -> RoutingPolicy:
        merged: Dict[str, object] = {
            entry.name: getattr(config, entry.name)
            for entry in dataclasses.fields(config)
            if entry.name in parameters
        }
        merged.update(kwargs)
        return cls(**merged)

    factory.__name__ = f"make_{cls.__name__}"
    factory.__doc__ = f"Build a {cls.__name__} with config-derived defaults."
    return factory


@dataclass
class PolicyRegistry:
    """A mutable mapping from policy names (and aliases) to factories."""

    _factories: Dict[str, PolicyFactory] = field(default_factory=dict)
    _aliases: Dict[str, str] = field(default_factory=dict)
    _descriptions: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Optional[object] = None,
        *,
        aliases: Iterable[str] = (),
        description: str = "",
        overwrite: bool = False,
    ):
        """Register ``factory`` (a callable or a policy class) under ``name``.

        Usable directly or as a decorator::

            registry.register("oscar", OscarPolicy)

            @registry.register("my-policy", aliases=("mine",))
            def make_mine(config, **kwargs):
                return MyPolicy(**kwargs)
        """
        if factory is None:
            def decorator(target):
                self.register(
                    name, target, aliases=aliases, description=description,
                    overwrite=overwrite,
                )
                return target
            return decorator

        canonical = _normalise(name)
        taken = [
            spelling
            for spelling in (canonical, *map(_normalise, aliases))
            if spelling in self._factories or spelling in self._aliases
        ]
        if taken and not overwrite:
            raise ValueError(
                f"policy name(s) already registered: {', '.join(sorted(set(taken)))} "
                "(pass overwrite=True to replace)"
            )
        # Drop stale alias entries for every spelling being (re)registered,
        # otherwise an old alias would keep shadowing the new canonical name.
        for spelling in (canonical, *map(_normalise, aliases)):
            self._aliases.pop(spelling, None)
        if isinstance(factory, type) and issubclass(factory, RoutingPolicy):
            resolved: PolicyFactory = _factory_from_class(factory)
        elif callable(factory):
            resolved = factory  # type: ignore[assignment]
        else:
            raise TypeError(f"factory must be callable or a RoutingPolicy class, got {factory!r}")
        if not description and factory.__doc__:
            description = factory.__doc__.strip().splitlines()[0]
        self._factories[canonical] = resolved
        self._descriptions[canonical] = description
        for alias in aliases:
            self._aliases[_normalise(alias)] = canonical
        return factory

    def unregister(self, name: str) -> None:
        """Remove a policy and all of its aliases."""
        canonical = self.canonical_name(name)
        del self._factories[canonical]
        self._descriptions.pop(canonical, None)
        for alias in [a for a, target in self._aliases.items() if target == canonical]:
            del self._aliases[alias]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def canonical_name(self, name: str) -> str:
        """Resolve aliases/spelling and return the canonical name."""
        spelling = _normalise(name)
        spelling = self._aliases.get(spelling, spelling)
        if spelling not in self._factories:
            raise UnknownPolicyError(name, self.names())
        return spelling

    def __contains__(self, name: str) -> bool:
        try:
            self.canonical_name(name)
        except UnknownPolicyError:
            return False
        return True

    def names(self) -> Tuple[str, ...]:
        """The canonical names of every registered policy (sorted)."""
        return tuple(sorted(self._factories))

    def describe(self) -> Dict[str, str]:
        """Canonical name → one-line description."""
        return {name: self._descriptions.get(name, "") for name in self.names()}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def make(
        self,
        name: str,
        config: Optional[ExperimentConfig] = None,
        **kwargs: object,
    ) -> RoutingPolicy:
        """Build a fresh policy instance by name.

        ``config`` supplies the defaults (budget, horizon, solver settings);
        keyword arguments override individual parameters.  Without a config
        the paper's defaults (:meth:`ExperimentConfig.paper`) apply.  When
        the config runs the physical layer in fidelity-constrained mode the
        built policy is wrapped so only routes able to deliver the fidelity
        target remain eligible (see :func:`apply_fidelity_constraint`).
        """
        canonical = self.canonical_name(name)
        config = config if config is not None else ExperimentConfig.paper()
        policy = self._factories[canonical](config, **kwargs)
        return apply_fidelity_constraint(policy, config)


#: The process-wide default registry used by :func:`make_policy` and the
#: scenario layer.  Import-time registration keeps worker processes of a
#: parallel session in sync with the parent automatically.
default_registry = PolicyRegistry()

default_registry.register(
    "oscar", OscarPolicy, aliases=("drift-plus-penalty",),
    description="OSCAR (Algorithm 1): Lyapunov drift-plus-penalty routing.",
)
default_registry.register(
    "myopic-adaptive", MyopicAdaptivePolicy, aliases=("ma",),
    description="Myopic-Adaptive: redistributes unspent budget over remaining slots.",
)
default_registry.register(
    "myopic-fixed", MyopicFixedPolicy, aliases=("mf",),
    description="Myopic-Fixed: hard per-slot budget share C/T.",
)
default_registry.register(
    "unconstrained", UnconstrainedPolicy,
    description="Budget-oblivious per-slot utility maximisation (upper bound).",
)
default_registry.register(
    "shortest-uniform", ShortestRouteUniformPolicy, aliases=("naive",),
    description="Shortest candidate route with a uniform budget spread (no optimisation).",
)


def register_policy(
    name: str,
    factory: Optional[object] = None,
    *,
    aliases: Iterable[str] = (),
    description: str = "",
    overwrite: bool = False,
):
    """Register a policy in the default registry (decorator-friendly)."""
    return default_registry.register(
        name, factory, aliases=aliases, description=description, overwrite=overwrite
    )


def make_policy(
    name: str, config: Optional[ExperimentConfig] = None, **kwargs: object
) -> RoutingPolicy:
    """Build a policy from the default registry (see :meth:`PolicyRegistry.make`)."""
    return default_registry.make(name, config, **kwargs)


def available_policies() -> Tuple[str, ...]:
    """Canonical names of every policy in the default registry."""
    return default_registry.names()

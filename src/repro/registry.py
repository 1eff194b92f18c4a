"""Generic name -> object registries.

The experiment layer dispatches on names stored in
:class:`~repro.experiments.config.ExperimentConfig` (``policy``,
``workload``, ``platform``, ``package``).  Each of those namespaces is a
:class:`Registry`: a mapping with decorator-based registration, a
helpful error listing the known names on a typo, and a context manager
for temporary registrations in tests and ablations.

Concrete registries live beside the things they register:

* ``repro.policies.registry``   — ``@register_policy``
* ``repro.streaming.registry``  — ``@register_workload_spec``
* ``repro.platform.registry``   — ``@register_platform``
* ``repro.thermal.registry``    — ``@register_package``
* ``repro.thermal.solvers``     — ``@register_solver``
* ``repro.campaign.spec``       — ``@register_campaign``

Registering a new scenario never requires touching the runner::

    from repro.policies.registry import register_policy

    @register_policy("my-policy")
    def _build(config):
        return MyPolicy(threshold_c=config.threshold_c)

    run_experiment(ExperimentConfig(policy="my-policy"))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Optional


class Registry(Mapping):
    """A named mapping of scenario components.

    Implements the read-only :class:`~typing.Mapping` protocol, so
    existing code that treated the old module-level dicts as mappings
    (``name in PACKAGES``, ``PACKAGES[name]``, ``set(PLATFORMS)``)
    keeps working against the live registry.
    """

    def __init__(self, kind: str, plural: Optional[str] = None):
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._entries: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, obj: Any = None, *,
                 overwrite: bool = False):
        """Register ``obj`` under ``name``.

        Usable directly (``registry.register("x", thing)``) or as a
        decorator (``@registry.register("x")``).  Duplicate names raise
        unless ``overwrite=True`` — silent shadowing hides scenarios.
        """
        def _add(entry: Any) -> Any:
            if not overwrite and name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass overwrite=True to replace it")
            self._entries[name] = entry
            return entry

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove a registration.  Missing names are ignored."""
        self._entries.pop(name, None)

    @contextmanager
    def temporarily(self, name: str, obj: Any):
        """Register ``obj`` for the duration of a ``with`` block.

        Restores any shadowed entry on exit; used by tests and
        ablations that run variant scenarios without leaking them into
        the global namespace.
        """
        had, previous = name in self._entries, self._entries.get(name)
        self._entries[name] = obj
        try:
            yield obj
        finally:
            if had:
                self._entries[name] = previous
            else:
                del self._entries[name]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def resolve(self, name: str) -> Any:
        """Look up ``name``; unknown names raise a listing ValueError.

        The validation entry point (config fields, CLI names).  Plain
        mapping access — ``registry[name]``, ``registry.get(name,
        default)`` — follows the standard :class:`Mapping` contract
        instead (``KeyError`` / default).
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"known {self.plural}: {known}") from None

    def names(self) -> tuple:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry kind={self.kind!r} names={list(self.names())}>"


def register_value(registry: Registry, name: str, obj: Any = None):
    """Register a value directly or via a zero-arg factory decorator.

    Shared by the platform/package registries, whose entries are plain
    parameter objects rather than config-taking factories::

        register_value(platform_registry, "conf3", my_platform_config)

        @register_value(platform_registry, "conf3")
        def _conf3() -> PlatformConfig: ...       # evaluated once
    """
    if obj is not None:
        return registry.register(name, obj)

    def decorate(factory: Callable[[], Any]):
        registry.register(name, factory())
        return factory
    return decorate

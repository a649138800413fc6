"""Typing environments ``Γ`` and data-constructor signatures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.errors import ScopeError
from repro.core.types import Type, ftv, fuv, UVar


@dataclass(frozen=True)
class DataCon:
    """A data constructor ``K : ∀ ā b̄. σ1 -> ... -> σn -> T ā``.

    ``universals`` are the type variables of the result type ``T ā``;
    ``existentials`` (``b̄``) are variables that occur only in the fields
    (Appendix A allows these — they become skolems in each case branch).
    ``fields`` are the argument types and ``result_con`` the constructor
    name ``T``.
    """

    name: str
    universals: tuple[str, ...]
    existentials: tuple[str, ...]
    fields: tuple[Type, ...]
    result_con: str
    # GADT-style local assumptions (Appendix B): each element is either a
    # ``Pred`` (class given) or a pair ``(Type, Type)`` (equality given).
    givens: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.fields)


class Environment:
    """An immutable typing environment mapping term variables to types.

    Environments are persistent: :meth:`extended` returns a new environment
    sharing structure with the old one.  Data constructors live in a
    separate table so ``case`` alternatives can find them.

    The free skolem variables of each binding are memoised per name the
    first time :meth:`free_type_vars` needs them, and their union once per
    environment.  Derived environments start from a copy of that table
    minus the names they rebind, so the answer stays exact under shadowing
    and the memo lives exactly as long as the environment that owns it.
    Every write stores the value any other writer would, so threads may
    share one environment.
    """

    def __init__(
        self,
        bindings: Mapping[str, Type] | None = None,
        datacons: Mapping[str, DataCon] | None = None,
    ) -> None:
        self._bindings: dict[str, Type] = dict(bindings or {})
        self._datacons: dict[str, DataCon] = dict(datacons or {})
        self._ftvs: dict[str, frozenset[str]] = {}
        self._free_type_vars: frozenset[str] | None = None

    @classmethod
    def _derived(
        cls,
        bindings: dict[str, Type],
        datacons: dict[str, DataCon],
        ftvs: dict[str, frozenset[str]],
    ) -> "Environment":
        """An environment owning the given (already copied) tables."""
        env = cls.__new__(cls)
        env._bindings = bindings
        env._datacons = datacons
        env._ftvs = ftvs
        env._free_type_vars = None
        return env

    def lookup(self, name: str) -> Type:
        """The type of a variable; raises :class:`ScopeError` if absent."""
        try:
            return self._bindings[name]
        except KeyError:
            raise ScopeError(name) from None

    def lookup_datacon(self, name: str) -> DataCon:
        """The signature of a data constructor."""
        try:
            return self._datacons[name]
        except KeyError:
            raise ScopeError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def extended(self, name: str, type_: Type) -> "Environment":
        """A new environment with one extra binding."""
        bindings = dict(self._bindings)
        bindings[name] = type_
        ftvs = dict(self._ftvs)
        ftvs.pop(name, None)
        return Environment._derived(bindings, self._datacons, ftvs)

    def extended_many(self, pairs: Mapping[str, Type]) -> "Environment":
        """A new environment with several extra bindings."""
        bindings = dict(self._bindings)
        bindings.update(pairs)
        ftvs = dict(self._ftvs)
        for name in pairs:
            ftvs.pop(name, None)
        return Environment._derived(bindings, self._datacons, ftvs)

    def with_datacon(self, datacon: DataCon) -> "Environment":
        """A new environment with one extra data constructor."""
        datacons = dict(self._datacons)
        datacons[datacon.name] = datacon
        return Environment._derived(self._bindings, datacons, dict(self._ftvs))

    def items(self) -> Iterator[tuple[str, Type]]:
        return iter(self._bindings.items())

    def names(self) -> Iterator[str]:
        return iter(self._bindings)

    def free_type_vars(self) -> frozenset[str]:
        """Skolem variables free in any binding (memoised, see the class)."""
        result = self._free_type_vars
        if result is None:
            ftvs = self._ftvs
            found: set[str] = set()
            for name, type_ in self._bindings.items():
                free = ftvs.get(name)
                if free is None:
                    free = frozenset(ftv(type_))
                    ftvs[name] = free
                if free:
                    found |= free
            result = self._free_type_vars = frozenset(found)
        return result

    def free_unification_vars(self) -> set[UVar]:
        """Unification variables free in any binding."""
        result: set[UVar] = set()
        for type_ in self._bindings.values():
            result.update(fuv(type_))
        return result

    def is_closed(self) -> bool:
        """No binding mentions a free skolem or unification variable."""
        return not self.free_type_vars() and not self.free_unification_vars()

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name} : {type_}" for name, type_ in self._bindings.items())
        return f"Environment({inner})"

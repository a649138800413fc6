"""Typing environments ``Γ`` and data-constructor signatures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.errors import ScopeError
from repro.core.types import Type, UVar, type_facts


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

    Every type that enters an environment gets its facts recorded on the
    node (:func:`~repro.core.types.type_facts`), so the walks that ask
    about a binding — rule VarGen's closed-and-rank-1 test, the free
    variables of generalisation, the unifier's summaries — read the
    record instead of walking it again.  The union of the bindings' free
    skolem variables is memoised once per environment.  Every write
    stores the value any other writer would, so threads may share one
    environment.
    """

    def __init__(
        self,
        bindings: Mapping[str, Type] | None = None,
        datacons: Mapping[str, DataCon] | None = None,
    ) -> None:
        self._bindings: dict[str, Type] = dict(bindings or {})
        for type_ in self._bindings.values():
            type_facts(type_)
        self._datacons: dict[str, DataCon] = dict(datacons or {})
        self._free_type_vars: frozenset[str] | None = None

    @classmethod
    def _derived(
        cls, bindings: dict[str, Type], datacons: dict[str, DataCon]
    ) -> "Environment":
        """An environment owning the given (already copied) tables."""
        env = cls.__new__(cls)
        env._bindings = bindings
        env._datacons = datacons
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
        type_facts(type_)
        bindings = dict(self._bindings)
        bindings[name] = type_
        return Environment._derived(bindings, self._datacons)

    def extended_many(self, pairs: Mapping[str, Type]) -> "Environment":
        """A new environment with several extra bindings."""
        for type_ in pairs.values():
            type_facts(type_)
        bindings = dict(self._bindings)
        bindings.update(pairs)
        return Environment._derived(bindings, self._datacons)

    def with_datacon(self, datacon: DataCon) -> "Environment":
        """A new environment with one extra data constructor."""
        datacons = dict(self._datacons)
        datacons[datacon.name] = datacon
        env = Environment._derived(self._bindings, datacons)
        env._free_type_vars = self._free_type_vars  # the same bindings
        return env

    def items(self) -> Iterator[tuple[str, Type]]:
        return iter(self._bindings.items())

    def names(self) -> Iterator[str]:
        return iter(self._bindings)

    def free_type_vars(self) -> frozenset[str]:
        """Skolem variables free in any binding (memoised, see the class)."""
        result = self._free_type_vars
        if result is None:
            found: set[str] = set()
            for type_ in self._bindings.values():
                found.update(type_facts(type_)[0])
            result = self._free_type_vars = frozenset(found)
        return result

    def free_unification_vars(self) -> set[UVar]:
        """Unification variables free in any binding."""
        result: set[UVar] = set()
        for type_ in self._bindings.values():
            result.update(type_facts(type_)[1])
        return result

    def is_closed(self) -> bool:
        """No binding mentions a free skolem or unification variable."""
        return not self.free_type_vars() and not self.free_unification_vars()

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name} : {type_}" for name, type_ in self._bindings.items())
        return f"Environment({inner})"

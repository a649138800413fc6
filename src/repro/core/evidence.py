"""Evidence recording for elaboration into System F.

Constraint generation tags every instantiation (``⩽``), generalisation
(``⪯``) and quantification site with the *key* of the term node it came
from.  A key is an int: the root's is :data:`ROOT`, and
:meth:`EvidenceStore.child` hands out the key of a node's child the first
time a walk asks, and the same key to every later walk of the same term.
While solving, the solver records:

* for each instantiation constraint, the interleaved trace of type
  arguments chosen by rule inst∀l and explicit arguments consumed by rule
  inst→ — exactly the shape ``ψ1 e1 ψ2 e2 ... ψr`` of Figure 16;
* for each generalisation constraint, the skolems introduced by rule
  inst∀r (the ``Λb̄`` binders of rules ArgGen / VarGen in Figure 16) and,
  for VarGen, the unrestricted variables used to pre-instantiate the
  variable's rank-1 type;
* for each quantification constraint, nothing extra (its binders are the
  user-written ones, already known from the annotation).

The release of an ArgGen scheme is an instantiation too; its key is
derived from the argument's by :func:`release_key`.  The key format is
known only to this module.

After solving, all recorded types are zonked through the final
substitution, so elaboration sees ground System F types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.types import Type, UVar

Key = int

ROOT: Key = 0
"""The key of the root of the inferred term."""


def release_key(key: Key) -> Key:
    """The key of the instantiation that releases the scheme of the
    argument at ``key`` (rule inst⨅l): its type arguments are recorded as
    that argument's :attr:`GenEvidence.release_type_args`."""
    return ~key


@dataclass
class TypeArgs:
    """``ψ``: a block of type arguments chosen by one inst∀l step."""

    types: list[Type]


@dataclass
class TakeArg:
    """Marker: the next explicit argument is consumed here (rule inst→)."""


InstEvent = Union[TypeArgs, TakeArg]


@dataclass
class GenEvidence:
    """What happened when a generalisation constraint was discharged."""

    skolems: list[str] = field(default_factory=list)
    star: bool = False
    """Whether the argument was typed by rule VarGen (bit ⋆)."""
    # VarGen only: the unrestricted variables substituted for the rank-1
    # binders ``p̄`` (in binder order), to become type applications.
    star_type_args: list[Type] = field(default_factory=list)
    # ArgGen release: type arguments used to instantiate a top-level
    # quantifier of the scheme's own type (only when the scheme type is an
    # annotation result ``∀ā.η`` that is released against a mono type).
    release_type_args: list[Type] = field(default_factory=list)


@dataclass
class CaseEvidence:
    """Instantiation data for one case expression (Figure 12)."""

    tycon_args: list[Type] = field(default_factory=list)
    alt_skolems: list[list[str]] = field(default_factory=list)
    field_types: list[list[Type]] = field(default_factory=list)


@dataclass
class EvidenceStore:
    """All evidence collected for one inference run, keyed by node key."""

    inst_traces: dict[Key, list[InstEvent]] = field(default_factory=dict)
    gen_infos: dict[Key, GenEvidence] = field(default_factory=dict)
    ann_skolems: dict[Key, list[str]] = field(default_factory=dict)
    """The skolems rule AnnApp opened for each annotation."""
    lam_binders: dict[Key, Type] = field(default_factory=dict)
    let_types: dict[Key, Type] = field(default_factory=dict)
    case_infos: dict[Key, CaseEvidence] = field(default_factory=dict)
    _children: dict[tuple[Key, int], Key] = field(default_factory=dict, repr=False)

    def child(self, key: Key, index: int) -> Key:
        """The key of child ``index`` of the node at ``key``.  The walks
        number children in ``term_children`` order, except that an
        annotated application numbers its spine like an application:
        the head 0, the arguments from 1."""
        children = self._children
        found = children.get((key, index))
        if found is None:
            found = children[key, index] = len(children) + 1
        return found

    def inst_trace(self, key: Key) -> list[InstEvent]:
        return self.inst_traces.setdefault(key, [])

    def gen_info(self, key: Key) -> GenEvidence:
        return self.gen_infos.setdefault(key, GenEvidence())

    def case_info(self, key: Key) -> CaseEvidence:
        return self.case_infos.setdefault(key, CaseEvidence())

    def record_inst_event(self, key: Key, event: InstEvent) -> None:
        """Record one step of the instantiation at ``key``."""
        if key < 0:
            if isinstance(event, TypeArgs):
                self.gen_info(~key).release_type_args.extend(event.types)
            return
        self.inst_trace(key).append(event)

    def type_arg_blocks(self, key: Key) -> list[list[Type]]:
        """The type-argument blocks the instantiation at ``key`` chose, in
        order (its InstPoly witnesses)."""
        if key < 0:
            info = self.gen_infos.get(~key)
            if info is None or not info.release_type_args:
                return []
            return [list(info.release_type_args)]
        return [
            list(event.types)
            for event in self.inst_traces.get(key, ())
            if isinstance(event, TypeArgs)
        ]

    def zonk(self, zonker) -> None:
        """Apply a type-normalising function to every recorded type."""
        for trace in self.inst_traces.values():
            for event in trace:
                if isinstance(event, TypeArgs):
                    event.types = [zonker(type_) for type_ in event.types]
        for info in self.gen_infos.values():
            info.star_type_args = [zonker(type_) for type_ in info.star_type_args]
            info.release_type_args = [zonker(type_) for type_ in info.release_type_args]
        for key, type_ in self.lam_binders.items():
            self.lam_binders[key] = zonker(type_)
        for key, type_ in self.let_types.items():
            self.let_types[key] = zonker(type_)
        for info in self.case_infos.values():
            info.tycon_args = [zonker(type_) for type_ in info.tycon_args]
            info.field_types = [
                [zonker(type_) for type_ in fields] for fields in info.field_types
            ]

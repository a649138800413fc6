"""A uniform interface over every executable type system in the repo.

Each :class:`System` wraps one inferencer behind the same three calls:

* :meth:`System.run` — the full story: a :class:`SystemOutcome` that
  keeps *acceptance*, *rejection*, and *unavailability* apart.  A budget
  blowup or an internal error is **not** a rejection; differential
  oracles that treated it as one would report every deep term as a
  cross-backend disagreement.
* :meth:`System.accepts` / :meth:`System.try_infer` — the historical
  boolean/optional views, now defined in terms of :meth:`run` (an
  unavailable outcome answers ``False`` / ``None``).

Construction goes through a factory so budgets and policies thread
uniformly: ``system.make(env, budget, policy=policy)`` returns a fresh
single-use inference callable.  Every backend re-arms the budget per
``infer`` call, so one budget can be shared sequentially across the
whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.core.env import Environment
from repro.core.errors import BudgetExceededError, GIError, InternalError
from repro.core.infer import Inferencer, InferOptions
from repro.core.terms import Term
from repro.core.types import Type
from repro.baselines.freezeml import FreezeMLInferencer
from repro.baselines.hm import HMInferencer
from repro.baselines.hmf import HMFInferencer
from repro.baselines.quicklook import QuickLookInferencer
from repro.baselines.rankn import RankNInferencer


class Outcome(str, Enum):
    """What a run of one system on one term established."""

    ACCEPT = "accept"
    REJECT = "reject"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class SystemOutcome:
    """The three-valued result of running a system on a term.

    ``UNAVAILABLE`` means the run established *nothing* about the term:
    the budget ran out, the recursion limit tripped, or the backend
    crashed (``crashed=True`` — an :class:`InternalError` or a foreign
    exception).  Oracles must treat unavailable outcomes as vacuous.
    """

    status: Outcome
    type_: Type | None = None
    error: str | None = None
    detail: str | None = None
    crashed: bool = False

    @property
    def accepted(self) -> bool:
        return self.status is Outcome.ACCEPT

    @property
    def rejected(self) -> bool:
        return self.status is Outcome.REJECT

    @property
    def available(self) -> bool:
        return self.status is not Outcome.UNAVAILABLE


@dataclass(frozen=True)
class System:
    """One executable type system: a name and an inferencer factory.

    ``policy`` (an :class:`~repro.core.policy.InstantiationPolicy`, or
    ``None``) selects an instantiation discipline for the backends that
    have a meaningful eager/lazy × deep/shallow axis (GI, RankN,
    QuickLook).  ``None`` is each system's own *reference*
    configuration — eager-shallow for GI, eager-deep for the
    bidirectional systems — so the differential oracles keep comparing
    the published systems unless a policy is explicitly requested.
    Systems without a policy axis ignore the argument.
    """

    name: str
    description: str
    make: Callable[..., Callable[[Term], Type]]

    def infer(self, term: Term, env: Environment) -> Type:
        """Infer unbudgeted; raises :class:`GIError` on failure."""
        return self.make(env, None)(term)

    def run(self, term: Term, env: Environment, budget=None, policy=None) -> SystemOutcome:
        """Run with crash containment and the accept/reject/unavailable
        distinction differential oracles need."""
        try:
            type_ = self.make(env, budget, policy=policy)(term)
        except BudgetExceededError as error:
            return SystemOutcome(
                Outcome.UNAVAILABLE,
                error=type(error).__name__,
                detail=str(error),
            )
        except InternalError as error:
            return SystemOutcome(
                Outcome.UNAVAILABLE,
                error=type(error).__name__,
                detail=str(error),
                crashed=True,
            )
        except GIError as error:
            return SystemOutcome(
                Outcome.REJECT, error=type(error).__name__, detail=str(error)
            )
        except RecursionError as error:
            return SystemOutcome(
                Outcome.UNAVAILABLE, error="RecursionError", detail=str(error)
            )
        except Exception as error:  # noqa: BLE001 — containment boundary
            return SystemOutcome(
                Outcome.UNAVAILABLE,
                error=type(error).__name__,
                detail=str(error),
                crashed=True,
            )
        return SystemOutcome(Outcome.ACCEPT, type_=type_)

    def accepts(self, term: Term, env: Environment) -> bool:
        return self.run(term, env).accepted

    def try_infer(self, term: Term, env: Environment) -> Type | None:
        return self.run(term, env).type_


def _gi(env: Environment, budget, policy=None) -> Callable[[Term], Type]:
    options = InferOptions(policy=policy) if policy is not None else None
    inferencer = Inferencer(env, options=options, budget=budget)
    return lambda term: inferencer.infer(term).type_


SYSTEMS: dict[str, System] = {
    "GI": System(
        "GI",
        "Guarded impredicativity (this paper)",
        _gi,
    ),
    "HMF": System(
        "HMF",
        "HMF, plain left-to-right (Leijen 2008)",
        lambda env, budget, policy=None: HMFInferencer(env, budget=budget).infer,
    ),
    "HMF-N": System(
        "HMF-N",
        "HMF with the n-ary postponed-argument extension",
        lambda env, budget, policy=None: HMFInferencer(
            env, nary=True, budget=budget
        ).infer,
    ),
    "HM": System(
        "HM",
        "Hindley-Milner rank-1 (Algorithm W)",
        lambda env, budget, policy=None: HMInferencer(env, budget=budget).infer,
    ),
    "RankN": System(
        "RankN",
        "Predicative arbitrary-rank bidirectional (JFP 2007)",
        lambda env, budget, policy=None: RankNInferencer(
            env, budget=budget, policy=policy
        ).infer,
    ),
    "FreezeML": System(
        "FreezeML",
        "FreezeML: ML with explicit freeze via annotation (PLDI 2020)",
        lambda env, budget, policy=None: FreezeMLInferencer(env, budget=budget).infer,
    ),
    "QuickLook": System(
        "QuickLook",
        "Quick Look impredicativity over RankN (ICFP 2020)",
        lambda env, budget, policy=None: QuickLookInferencer(
            env, budget=budget, policy=policy
        ).infer,
    ),
}

POLICY_SYSTEMS: tuple[str, ...] = ("GI", "RankN", "QuickLook")
"""The systems with a meaningful instantiation-policy axis."""


def get_system(name: str) -> System:
    return SYSTEMS[name]

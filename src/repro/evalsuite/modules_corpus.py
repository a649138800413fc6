"""Evaluation workloads expressed as real module files.

The Section 5 study and the Figure 2 examples were born as isolated
expressions checked against the Figure 1 prelude; this module renders
them — and a synthetic scaling workload — as *module source text* for
the module layer (:mod:`repro.modules`), so the evaluation exercises the
same code path a user's ``python -m repro module`` run does.

* :func:`package_module_source` turns one synthetic Stackage package
  (:class:`repro.evalsuite.stackage.Package`) into a module file whose
  declarations carry their signatures;
* :func:`stackage_fragment_source` is the corpus of GI-friendly
  RankNTypes fragments as a single module;
* :func:`synthetic_module_source` builds a deterministic ~``chains ×
  depth``-binding module of independent dependency chains — the workload
  behind the incremental-check benchmark, where editing one chain's leaf
  must invalidate exactly that chain and nothing else.
"""

from __future__ import annotations

from repro.evalsuite.stackage import _FRIENDLY_TEMPLATES, Declaration, Package


def declaration_source(declaration: Declaration) -> str:
    """One declaration as module text: signature line plus binding line."""
    return (
        f"{declaration.name} :: {declaration.signature}\n"
        f"{declaration.name} = {declaration.body}"
    )


def package_module_source(package: Package) -> str:
    """A synthetic Stackage package as one module file.

    Check it against :func:`repro.evalsuite.stackage.study_env` — the
    variance templates mention the study's extra helpers.
    """
    parts = [f"-- package {package.name}"]
    parts += [declaration_source(declaration) for declaration in package.declarations]
    return "\n\n".join(parts) + "\n"


def stackage_fragment_source() -> str:
    """Every GI-friendly RankNTypes fragment of the study, as a module."""
    parts = ["module StackageFragments where"]
    for name, signature, body in _FRIENDLY_TEMPLATES:
        parts.append(f"{name} :: {signature}\n{name} = {body}")
    return "\n\n".join(parts) + "\n"


# The chain steps cycle through these shapes; each consumes exactly the
# previous binding, so a chain is one dependency path and an edit at its
# leaf invalidates the whole chain and nothing outside it.
_STEP_SHAPES = (
    "single {prev}",
    "pair {prev} {prev}",
    "choose {prev} {prev}",
)


def synthetic_module_source(chains: int = 4, depth: int = 25) -> str:
    """A deterministic module of ``chains`` independent dependency chains.

    Chain ``c`` starts at an annotated integer leaf ``c{c}_0`` and builds
    ``depth - 1`` dependent bindings on top of it; two impredicative
    bindings (a stored polymorphic list and a ``runST $ …`` use) ride
    along to keep the workload honest about the paper's feature.  Total
    bindings: ``chains * depth + 2``.

    The leaf's declaration is the exact two lines
    ``c0_0 :: Int`` / ``c0_0 = 0``, so tests and benchmarks can dirty one
    chain with a plain string replacement (e.g. to ``Bool`` / ``True``
    for a type-changing edit, or ``= 7`` for a type-preserving one).

    Keep ``depth`` at 50 or below.  The checked types are DAGs, but their
    printed form doubles every third step: at depth 50 the longest is
    about 1.2 million characters, and a module check renders every
    binding's type (``ModuleCache.store`` keeps ``str(type_)``), so depth
    100 would ask for some 10^11 characters and run out of memory.
    """
    parts = ["module Synthetic where"]
    for chain in range(chains):
        parts.append(f"c{chain}_0 :: Int\nc{chain}_0 = {chain}")
        for step in range(1, depth):
            shape = _STEP_SHAPES[(chain + step) % len(_STEP_SHAPES)]
            body = shape.format(prev=f"c{chain}_{step - 1}")
            parts.append(f"c{chain}_{step} = {body}")
    parts.append("polyStore :: [forall a. a -> a]\npolyStore = id : ids")
    parts.append("runner :: Int\nrunner = runST $ argST")
    return "\n\n".join(parts) + "\n"

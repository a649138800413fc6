"""Expected verdicts for the pipeline benchmark.

Nothing here is computed by ``repro``'s inferencers or its type parser:
every verdict is transcribed from a written source, and every expected
type is either stated by the paper or derived in closed form from the
shape of a generated input.  Types are compared as rendered text by
:func:`same_type`, an α-equivalence check over tokens that shares no
code with ``repro.syntax`` or ``repro.core.types``.

Sources:

* :data:`FIGURE2_MATRIX` — Figure 2 of the paper for the GI column, and
  the committed ``results/backend_matrix.txt`` for the six other
  executable systems (it agrees with DESIGN.md's stated sets: FreezeML
  accepts exactly {A1–A7, C1–C4, C7, C10}, Quick Look rejects exactly
  {B1, B2, E1}).
* :data:`TC211_GRID` — the header notes of ``tests/corpus/tc211-*.gi``
  and ``differential-gi-annotation-sigma-*.gi`` (T5): T1/T2/T4 are
  accepted by GI and Quick Look only, T5 by every backend, T6 by every
  let-generalising backend and by GI only under a lazy policy, T7 by GI
  only under a deep policy.  T3's header names GI alone; RankN rejects
  it for the reason T1's header gives (predicative instantiation of
  ``(:)``) and Quick Look accepts it as it accepts every guarded row GI
  accepts.
* serve requests are expected accepted or rejected by membership of
  ``repro.robustness.loadgen``'s ``WELL_TYPED`` / ``ILL_TYPED`` lists and
  by the Figure-2 GI column above (see ``serve_load.Mix``).
* :func:`stress_type` — closed forms for the synthetic stress terms.
* :func:`module_types` — types derived from a synthetic module's source
  text: ``single x : [T]``, ``pair x x : (T, T)``, ``choose x x : T``.
"""

from __future__ import annotations

import re
from functools import lru_cache

#: Column order of :data:`FIGURE2_MATRIX` (``repro``'s ``MEASURED_SYSTEMS``).
MATRIX_SYSTEMS = ("GI", "HMF", "HMF-N", "HM", "RankN", "FreezeML", "QuickLook")

#: ``y``/``n`` per system in :data:`MATRIX_SYSTEMS` order, per Figure-2 row.
FIGURE2_MATRIX: dict[str, str] = {
    "A1": "yyyyyyy",
    "A2": "yyyyyyy",
    "A3": "yyynnyy",
    "A4": "yyynyyy",
    "A5": "yyynnyy",
    "A6": "yyynnyy",
    "A7": "ynnnnyy",
    "A8": "nnnnnny",
    "A9": "nnnnnny",
    "A10": "yyynyny",
    "A11": "yyynyny",
    "A12": "yyynnny",
    "B1": "nnnnnnn",
    "B2": "nnnnnnn",
    "C1": "yyynnyy",
    "C2": "yyynnyy",
    "C3": "yyynnyy",
    "C4": "yyyyyyy",
    "C5": "ynynnny",
    "C6": "ynynnny",
    "C7": "yyyyyyy",
    "C8": "nnnnnny",
    "C9": "nyynnny",
    "C10": "yyynnyy",
    "D1": "yyynnny",
    "D2": "ynynnny",
    "D3": "yyynyny",
    "D4": "yyynnny",
    "D5": "ynynnny",
    "E1": "nnnnnnn",
    "E2": "ynynnny",
    "E3": "nnnnyny",
}

#: Row keys of the tc211 grid, in :data:`TC211_GRID` string order.
TC211_KEYS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7")

#: ``{policy: {system: verdicts over TC211_KEYS}}``.
TC211_GRID: dict[str, dict[str, str]] = {
    "eager-shallow": {"GI": "yyyyynn", "RankN": "nnnnyyn", "QuickLook": "yyyyyyn"},
    "eager-deep": {"GI": "yyyyyny", "RankN": "nnnnyyn", "QuickLook": "yyyyyyn"},
    "lazy-shallow": {"GI": "yyyyyyn", "RankN": "nnnnyyn", "QuickLook": "yyyyyyn"},
    "lazy-deep": {"GI": "yyyyyyy", "RankN": "nnnnyyn", "QuickLook": "yyyyyyn"},
}


class Reference:
    """The expected verdicts one benchmark run checks against.

    ``flip`` names one Figure-2 row whose GI verdict is inverted — the
    self-test that shows a wrong reference entry fails the run.
    """

    def __init__(self, flip: str | None = None) -> None:
        if flip is not None and flip not in FIGURE2_MATRIX:
            raise ValueError(f"unknown Figure-2 row {flip!r}")
        self.flip = flip

    def accepts(self, key: str, system: str = "GI") -> bool:
        """Whether ``system`` accepts Figure-2 row ``key``."""
        verdict = FIGURE2_MATRIX[key][MATRIX_SYSTEMS.index(system)] == "y"
        if system == "GI" and key == self.flip:
            return not verdict
        return verdict

    @staticmethod
    def tc211_accepts(policy: str, system: str, key: str) -> bool:
        return TC211_GRID[policy][system][TC211_KEYS.index(key)] == "y"


# ----------------------------------------------------------------------
# Closed-form types of the stress terms (see repro.evalsuite.workloads)
# ----------------------------------------------------------------------


def _binder(index: int) -> str:
    return f"t{index}"


def stress_type(family: str, size: int) -> str:
    """The principal type of ``family(size)``, written out."""
    if family == "deep_chain_term":
        # λf. f 1 … 1 — f takes ``size`` Ints and returns anything.
        return "forall a. (" + "Int -> " * size + "a) -> a"
    if family == "defaulting_fan":
        # λh1 … hn. pair (h1 0) (pair (h2 0) (… (hn 0))).
        names = [_binder(index) for index in range(size)]
        arguments = "".join(f"(Int -> {name}) -> " for name in names)
        result = names[-1]
        for name in reversed(names[:-1]):
            result = f"({name}, {result})"
        return f"forall {' '.join(names)}. {arguments}{result}"
    if family == "impredicative_pipeline":
        return "[forall a. a -> a]"
    if family in ("let_chain", "lambda_tower"):
        return "Int"
    if family == "wide_application":
        result = "Int"
        for _ in range(size):
            result = f"(Int, {result})"
        return result
    raise ValueError(f"no closed form for {family!r}")


def deep_expr_type(depth: int) -> str:
    """``single (single (… id))`` nested ``depth`` times."""
    return "forall a. " + "[" * depth + "a -> a" + "]" * depth


# ----------------------------------------------------------------------
# Module types, derived from source text
# ----------------------------------------------------------------------

_SIGNATURE = re.compile(r"^(\w+) :: (.+)$")
_BINDING = re.compile(r"^(\w+) = (\w+) (\w+)(?: (\w+))?$")


def module_types(source: str) -> dict[str, str]:
    """Expected type text of every binding of a synthetic chain module.

    A signature fixes its binding's type; an unannotated binding is one
    of ``single x``, ``pair x x`` or ``choose x x`` over an earlier
    binding ``x``.
    """
    types: dict[str, str] = {}
    for line in source.splitlines():
        match = _SIGNATURE.match(line)
        if match:
            types[match.group(1)] = match.group(2)
            continue
        match = _BINDING.match(line)
        if match is None or match.group(1) in types:
            continue
        name, head, argument = match.group(1), match.group(2), match.group(3)
        inner = types[argument]
        if head == "single":
            types[name] = f"[{inner}]"
        elif head == "pair":
            types[name] = f"({inner}, {inner})"
        elif head == "choose":
            types[name] = inner
        else:
            raise ValueError(f"unexpected binding shape: {line!r}")
    return types


# ----------------------------------------------------------------------
# α-equivalence over rendered type text
# ----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()\[\],.]|\w+)")


def _tokens(text: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    text = text.rstrip()
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise ValueError(f"cannot tokenise type text at {text[position:]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


@lru_cache(maxsize=4096)
def normalise(text: str) -> tuple[str, ...]:
    """Tokens of ``text`` with every bound variable renamed by position.

    A ``forall`` body extends as far right as possible: to the bracket
    that closes the group it opened in, or to a comma at that depth.
    Binder order is kept, so ``forall a b`` and ``forall b a`` over the
    same body stay distinct, as GI requires.
    """
    tokens = _tokens(text)
    out: list[str] = []
    scopes: list[tuple[int, dict[str, str]]] = []  # (depth, renaming)
    depth = 0
    binders = 0
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token in ("(", "["):
            depth += 1
        elif token in (")", "]"):
            depth -= 1
            while scopes and scopes[-1][0] > depth:
                scopes.pop()
        elif token == ",":
            while scopes and scopes[-1][0] >= depth:
                scopes.pop()
        if token == "forall":
            renaming: dict[str, str] = {}
            out.append(token)
            index += 1
            while tokens[index] != ".":
                renaming[tokens[index]] = f"#{binders}"
                out.append(f"#{binders}")
                binders += 1
                index += 1
            out.append(".")
            scopes.append((depth, renaming))
            index += 1
            continue
        for _, renaming in reversed(scopes):
            if token in renaming:
                token = renaming[token]
                break
        out.append(token)
        index += 1
    return tuple(out)


def same_type(rendered: str, expected: str) -> bool:
    """Whether two rendered types are α-equivalent (token-wise)."""
    return normalise(rendered) == normalise(expected)

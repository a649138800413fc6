"""Type walks on DAG-shared types agree with plain tree walks.

``render_type``, ``respects``, ``mentions_forall`` and ``contains_uvar``
visit a composite node shared in a DAG once.  The references here walk
the full tree recursively: the renderer is the recursive one the library
used to ship, kept as the byte-identity oracle for the iterative,
memoised one (as ``tests/test_rename_canonical.py`` keeps its walk).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sorts import Sort
from repro.core.types import (
    ARROW,
    INT,
    LIST_CON,
    Forall,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    contains_uvar,
    fun,
    list_of,
    mentions_forall,
    render_type,
    respects,
    tuple_of,
)

from tests.strategies import monotypes, polytypes


def recursive_render_type(type_: Type, precedence: int = 0) -> str:
    """The recursive renderer the library used to ship (one call per
    tree node, right arrow spines flattened)."""
    if isinstance(type_, TVar):
        return type_.name
    if isinstance(type_, UVar):
        return f"{type_.name}^{type_.sort.symbol}"
    if isinstance(type_, Forall):
        body = recursive_render_type(type_.body, 0)
        context = ""
        if type_.context:
            preds = ", ".join(
                f"{p.class_name} {' '.join(recursive_render_type(a, 3) for a in p.args)}"
                for p in type_.context
            )
            wrapped = f"({preds})" if len(type_.context) > 1 else preds
            context = f"{wrapped} => "
        quantifier = f"forall {' '.join(type_.binders)}. " if type_.binders else ""
        rendered = f"{quantifier}{context}{body}"
        return f"({rendered})" if precedence > 0 else rendered
    if isinstance(type_, TCon):
        if type_.name == ARROW and len(type_.args) == 2:
            parts: list[str] = []
            node: Type = type_
            while isinstance(node, TCon) and node.name == ARROW and len(node.args) == 2:
                parts.append(recursive_render_type(node.args[0], 2))
                node = node.args[1]
            parts.append(recursive_render_type(node, 1))
            rendered = " -> ".join(parts)
            return f"({rendered})" if precedence > 1 else rendered
        if type_.name == LIST_CON and len(type_.args) == 1:
            return f"[{recursive_render_type(type_.args[0], 0)}]"
        if type_.name.startswith("(,") or type_.name == "(,)":
            inner = ", ".join(recursive_render_type(argument, 0) for argument in type_.args)
            return f"({inner})"
        if not type_.args:
            return type_.name
        pieces = [type_.name] + [recursive_render_type(argument, 3) for argument in type_.args]
        rendered = " ".join(pieces)
        return f"({rendered})" if precedence > 2 else rendered
    raise TypeError(f"unknown type node: {type_!r}")


def children(type_: Type) -> list[Type]:
    if isinstance(type_, TCon):
        return list(type_.args)
    if isinstance(type_, Forall):
        return [a for p in type_.context for a in p.args] + [type_.body]
    return []


def tree_respects(type_: Type, sort: Sort) -> bool:
    if sort is Sort.U:
        return True
    if isinstance(type_, Forall):
        return False
    if isinstance(type_, UVar):
        return type_.sort <= sort
    return sort is Sort.T or all(tree_respects(child, sort) for child in children(type_))


def tree_mentions_forall(type_: Type) -> bool:
    return isinstance(type_, Forall) or any(map(tree_mentions_forall, children(type_)))


def tree_contains_uvar(type_: Type, variable: UVar) -> bool:
    return type_ == variable or any(tree_contains_uvar(c, variable) for c in children(type_))


UVARS = (UVar("u1", Sort.M), UVar("u2", Sort.T), UVar("u3", Sort.U))
_LEAVES = (TVar("a"), TVar("b"), INT, TCon("()"), TCon("(,)")) + UVARS
_BINDERS = ("a", "b", "c")


@st.composite
def shared_types(draw) -> Type:
    """A type built bottom-up from a pool in which every new node picks its
    children among the earlier ones, so subtrees are shared, ``Forall``
    and qualified nodes included.  The pool starts from leaves and from
    the mono- and polytypes of ``tests/strategies.py``."""
    pool: list[Type] = list(_LEAVES)
    pool.extend(draw(st.lists(st.one_of(monotypes(), polytypes()), max_size=3)))
    pick = st.sampled_from(pool)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        shape = draw(
            st.sampled_from(
                ("arrow", "arrow", "list", "pair", "triple", "maybe", "either", "forall", "qualified")
            )
        )
        if shape == "arrow":
            node: Type = fun(draw(pick), draw(pick))
        elif shape == "list":
            node = list_of(draw(pick))
        elif shape == "pair":
            node = tuple_of(draw(pick), draw(pick))
        elif shape == "triple":
            node = tuple_of(draw(pick), draw(pick), draw(pick))
        elif shape == "maybe":
            node = TCon("Maybe", (draw(pick),))
        elif shape == "either":
            node = TCon("Either", (draw(pick), draw(pick)))
        else:
            binders = tuple(
                draw(st.lists(st.sampled_from(_BINDERS), max_size=2, unique=True))
            )
            context: tuple[Pred, ...] = ()
            if shape == "qualified":
                context = tuple(
                    Pred(name, tuple(draw(st.lists(pick, max_size=2))))
                    for name in draw(st.lists(st.sampled_from(("Eq", "Ord")), min_size=1, max_size=2))
                )
            node = Forall(binders, draw(pick), context)
        pool.append(node)
    return pool[-1]


class TestAgainstTreeWalks:
    @settings(max_examples=300, deadline=None)
    @given(shared_types())
    def test_render_is_byte_identical(self, type_):
        assert str(type_) == recursive_render_type(type_)
        for precedence in range(4):
            assert render_type(type_, precedence) == recursive_render_type(type_, precedence)

    @settings(max_examples=200, deadline=None)
    @given(shared_types())
    def test_sort_quantifier_and_occurs_walks(self, type_):
        for sort in Sort:
            assert respects(type_, sort) is tree_respects(type_, sort)
        assert mentions_forall(type_) is tree_mentions_forall(type_)
        for variable in UVARS + (UVar("u1", Sort.T), UVar("fresh", Sort.M)):
            assert contains_uvar(type_, variable) is tree_contains_uvar(type_, variable)

    def test_shared_forall_in_every_position(self):
        # One ∀ node left of an arrow, right of it, under a constructor,
        # in a tuple and in a context: parenthesised per position.
        a = TVar("a")
        shared = Forall(("a",), fun(a, a))
        type_ = Forall(
            ("b",),
            fun(shared, TCon("Maybe", (shared,)), tuple_of(shared, shared), shared),
            (Pred("Eq", (shared, TVar("b"))),),
        )
        expected = (
            "forall b. Eq (forall a. a -> a) b => (forall a. a -> a) -> "
            "Maybe (forall a. a -> a) -> (forall a. a -> a, forall a. a -> a) -> "
            "(forall a. a -> a)"
        )
        assert str(type_) == expected == recursive_render_type(type_)

    def test_shared_application_and_arrow(self):
        app = TCon("Either", (INT, TVar("a")))
        arrow = fun(app, app)
        type_ = TCon("Maybe", (arrow, list_of(arrow), app))
        rendered = "Maybe (Either Int a -> Either Int a) [Either Int a -> Either Int a] (Either Int a)"
        assert str(type_) == rendered == recursive_render_type(type_)

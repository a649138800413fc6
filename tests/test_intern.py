"""The hash-consing :class:`InternTable`: capacity-full observability and
``deep_prenex`` re-interning through shared tables."""

from repro.core.env import Environment
from repro.core.errors import GIError
from repro.core.infer import Inferencer, InferOptions
from repro.core.policy import EAGER_DEEP, deep_prenex
from repro.core.types import (
    Forall,
    InternTable,
    Pred,
    TCon,
    TVar,
    forall,
    fun,
)
from repro.syntax.parser import parse_term


class TestInternCounters:
    """Capacity-full interning is observable, never silent."""

    def test_structural_identity_is_object_identity(self):
        table = InternTable()
        first = fun(TVar("a"), TCon("Int"))
        second = fun(TVar("a"), TCon("Int"))
        assert first is not second
        assert table.intern(first) is table.intern(second) is first

    def test_table_preserves_the_memory_bound(self):
        table = InternTable(capacity=3)
        for type_ in (TCon("Int"), TCon("Bool"), fun(TCon("Int"), TCon("Bool"))):
            table.intern(type_)
        big = fun(TCon("Char"), TCon("Float"))
        assert table.intern(big) is big, "a full table passes new types through"
        assert table.full_events == 1
        assert len(table) == 3

    def test_base_table_counts_hits_misses_and_full(self):
        table = InternTable(capacity=2)
        first = table.intern(TCon("Int"))
        table.intern(TCon("Bool"))
        assert table.misses == 2
        assert table.intern(TCon("Int")) is first
        assert table.hits == 1
        overflow = fun(TCon("Int"), TCon("Bool"))
        result = table.intern(overflow)
        assert result is overflow, "full table returns its argument"
        assert table.full_events == 1
        assert table.stats() == {
            "size": 2,
            "hits": 1,
            "misses": 2,
            "full_events": 1,
        }

    def test_full_event_reaches_the_tracer(self):
        from repro.observability import Tracer

        tracer = Tracer()
        table = InternTable(capacity=1)
        table.attach_tracer(tracer)
        table.intern(TCon("Int"))
        table.intern(TCon("Bool"))
        assert table.full_events == 1
        assert tracer.metrics.counters.get("types.intern.full") == 1

    def test_inference_stays_correct_after_capacity_reached(self):
        # The regression the counter exists for: a tiny shared table fills
        # immediately, interning degrades to pass-through, and inference
        # must still produce the same types as with an unbounded table —
        # with the degradation observable on the counters.
        env = Environment(
            {
                "id": forall(["a"], fun(TVar("a"), TVar("a"))),
                "one": TCon("Int"),
            }
        )

        def outcome(inferencer, source):
            try:
                return str(inferencer.infer(parse_term(source)).type_)
            except GIError as error:
                return type(error).__name__

        sources = ["id one", "id id", r"\x -> id x", "let f = id in f one"]
        expected = [outcome(Inferencer(env), s) for s in sources]
        tables = []
        for capacity in (0, 1, 4):
            table = InternTable(capacity=capacity)
            tables.append(table)
            inferencer = Inferencer(env, intern=table)
            got = [outcome(inferencer, s) for s in sources]
            assert got == expected, f"capacity={capacity} changed inference"
        assert tables[0].full_events > 0, "a full table must report degradation"
        assert all(len(t) <= t.capacity for t in tables), "bound must hold"
        assert any(t.hits > 0 for t in tables), "interning must stay observable"


class TestDeepPrenexInterning:
    """``deep_prenex`` rebuilds must be re-interned so its ``is``-based
    fixed point survives shared tables."""

    NESTED = fun(TCon("Int"), forall(["a"], fun(TVar("a"), TVar("a"))))

    def test_rebuild_is_interned(self):
        table = InternTable()
        first = deep_prenex(self.NESTED, intern=table)
        second = deep_prenex(self.NESTED, intern=table)
        assert first is second, "same table must yield the identical object"
        assert deep_prenex(first, intern=table) is first, "fixed point by is"

    def test_roundtrip_through_second_shared_table(self):
        # The serve multi-session case: a type prenexed against one
        # session's view of the shared table, then re-interned through a
        # second fresh-but-shared table, must still satisfy object
        # identity = structural identity inside each table.
        nested = Forall(
            ("b",),
            fun(TVar("b"), forall(["a"], fun(TVar("a"), TVar("b")))),
            (Pred("Eq", (TVar("b"),)),),
        )
        first_table = InternTable()
        hoisted = deep_prenex(nested, intern=first_table)
        assert first_table.intern(hoisted) is hoisted
        second_table = InternTable()
        via_second = second_table.intern(hoisted)
        assert via_second == hoisted
        assert deep_prenex(via_second, intern=second_table) is via_second
        # And hoisting the original against the second table canonicalises
        # to the same node the round-tripped object occupies.
        assert deep_prenex(nested, intern=second_table) is via_second

    def test_solver_threads_its_table_through_deep_policies(self):
        env = Environment(
            {
                "mk": fun(
                    TCon("Int"),
                    fun(TCon("Int"), forall(["a"], fun(TVar("a"), TVar("a")))),
                ),
                "one": TCon("Int"),
            }
        )
        inferencer = Inferencer(env, options=InferOptions(policy=EAGER_DEEP))
        result = inferencer.infer(parse_term("mk one"))
        assert str(result.type_) == "forall a. Int -> a -> a"

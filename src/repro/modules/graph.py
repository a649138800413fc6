"""Binding-group analysis: dependency graph, SCC condensation, layers.

A module's bindings form a digraph — an edge ``f → g`` when ``g`` occurs
free in the definition of ``f`` (only module-level names count; prelude
names are environment facts, not graph edges).  Checking order is the
topological order of the strongly connected components of that graph,
exactly GHC's *binding groups*.  Tarjan's algorithm conveniently emits
SCCs in reverse topological order of the condensation, i.e. dependencies
first, which is the order the checker wants.

The implementation is iterative (explicit stack), so a thousand-binding
dependency chain does not ride Python's recursion limit.

:func:`topo_layers` additionally slices the group sequence into *layers*
of mutually independent groups — groups in one layer share no edges, so
the incremental engine checks a whole layer against one environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.modules.parser import Binding, Module


@dataclass(frozen=True)
class BindingGroup:
    """One SCC of the binding dependency graph, in check order."""

    index: int
    bindings: tuple[Binding, ...]
    deps: frozenset[str]
    """Module-level names this group uses, *excluding* its own members."""

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(binding.name for binding in self.bindings)

    @property
    def recursive(self) -> bool:
        """Mutually recursive (|SCC| > 1) or self-recursive."""
        if len(self.bindings) > 1:
            return True
        only = self.bindings[0]
        return only.name in only.free_term_vars()


def dependencies(module: Module) -> dict[str, set[str]]:
    """``name -> set of module-level names free in its definition``."""
    local = set(module.names)
    return {
        binding.name: local & binding.free_term_vars()
        for binding in module.bindings
    }


def strongly_connected_components(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC algorithm, iteratively, dependencies-first.

    ``graph[n]`` is the set of nodes ``n`` depends on.  The returned
    components are ordered so every component appears after the
    components it depends on; members keep a deterministic order.
    """
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in graph:
        if root in index_of:
            continue
        # Each work item is (node, iterator over its successors).
        work = [(root, iter(sorted(graph[root])))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in graph:
                    continue
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def binding_groups(module: Module) -> list[BindingGroup]:
    """The module's SCC binding groups, in dependency-first check order."""
    graph = dependencies(module)
    by_name = {binding.name: binding for binding in module.bindings}
    groups: list[BindingGroup] = []
    for index, component in enumerate(strongly_connected_components(graph)):
        members = set(component)
        external = set().union(*(graph[name] for name in component)) - members
        groups.append(
            BindingGroup(
                index=index,
                bindings=tuple(by_name[name] for name in component),
                deps=frozenset(external),
            )
        )
    return groups


def topo_layers(groups: list[BindingGroup]) -> list[list[BindingGroup]]:
    """Slice check-ordered groups into layers of independent groups.

    Layer *k* holds every group whose longest dependency chain has length
    *k*; groups within one layer never depend on each other, so they can
    all be checked once every earlier layer is done.
    """
    owner: dict[str, int] = {}
    for group in groups:
        for name in group.names:
            owner[name] = group.index
    depth: dict[int, int] = {}
    layers: list[list[BindingGroup]] = []
    for group in groups:
        level = 0
        for dependency in group.deps:
            level = max(level, depth[owner[dependency]] + 1)
        depth[group.index] = level
        while len(layers) <= level:
            layers.append([])
        layers[level].append(group)
    return layers


def dependents_closure(module: Module, roots: set[str]) -> set[str]:
    """Every binding that (transitively) depends on one of ``roots``.

    The roots themselves are included.  This is the invalidation footprint
    of an edit: the set of bindings whose check *might* be affected.
    """
    graph = dependencies(module)
    reverse: dict[str, set[str]] = {name: set() for name in graph}
    for name, deps in graph.items():
        for dependency in deps:
            reverse[dependency].add(name)
    seen = set(root for root in roots if root in graph)
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for dependent in reverse[current]:
            if dependent not in seen:
                seen.add(dependent)
                frontier.append(dependent)
    return seen


@dataclass
class GraphSummary:
    """Shape statistics for ``--stats`` output."""

    bindings: int = 0
    groups: int = 0
    layers: int = 0
    largest_group: int = 0
    recursive_groups: int = 0

    @classmethod
    def of(cls, groups: list[BindingGroup]) -> "GraphSummary":
        layer_count = len(topo_layers(groups))
        return cls(
            bindings=sum(len(group.bindings) for group in groups),
            groups=len(groups),
            layers=layer_count,
            largest_group=max((len(group.bindings) for group in groups), default=0),
            recursive_groups=sum(1 for group in groups if group.recursive),
        )

    def to_dict(self) -> dict:
        return {
            "bindings": self.bindings,
            "groups": self.groups,
            "layers": self.layers,
            "largest_group": self.largest_group,
            "recursive_groups": self.recursive_groups,
        }

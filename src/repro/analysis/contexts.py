"""Task-context inference, lock coverage, and mutation enumeration.

Builds the concurrency-specific layers the REP007–REP011 rules share,
on top of :mod:`repro.analysis.dataflow`'s package index:

Task contexts
    A function runs in *task context* when it can execute off the
    coordinator thread.  Seeds are discovered syntactically at dispatch
    sites — callables handed to ``run_phase`` (phase tasks), to
    ``run_chunks`` / ``.map()`` / ``.submit()`` (kernel subtasks), and
    to ``threading.Thread(target=...)`` (service driver threads) — then
    closed over the call graph with
    :meth:`PackageIndex.reachable_from`.  Callable expressions resolve
    through local bindings (``tasks = [...]`` then ``run_phase(tasks)``),
    lambdas (their internal calls become seeds), ``functools.partial``,
    and factory calls (the factory's nested ``def``s become seeds, since
    the closure it returns is what the pool executes).

Lock coverage
    :func:`lock_held_map` maps every AST node of a function body to the
    ``frozenset`` of lock names held there, derived from ``with``
    statements over lock-looking expressions.  Local aliases of ``self``
    attributes (``counters = self._counters`` … ``with counters.lock:``)
    normalize back to the attribute path so the same lock compares equal
    across spellings.

Mutations
    :func:`iter_mutations` enumerates the statements that mutate shared
    structures in place: subscript stores, augmented assigns, attribute
    rebinds, ``del x[k]``, and mutator method calls (``append`` /
    ``update`` / ``pop`` / ...).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .dataflow import (
    FunctionInfo,
    ModuleInfo,
    PackageIndex,
    attr_chain,
    own_nodes,
    resolve_class,
    resolve_method,
    resolve_name,
)
from .dataflow import _resolve_call, resolve_qualified

__all__ = [
    "TaskContexts",
    "Mutation",
    "infer_task_contexts",
    "dispatch_kind",
    "lock_held_map",
    "self_aliases",
    "iter_mutations",
    "declared_globals",
    "local_names",
]

#: Dispatcher name -> context kind for bare-name calls.
_NAME_DISPATCH = {
    "run_phase": "phase",
    "run_chunks": "kernel",
    "Thread": "driver",
}

#: Dispatcher name -> context kind for ``obj.method(...)`` calls.
_ATTR_DISPATCH = {
    "run_phase": "phase",
    "run_chunks": "kernel",
    "map": "kernel",
    "submit": "kernel",
    "Thread": "driver",
}

#: Keyword arguments of dispatchers that may carry task callables.
_CALLABLE_KEYWORDS = {"tasks", "fn", "fns", "task", "target"}

#: Container/set method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "discard",
    "clear",
}


@dataclass
class TaskContexts:
    """Seed functions and their call-graph closures, per context kind."""

    phase_seeds: set[str] = field(default_factory=set)
    kernel_seeds: set[str] = field(default_factory=set)
    driver_seeds: set[str] = field(default_factory=set)
    phase: set[str] = field(default_factory=set)
    kernel: set[str] = field(default_factory=set)
    driver: set[str] = field(default_factory=set)

    @property
    def seeds(self) -> set[str]:
        return self.phase_seeds | self.kernel_seeds | self.driver_seeds

    @property
    def task(self) -> set[str]:
        """Every function that can run off the coordinator thread."""
        return self.phase | self.kernel | self.driver

    def kinds_of(self, qualname: str) -> tuple[str, ...]:
        """Which context kinds a function participates in."""
        kinds = []
        for kind in ("phase", "kernel", "driver"):
            if qualname in getattr(self, kind):
                kinds.append(kind)
        return tuple(kinds)


def dispatch_kind(call: ast.Call) -> str | None:
    """Context kind a call dispatches into, or None for ordinary calls.

    Only attribute calls count for ``map``/``submit`` — the ``map``
    builtin is lazy and runs on the calling thread.
    """
    func = call.func
    if isinstance(func, ast.Name):
        return _NAME_DISPATCH.get(func.id)
    if isinstance(func, ast.Attribute):
        return _ATTR_DISPATCH.get(func.attr)
    return None


def _local_bindings(info: FunctionInfo) -> dict[str, list[ast.AST]]:
    """Name -> value expressions assigned to it inside the function."""
    bindings: dict[str, list[ast.AST]] = {}
    for node in own_nodes(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(node.value)
    return bindings


def _resolve_callable(
    index: PackageIndex,
    module: ModuleInfo,
    info: FunctionInfo,
    node: ast.AST,
    bindings: dict[str, list[ast.AST]],
    depth: int = 0,
) -> set[str]:
    """Function qualnames a callable expression can execute."""
    if depth > 4:
        return set()
    seeds: set[str] = set()
    if isinstance(node, ast.Name):
        found = resolve_name(index, module, info, node.id)
        if found is not None:
            seeds.add(found)
        else:
            for value in bindings.get(node.id, ()):
                seeds |= _resolve_callable(
                    index, module, info, value, bindings, depth + 1
                )
    elif isinstance(node, ast.Attribute):
        chain = attr_chain(node)
        if len(chain) == 2 and chain[0] in ("self", "cls"):
            cls = index.class_of(info)
            if cls is not None:
                found = resolve_method(index, cls, chain[1])
                if found is not None:
                    seeds.add(found)
        elif len(chain) >= 2:
            prefix = module.imports.get(chain[0])
            if prefix is not None:
                found = resolve_qualified(index, ".".join([prefix, *chain[1:]]))
                if found is not None:
                    seeds.add(found)
            elif len(chain) == 2:
                cls = resolve_class(index, module, chain[0])
                if cls is not None:
                    found = resolve_method(index, cls, chain[1])
                    if found is not None:
                        seeds.add(found)
    elif isinstance(node, ast.Lambda):
        # The lambda body runs in the task; every function it calls is
        # a context seed even though the lambda has no qualname itself.
        for call in ast.walk(node.body):
            if isinstance(call, ast.Call):
                seeds |= _resolve_call(index, module, info, call)
    elif isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain and chain[-1] == "partial" and node.args:
            seeds |= _resolve_callable(
                index, module, info, node.args[0], bindings, depth + 1
            )
        else:
            factory = _resolve_call(index, module, info, node)
            for qual in factory:
                # A factory call at a dispatch site hands its *returned
                # closure* to the pool: treat the factory's nested defs
                # as the executed code.
                seeds.update(
                    nested.qualname
                    for nested in index.functions.values()
                    if nested.parent == qual
                )
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            seeds |= _resolve_callable(
                index, module, info, element, bindings, depth + 1
            )
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        seeds |= _resolve_callable(
            index, module, info, node.elt, bindings, depth + 1
        )
    elif isinstance(node, ast.Starred):
        seeds |= _resolve_callable(
            index, module, info, node.value, bindings, depth + 1
        )
    return seeds


def _seed_expressions(call: ast.Call, kind: str) -> list[ast.AST]:
    """The argument expressions that may carry task callables."""
    if kind == "driver":
        return [kw.value for kw in call.keywords if kw.arg == "target"]
    if kind == "kernel":
        # run_chunks(fn, items) / executor.map(fn, items) /
        # pool.submit(fn, *args): only the leading argument is code.
        exprs: list[ast.AST] = list(call.args[:1])
    else:
        exprs = list(call.args)
    exprs.extend(
        kw.value for kw in call.keywords if kw.arg in _CALLABLE_KEYWORDS
    )
    return exprs


def infer_task_contexts(index: PackageIndex) -> TaskContexts:
    """Discover dispatch sites and close them over the call graph."""
    contexts = TaskContexts()
    buckets = {
        "phase": contexts.phase_seeds,
        "kernel": contexts.kernel_seeds,
        "driver": contexts.driver_seeds,
    }
    for info in index.functions.values():
        module = index.modules[info.module]
        bindings: dict[str, list[ast.AST]] | None = None
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            kind = dispatch_kind(node)
            if kind is None:
                continue
            if bindings is None:
                bindings = _local_bindings(info)
            for expr in _seed_expressions(node, kind):
                buckets[kind] |= _resolve_callable(
                    index, module, info, expr, bindings
                )
    contexts.phase = index.reachable_from(contexts.phase_seeds)
    contexts.kernel = index.reachable_from(contexts.kernel_seeds)
    contexts.driver = index.reachable_from(contexts.driver_seeds)
    return contexts


def self_aliases(info: FunctionInfo) -> dict[str, list[str]]:
    """Local names aliased to ``self`` attribute chains.

    ``counters = self._counters`` yields ``{"counters": ["self",
    "_counters"]}`` so locks reached through the alias normalize to the
    same name as direct ``self._counters`` access.
    """
    aliases: dict[str, list[str]] = {}
    for node in own_nodes(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                chain = attr_chain(node.value)
                if len(chain) >= 2 and chain[0] in ("self", "cls"):
                    aliases[target.id] = chain
    return aliases


def _lock_name(
    index: PackageIndex,
    module: ModuleInfo,
    info: FunctionInfo,
    expr: ast.AST,
    aliases: dict[str, list[str]],
) -> str | None:
    """Normalized name of a lock-looking ``with`` expression, or None."""
    chain = attr_chain(expr)
    if not chain:
        return None
    if chain[0] in aliases:
        chain = aliases[chain[0]] + chain[1:]
    tail = chain[-1].lower()
    name = ".".join(chain)
    if "lock" in tail or "mutex" in tail:
        return name
    if len(chain) == 1:
        var = module.globals.get(chain[0])
        if var is not None and var.kind == "lock":
            return name
    if len(chain) == 2 and chain[0] == "self":
        cls = index.class_of(info)
        if cls is not None and chain[1] in cls.lock_attrs:
            return name
    return None


def lock_held_map(
    index: PackageIndex, info: FunctionInfo
) -> dict[int, frozenset[str]]:
    """Map ``id(node)`` -> lock names held when that node executes."""
    module = index.modules[info.module]
    aliases = self_aliases(info)
    held: dict[int, frozenset[str]] = {}

    def visit(node: ast.AST, locks: frozenset[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(locks)
            for item in node.items:
                held[id(item.context_expr)] = locks
                visit(item.context_expr, locks)
                name = _lock_name(index, module, info, item.context_expr, aliases)
                if name is not None:
                    acquired.add(name)
            inner = frozenset(acquired)
            for stmt in node.body:
                held[id(stmt)] = inner
                visit(stmt, inner)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            held[id(child)] = locks
            visit(child, locks)

    visit(info.node, frozenset())
    return held


@dataclass
class Mutation:
    """One in-place mutation site inside a function body."""

    node: ast.AST
    #: Attribute chain of the mutated object (``["self", "_entries"]``).
    chain: tuple[str, ...]
    #: ``setitem`` | ``delitem`` | ``augassign`` | ``assign`` | ``method``
    kind: str
    #: Mutator method name for ``kind == "method"``.
    method: str | None = None


def iter_mutations(info: FunctionInfo) -> Iterator[Mutation]:
    """Enumerate mutation sites in a function's own body."""
    for node in own_nodes(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _target_mutation(node, target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield from _target_mutation(node, node.target)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                chain = attr_chain(target.value)
                if chain:
                    yield Mutation(node, tuple(chain), "setitem")
            else:
                chain = attr_chain(target)
                if chain:
                    yield Mutation(node, tuple(chain), "augassign")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    chain = attr_chain(target.value)
                    if chain:
                        yield Mutation(node, tuple(chain), "delitem")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                chain = attr_chain(node.func.value)
                if chain:
                    yield Mutation(node, tuple(chain), "method", node.func.attr)


def _target_mutation(node: ast.AST, target: ast.AST) -> Iterator[Mutation]:
    if isinstance(target, ast.Subscript):
        chain = attr_chain(target.value)
        if chain:
            yield Mutation(node, tuple(chain), "setitem")
    elif isinstance(target, ast.Attribute):
        chain = attr_chain(target)
        if chain:
            yield Mutation(node, tuple(chain), "assign")
    elif isinstance(target, ast.Name):
        yield Mutation(node, (target.id,), "assign")
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_mutation(node, element)


def declared_globals(info: FunctionInfo) -> set[str]:
    """Names the function declares ``global``."""
    names: set[str] = set()
    for node in own_nodes(info.node):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def local_names(info: FunctionInfo) -> set[str]:
    """Names bound locally: parameters, assignments, loop/with targets."""
    node = info.node
    names: set[str] = set()
    args = node.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *filter(None, (args.vararg, args.kwarg)),
    ):
        names.add(arg.arg)
    for child in own_nodes(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                names.update(_bound_names(target))
        elif isinstance(child, ast.AnnAssign):
            names.update(_bound_names(child.target))
        elif isinstance(child, ast.AugAssign):
            names.update(_bound_names(child.target))
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            names.update(_bound_names(child.target))
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    names.update(_bound_names(item.optional_vars))
    for child in ast.walk(node):
        if child is not node and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(child.name)
    return names - declared_globals(info)


def _bound_names(target: ast.AST) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        bound: set[str] = set()
        for element in target.elts:
            bound |= _bound_names(element)
        return bound
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()

"""Substitution consistency graph for an action schema in a state.

Vertices are variable/object pairs, one partition per schema parameter.
A pair of vertices from distinct partitions is connected unless some
precondition element refutes it: a positive atom that matches no state atom
under the pair's binding, a negative atom, bound in full, that matches one,
or a numeric constraint that the interval relaxation proves unsatisfiable
under every extension of the pair (`relaxed_unsat`). Elements with a single
free variable prune vertices instead (the unary specialization of the same
rules), and elements with no free variables short-circuit the whole graph;
a schema without parameters gets a graph that is empty or holds just the
empty clique.

An element on at most two variables is decided in a row that binds all of
them: a vertex mask binds its one variable, a pair row both, and `_refuted`
takes those with none. There each of its function terms is bound at every
position, and the term's range table reads its exact value at any arity
(`_lookup_key`), so these rows decide their constraints exactly. An element
on three or more variables enters the graph only through its pair
projections, so the graph's cliques overapproximate the bindings that
satisfy it: the paper's exactness conditions (`schema_violations`), which
also ask for functions of arity at most two. The graph therefore also carries a check per such element
(`ConsistencyGraph.wide`, compiled by `_Wide`), which `cliques.iter_cliques`
applies at the depth where all the element's variables but one are bound.
The check is the element's row for its last variable, with the others
bound, from `_compile` and `_survivors` like every other row. With the
numeric rules, the cliques that remain are exactly the bindings whose
preconditions hold. The graph itself, its dump and its exclusions are the
paper's.

The numeric rules can be switched off to obtain the purely propositional
graph (which still decides every literal); the final applicability filter
downstream checks what a graph leaves undecided.

Static/dynamic split. A predicate is static when no effect literal touches
it (built-in equality always is), a function when no numeric effect targets
it, and an element when all its symbols are static. A static element has the
same value in every state of the task: its states share one static part,
a `State` that holds the static atoms and fluents of the initial state, and
own only the dynamic ones.
`StateContext` refuses a state with another static part. Static elements
are therefore evaluated once per task into a plan, built on the first graph
for a (schema, numeric rules, record) combination: int bitsets of a static
alive mask per partition and, per partition pair, a static row per object
of its first partition. The alive masks are then made arc-consistent over
the static rows (Mackworth 1977): a vertex that meets no alive vertex of
the pair's other partition is in no clique, so it is dropped, until no mask
changes. The plan also keeps the edges of every pair without dynamic
elements, on those masks, once per task. Per state the atom index takes the
static predicates' buckets from the index of the static part and indexes
the state's own atoms, range tables are built only for the state's own
fluents, and only dynamic elements are evaluated, on the vertices and pairs
the static masks leave alive: the alive masks, each pair's single-variable
rules, which narrow the clique search's pools, and the rows of the pairs
with dynamic elements, in the direction the search reads them. A pair
without dynamic elements costs nothing per state. A graph's edges come
from its parts, each pair's masks and rows; the full adjacency, the paper's
graph, is derived from them only when read (`ConsistencyGraph`), and
`_connect` writes every edge. `static_graph` takes a schema's parts from
its plan alone, with no state: the static half of the paper's graph, whose
cliques are the bindings the grounded store holds. The store is built
without it, by a hash join over the static atoms (`successors.ground_all`).

Rules are `(reason, element)` lists in check order (positive atoms,
negative atoms, constraints). Elements with no variable bound are decided by
`_refuted`, through `AtomIndex.match_exists` and `relaxed_unsat`. Every other
rule list is compiled once per plan for the variable whose row it decides,
with a tuple of variables bound (`_compile`), and `_survivors` applies it to
one row of objects, whether a vertex mask, the partners of a vertex or the
pool of a clique-search check: an atom costs one projection row
(`AtomIndex.project`, the objects its target positions admit once the bound
positions are fixed) and one AND. A constraint's sides are evaluated only
as often as the row variables they hold require: a static side that holds
neither the row's variable nor a bound one once per plan, a static side
that holds the row's variable once per task and binding of the bound
variables it holds, on the objects its range tables hold there (a `_Table`
of `TaskStatics`), any other side without the row's variable once per row,
and the rest once per object. Every read of a function's value goes through
one reader, `relaxed_eval`, which looks the term up at `_lookup_key`. When
one side is a table and the other is fixed for the row, the constraint
costs one threshold mask per row, read by bisection from the table's values
sorted once per task and binding; otherwise the sides are compared per
object the earlier rows leave.

With `record=True` every excluded vertex and pair is listed with the first
rule that refutes it, in the order positive-miss, negative-hit,
numeric-unsat, and in ascending object order. Record mode runs the same
`_survivors` on a plan that treats every element as dynamic, against the
state's own index: rows apply in check order, and an object takes the
reason of the first row that removes it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .assignments import DEGREE, AssignmentCache
from .intervals import EMPTY, Interval, arith, compare, point
from .model import (
    Atom,
    ActionSchema,
    Constant,
    EQUALITY_NAME,
    Expr,
    FunctionTerm,
    NumericConstraint,
    Object,
    State,
    Task,
    Variable,
    free_variables,
    function_terms,
    static_function_names,
    static_predicate_names,
)

VAR_CONFLICT = "variable-conflict"
POSITIVE_MISS = "positive-miss"
NEGATIVE_HIT = "negative-hit"
NUMERIC_UNSAT = "numeric-unsat"


class _Bucket:
    __slots__ = ("full", "by_pos", "atoms")

    def __init__(self):
        self.full = 0
        self.by_pos: dict[tuple[int, Object], int] = {}
        self.atoms: list[Atom] = []  # atom id -> atom


class AtomIndex:
    """Per-predicate atom lists and (position, object) -> atom-id bitsets.

    `project` reads them: the row of objects that some positions admit once
    others are fixed, or with no such positions whether any atom matches
    (`match_exists`, which the graph asks only with nothing bound).

    Buckets in `shared` (predicate name -> bucket of another index) are
    taken as they are and never extended, so `atoms` must hold none of
    their predicates: a state's index indexes the state's own atoms and
    shares the static ones of `TaskStatics.index`.
    """

    def __init__(self, atoms: Iterable[Atom], shared: Mapping[str, _Bucket] = {}):
        buckets = dict(shared)
        for atom in atoms:
            name = atom.predicate.name
            bucket = buckets.get(name)
            if bucket is None:
                bucket = buckets[name] = _Bucket()
            bit = 1 << len(bucket.atoms)
            bucket.atoms.append(atom)
            bucket.full |= bit
            for i, obj in enumerate(atom.args):
                key = (i, obj)
                bucket.by_pos[key] = bucket.by_pos.get(key, 0) | bit
        self.buckets = buckets

    def match_exists(self, atom: Atom, binding: Mapping[Variable, Object]) -> bool:
        """Is there a state atom the partially bound atom matches?

        Built-in equality matches whenever both sides can be made equal:
        always, unless both are bound to distinct objects.
        """
        fixed = tuple((i, arg) for i, arg in enumerate(atom.args)
                      if type(arg) is Object or arg in binding)
        return self.project(atom.predicate.name, fixed, (), binding, {}) != 0

    def project(self, name: str, fixed: tuple, targets: tuple[int, ...],
                binding: Mapping[Variable, Object], index_of: Mapping[Object, int]) -> int:
        """The objects found at the `targets` positions in the atoms of
        predicate `name` that hold the `fixed` ones, as a bitset over
        `index_of`.

        `fixed` lists (position, constant or variable of the binding) pairs;
        the other positions are existential, and an atom counts only when
        all its target positions hold one object. With no targets the row is
        -1, every object, if an atom matches and 0 otherwise. Equality, which
        has no atoms, holds on the fixed object or, without one, everywhere.
        """
        if name == EQUALITY_NAME:
            objs = {arg if type(arg) is Object else binding[arg] for _, arg in fixed}
            if len(objs) > 1:
                return 0
            if not (targets and objs):
                return -1
            oi = index_of.get(objs.pop())
            return 0 if oi is None else 1 << oi
        bucket = self.buckets.get(name)
        if bucket is None:
            return 0
        mask = bucket.full
        for i, arg in fixed:
            mask &= bucket.by_pos.get((i, arg if type(arg) is Object else binding[arg]), 0)
            if not mask:
                return 0
        if not targets:
            return -1
        atoms = bucket.atoms
        j, rest = targets[0], targets[1:]
        row = 0
        for atom in map(atoms.__getitem__, _bits(mask)) if fixed else atoms:
            obj = atom.args[j]
            if rest and any(atom.args[t] != obj for t in rest):
                continue
            oi = index_of.get(obj)
            if oi is not None:
                row |= 1 << oi
        return row


class StateContext:
    """Shared per-state structures: the state, its match index and the
    range tables of the dynamic symbols.

    The state must be one of the task's, sharing its static part, as the
    initial state and every state reached from it do; any other state is a
    ValueError.
    """

    def __init__(self, task: Task, state: State):
        self.objects = task.objects
        self.state = state
        self.statics = task_statics(task)
        if state.static is not self.statics.static:
            raise ValueError("the state does not share the task's static part;"
                             " derive it from the task's initial state")
        self.index = AtomIndex(state.own_atoms, self.statics.index.buckets)
        self.ranges = AssignmentCache(state.own_fluents, self.statics.ranges)


# a constant's interval, built once per value; bounded, as a long process
# may read the constants of many tasks
_point = lru_cache(maxsize=256)(point)


def relaxed_eval(expr: Expr, binding: Mapping[Variable, Object], ranges: AssignmentCache) -> Interval:
    """Interval overapproximation of the expression's values over all
    total extensions of the binding.

    Leaves read their range table at `_lookup_key`, and constants their
    point interval, kept per value (`_point`).
    """
    if isinstance(expr, Constant):
        return _point(expr.value)
    if isinstance(expr, FunctionTerm):
        return ranges.get(expr.function).table.get(_lookup_key(expr.args, binding), EMPTY)
    left = relaxed_eval(expr.left, binding, ranges)
    right = relaxed_eval(expr.right, binding, ranges)
    return arith(left, expr.op, right)


def _lookup_key(args: tuple, binding: Mapping[Variable, object]) -> tuple:
    """The range-table key a term with these arguments reads: (position,
    object) for its constants and bound variables, all of them when they
    are all of its positions, which reads the term's exact value, and the
    lowest DEGREE of them otherwise. Fixing fewer than all only widens the
    interval, soundly."""
    key = []
    for i, arg in enumerate(args):
        obj = arg if type(arg) is Object else binding.get(arg)
        if obj is not None:
            key.append((i, obj))
    return tuple(key if len(key) == len(args) else key[:DEGREE])


def relaxed_unsat(constraint: NumericConstraint, binding: Mapping[Variable, Object],
                  ranges: AssignmentCache) -> bool:
    """True only if no extension of the binding can satisfy the constraint.

    Underapproximates unsatisfiability: a satisfiable constraint is never
    flagged, because the relaxed sides contain every reachable value and the
    comparison is existential.
    """
    left = relaxed_eval(constraint.lhs, binding, ranges)
    right = relaxed_eval(constraint.rhs, binding, ranges)
    return not compare(left, constraint.cmp, right)


@dataclass
class ConsistencyGraph:
    """A schema's consistency graph: `alive` and `adjacency` are the paper's
    graph, `pools` and `search_rows` what the clique search reads of it.

    Every graph gets its edges from `parts`, per partition pair (p1, p2, a1,
    a2, rows): the pair's edges join each object oi of a1 in p1 to the
    objects of a2 in p2 that rows[oi] holds, all of them when rows is None.
    The adjacency is derived from the parts on first read (by `has_edge`,
    `dump` or any other reader); `edge_count` counts them without it.
    `build_graph` also gives the search its own part:
      - `search_rows`, vertex id -> neighbor bitset: the plan's static edges,
        built once per task, plus the rows of the pairs with dynamic rules,
        built per state in the search direction. A vertex's row holds its
        edges toward the partitions the search binds after the vertex's,
        and may hold more. Without them the search reads the adjacency;
      - `pools`, the alive masks narrowed by each pair's single-variable
        rules: a vertex they drop has no edge toward some partition, so it
        is in no clique. Without them the pools are the alive masks.
    """

    schema: ActionSchema
    objects: tuple[Object, ...]
    alive: list[int]  # per-partition bitset over object indexes
    parts: list[tuple]  # per partition pair, (p1, p2, a1, a2, rows)
    empty: bool = False
    notes: list[str] = field(default_factory=list)
    exclusions: Optional[list[tuple]] = None
    # per precondition element on three or more variables, (its partitions,
    # a function of its last partition and n_objects that gives the clique
    # search's check at that partition's depth, see `_Wide.narrowing`)
    wide: tuple[tuple[tuple[int, ...], Callable], ...] = ()
    search_rows: Optional[list[int]] = field(default=None, repr=False, compare=False)
    pools: Optional[list[int]] = field(default=None, repr=False, compare=False)
    # the partitions in the order the clique search binds them (`search_order`),
    # set once the alive masks are final; a graph without it is ordered on read
    order: Optional[list[int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.pools is None:
            self.pools = self.alive

    @cached_property
    def adjacency(self) -> list[int]:
        """Vertex id -> neighbor bitset, with id = partition * n + object."""
        n = self.n_objects
        adjacency = [0] * (self.k * n)
        for p1, p2, a1, a2, rows in self.parts:
            _connect(adjacency, p1 * n, a1, p2 * n, a2, rows)
        return adjacency

    @property
    def k(self) -> int:
        return len(self.schema.params)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def vertex_id(self, partition: int, obj_index: int) -> int:
        return partition * self.n_objects + obj_index

    def iter_alive(self, partition: int) -> Iterator[int]:
        return _bits(self.alive[partition])

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.adjacency[v] >> w & 1)

    def edge_count(self) -> int:
        return sum(a1.bit_count() * a2.bit_count() if rows is None
                   else sum((rows[oi] & a2).bit_count() for oi in _bits(a1))
                   for _, _, a1, a2, rows in self.parts)

    def dump(self) -> str:
        params = self.schema.params
        lines = [
            f"graph {self.schema.name} k={self.k} objects={self.n_objects}"
            + (" EMPTY" if self.empty else "")
        ]
        for note in self.notes:
            lines.append(f"# {note}")
        for p in range(self.k):
            for oi in self.iter_alive(p):
                lines.append(f"v {params[p].name} {self.objects[oi].name}")
        for p1 in range(self.k):
            for oi in self.iter_alive(p1):
                v = self.vertex_id(p1, oi)
                for p2 in range(p1 + 1, self.k):
                    for oj in self.iter_alive(p2):
                        if self.has_edge(v, self.vertex_id(p2, oj)):
                            lines.append(
                                f"e {params[p1].name} {self.objects[oi].name}"
                                f" {params[p2].name} {self.objects[oj].name}"
                            )
        if self.exclusions is not None:
            for record in self.exclusions:
                if record[0] == "vertex":
                    _, p, oi, reason = record
                    lines.append(f"xv {params[p].name} {self.objects[oi].name} {reason}")
                else:
                    _, p1, oi, p2, oj, reason = record
                    lines.append(
                        f"xe {params[p1].name} {self.objects[oi].name}"
                        f" {params[p2].name} {self.objects[oj].name} {reason}"
                    )
        lines.append(f"# same-variable pairs excluded structurally ({VAR_CONFLICT})")
        return "\n".join(lines)


_NO_BINDING: Mapping[Variable, Object] = {}
_STATIC = "static"  # group key of the static elements in a plan


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def search_order(alive: list[int]) -> list[int]:
    """The partitions in the order the clique search binds them: ascending
    alive count, then partition index (the sort is stable)."""
    counts = [mask.bit_count() for mask in alive]
    return sorted(range(len(alive)), key=counts.__getitem__)


_Rule = tuple[str, object]  # (reason, element): the element refutes with the reason


def _refuted(rules: list[_Rule], index: AtomIndex, ranges: AssignmentCache) -> Optional[_Rule]:
    """The first of the rules that refutes with nothing bound, or None."""
    for rule in rules:
        reason, element = rule
        if reason == NUMERIC_UNSAT:
            if relaxed_unsat(element, _NO_BINDING, ranges):
                return rule
        elif index.match_exists(element, _NO_BINDING) == (reason == NEGATIVE_HIT):
            return rule
    return None


class _PerCall(NamedTuple):
    """A constraint side that does not hold the row's variable and reads a
    dynamic function or the bound variable: `relaxed_eval` evaluates it once
    per row."""

    expr: Expr


class _Rules(NamedTuple):
    """A rule list compiled for the rows of one variable (see `_survivors`).

    A constraint side is one of four kinds: an `Interval` when it is static
    and holds neither the row's variable nor a bound one (evaluated once per
    plan), a `_PerCall` when it holds no row variable otherwise, the task's
    `_Table` when it is static and holds the row's variable, and the
    expression itself, which `relaxed_eval` evaluates per object, when it is
    dynamic and holds the row's variable. `thresholds` lists the
    constraints whose one side is a `_Table` and the other evaluated once
    per row, as (row side, comparison, table), the row side on the left;
    the table's `_conditions` masks decide them. `numeric` lists the other
    constraints as (lhs, cmp, rhs), and `per_call` says whether one of them
    has a `_PerCall` or `_Table` side, which `_now` resolves per row."""

    var: Variable
    atoms: list[tuple]  # (reason, predicate name, fixed, targets), see AtomIndex.project
    thresholds: list[tuple]
    numeric: list[tuple]
    per_call: bool


_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}  # the comparison, sides swapped


def _compile(rules: list[_Rule], env: tuple, var: Variable,
             bound: tuple[Variable, ...] = ()) -> Optional[_Rules]:
    """The rules, in check order, for rows of `var` with the variables of
    `bound` fixed by the binding; None when there are none. An atom's
    constants and bound variables are its fixed positions and `var` its
    targets. A constraint side is evaluated here, on the plan's `env`, as
    far as its variables allow: a side without `var` is a `_PerCall`, read
    once per row, unless it is static and holds no bound variable either; a
    static side with `var` is the task's `_Table`, keyed by the bound
    variables it holds; a dynamic side with `var` stays an expression."""
    if not rules:
        return None
    _, ranges, statics = env

    def side(expr: Expr):
        held = free_variables(expr)
        static = all(t.function.name in statics.functions for t in function_terms(expr))
        if var not in held:
            return (relaxed_eval(expr, _NO_BINDING, ranges) if static and held.isdisjoint(bound)
                    else _PerCall(expr))
        if static:
            return statics.table(expr, var, tuple(v for v in bound if v in held))
        return expr

    atoms, thresholds, numeric = [], [], []
    for reason, element in rules:
        if reason == NUMERIC_UNSAT:
            lhs, cmp, rhs = side(element.lhs), element.cmp, side(element.rhs)
            if cmp not in _FLIP:
                raise ValueError(f"unknown comparison operator {cmp!r}")
            if type(lhs) is _Table and type(rhs) in (Interval, _PerCall):
                lhs, cmp, rhs = rhs, _FLIP[cmp], lhs
            if type(rhs) is _Table and type(lhs) in (Interval, _PerCall):
                thresholds.append((lhs, cmp, rhs))
            else:
                numeric.append((lhs, cmp, rhs))
            continue
        args = element.args
        fixed = tuple((i, arg) for i, arg in enumerate(args)
                      if type(arg) is Object or arg in bound)
        targets = tuple(i for i, arg in enumerate(args) if arg == var)
        atoms.append((reason, element.predicate.name, fixed, targets))
    per_call = any(type(s) in (_PerCall, _Table) for lhs, _, rhs in numeric
                   for s in (lhs, rhs))
    return _Rules(var, atoms, thresholds, numeric, per_call)


class _Table:
    """A static constraint side that holds the row variable `var`, read from
    the static range tables: per binding of `keys`, the bound variables it
    holds, one interval per object of the task (`values`), and the
    `_conditions` masks per comparison (`conditions`). Each part is built
    on first use and kept for the task (`TaskStatics.table`). It holds the
    objects and the static range tables, not the `TaskStatics`, so that a
    dropped task is still freed without the cycle collector."""

    def __init__(self, expr: Expr, var: Variable, keys: tuple[Variable, ...],
                 objects: tuple[Object, ...], index_of: Mapping[Object, int],
                 ranges: AssignmentCache):
        self.expr, self.var, self.keys = expr, var, keys
        self.objects, self.index_of, self.ranges = objects, index_of, ranges
        self._values: dict[tuple, list[Interval]] = {}
        self._conditions: dict[tuple, list[tuple]] = {}

    def values(self, binding: Mapping[Variable, Object]) -> list[Interval]:
        """The side's interval per object, with the keys bound as in
        `binding`: evaluated on the objects of `_support`, EMPTY elsewhere."""
        key = tuple(map(binding.__getitem__, self.keys))
        values = self._values.get(key)
        if values is None:
            at, objects = dict(zip(self.keys, key)), self.objects
            if self._support is None:
                support = range(len(objects))
            else:
                slots, masks = self._support
                support = _bits(masks.get(tuple(key[s] for s in slots), 0))
            values = [EMPTY] * len(objects)
            for oi in support:
                at[self.var] = objects[oi]
                values[oi] = relaxed_eval(self.expr, at, self.ranges)
            self._values[key] = values
        return values

    @cached_property
    def _support(self) -> Optional[tuple[tuple[int, ...], dict[tuple, int]]]:
        """The objects whose value can be nonempty, per binding of the keys:
        the side is EMPTY where one of its terms is, so those a term's range
        table holds at `var` under the key. Given as (the indexes in `keys`
        of the keys that term's lookup fixes, their objects -> object mask);
        None when no term's lookup fixes `var`."""
        # the variables stand for their objects in the keys the terms read
        held = {v: v for v in (self.var, *self.keys)}
        for term in function_terms(self.expr):
            key = _lookup_key(term.args, held)
            kept, args = [i for i, _ in key], [arg for _, arg in key]
            if self.var in args:
                break
        else:
            return None
        slots = tuple(sorted({self.keys.index(arg) for arg in args if arg in self.keys}))
        masks: dict[tuple, int] = defaultdict(int)
        for entry in self.ranges.get(term.function).table:
            if [i for i, _ in entry] != kept:
                continue
            at: dict = {}
            if all(obj == arg if type(arg) is Object else at.setdefault(arg, obj) == obj
                   for arg, (_, obj) in zip(args, entry)):
                oi = self.index_of.get(at[self.var])
                if oi is not None:
                    masks[tuple(at[self.keys[s]] for s in slots)] |= 1 << oi
        return slots, masks

    def conditions(self, cmp: str, binding: Mapping[Variable, Object]) -> list[tuple]:
        """The `_conditions` of `cmp` over `values(binding)`."""
        key = (cmp, *map(binding.__getitem__, self.keys))
        conditions = self._conditions.get(key)
        if conditions is None:
            conditions = self._conditions[key] = _conditions(cmp, self.values(binding))
        return conditions


def _conditions(cmp: str, values: list[Interval]) -> list[tuple]:
    """The conditions under which `compare(row, cmp, values[oi])` holds, as
    threshold masks over the objects whose interval is nonempty. `compare`
    is existential, so it holds iff the object's hi exceeds the row's lo
    (for < and <=), its lo is below the row's hi (for > and >=), or both
    (for =), strictly as the comparison is. Each condition is (bisect
    function, whether it reads the row's hi, sorted keys, masks): the
    objects kept are masks[bisect(keys, row bound)]."""
    kept = [(iv, oi) for oi, iv in enumerate(values) if not iv.is_empty]
    conditions = []
    if cmp in ("<", "<=", "="):
        # suffixes of the objects sorted by hi: masks[i] holds keys[i:]
        by_hi = sorted(kept, key=lambda item: item[0].hi)
        masks = [0]
        for _, oi in reversed(by_hi):
            masks.append(masks[-1] | 1 << oi)
        conditions.append((bisect_right if cmp == "<" else bisect_left, False,
                           [iv.hi for iv, _ in by_hi], masks[::-1]))
    if cmp in (">", ">=", "="):
        # prefixes of the objects sorted by lo: masks[i] holds keys[:i]
        by_lo = sorted(kept, key=lambda item: item[0].lo)
        masks = [0]
        for _, oi in by_lo:
            masks.append(masks[-1] | 1 << oi)
        conditions.append((bisect_left if cmp == ">" else bisect_right, True,
                           [iv.lo for iv, _ in by_lo], masks))
    return conditions


class _Plan:
    """The static part of one schema's graph, and the dynamic rules left per state.

    `ground` lists the dynamic rules checked with nothing bound, in the
    order the checks run; `failure` is a static one that fails after them,
    which empties every graph. `alive` holds the static alive mask per
    partition, arc-consistent over the static rows: each of its objects has
    a static partner alive in every partition it shares a static row with,
    since an object without one is in no clique. `unary` holds each
    partition's dynamic vertex rules. `pairs` holds per
    partition pair (p1, p2, dynamic rules holding only the first variable,
    only the second, both, rows): rows[oi] is the `_survivors` row of
    partition-p2 objects that the static rules leave connected to object oi
    of partition p1, None when no static rule applies. Rows may still hold
    objects that arc consistency then dropped from `alive`, so every reader
    ANDs them with the alive masks.
    Rule lists are compiled (`_compile`), None when empty. `adjacency` holds
    the edges of the pairs without dynamic rules among the alive masks, by
    vertex id as in `ConsistencyGraph`: every state's search rows start from
    it. `wide` holds the elements on three or more variables, which the
    clique search decides.

    A `record` plan treats every element as dynamic and keeps all of a
    pair's elements in its own group, so each refuted vertex and pair meets
    its first rule in the per-state loop. It has no static rows, so its
    alive masks are all objects.
    """

    def __init__(self, statics: "TaskStatics", schema: ActionSchema, numeric: bool,
                 record: bool):
        self.schema = schema
        objects = statics.objects
        preds, funcs = statics.predicates, statics.functions
        env = (statics.index, statics.static_ranges, statics)

        lits = schema.pre_literals
        rules = ([(POSITIVE_MISS, lit.atom) for lit in lits if lit.positive]
                 + [(NEGATIVE_HIT, lit.atom) for lit in lits if not lit.positive]
                 + [(NUMERIC_UNSAT, con) for con in schema.pre_constraints if numeric])
        # each rule with the variables it holds, in check order
        rules = [(reason, element, free_variables(element)) for reason, element in rules]

        def is_static(element) -> bool:
            if record:
                return False
            if isinstance(element, Atom):
                return element.predicate.name in preds
            return all(t.function.name in funcs for t in function_terms(element))

        self.ground: list[_Rule] = []
        self.failure: Optional[_Rule] = None
        self.alive: list[int] = []
        self.unary: list[list[_Rule]] = []
        self.pairs: list[tuple] = []
        self.adjacency: list[int] = []
        self.wide: list[_Wide] = []

        # elements with no variable bound, in the order the checks run
        checks = ([r for r in rules if not r[2] and r[0] != NUMERIC_UNSAT]
                  + [r for r in rules if r[2] and r[0] == POSITIVE_MISS]
                  + [r for r in rules if r[0] == NUMERIC_UNSAT])
        for reason, element, _ in checks:
            if not is_static(element):
                self.ground.append((reason, element))
            elif _refuted([(reason, element)], statics.index, statics.static_ranges):
                self.failure = (reason, element)
                return

        def split(selected, pair=frozenset()) -> dict:
            # static rules under _STATIC, dynamic ones under the pair
            # variables they hold (all of a vertex's under the empty set)
            groups: dict = defaultdict(list)
            for reason, element, vars_ in selected:
                key = _STATIC if is_static(element) else pair if record else vars_ & pair
                groups[key].append((reason, element))
            return groups

        # vertices: single-variable elements, evaluated per object
        everything = (1 << len(objects)) - 1
        for var in schema.params:
            groups = split(r for r in rules if r[2] == {var})
            self.alive.append(_survivors(_compile(groups[_STATIC], env, var), {}, everything, env))
            self.unary.append(_compile(groups[frozenset()], env, var))

        # pairs: elements on two or more variables that touch the pair
        params, alive = schema.params, self.alive
        for p1, p2 in itertools.combinations(range(len(params)), 2):
            x1, x2 = params[p1], params[p2]
            pair = frozenset((x1, x2))
            # a negative atom refutes only when bound in full
            groups = split((r for r in rules if (r[2] == pair if r[0] == NEGATIVE_HIT
                                                 else len(r[2]) > 1 and r[2] & pair)), pair)
            static = _compile(groups[_STATIC], env, x2, (x1,))
            rows = None
            if static is not None:
                rows, binding = [0] * len(objects), {}
                for oi in _bits(alive[p1]):
                    binding[x1] = objects[oi]
                    rows[oi] = _survivors(static, binding, alive[p2], env)
            self.pairs.append((p1, p2, _compile(groups[frozenset((x1,))], env, x1),
                               _compile(groups[frozenset((x2,))], env, x2),
                               _compile(groups[pair], env, x2, (x1,)), rows))

        # arc consistency: a vertex with no static partner in some partition
        # is in no clique; drop it, and again for the partners it supported
        changed = True
        while changed:
            changed = False
            for p1, p2, *_, rows in self.pairs:
                if rows is None:
                    continue
                kept = sum(1 << oi for oi in _bits(alive[p1]) if rows[oi] & alive[p2])
                support = alive[p2] & reduce(or_, map(rows.__getitem__, _bits(kept)), 0)
                if (kept, support) != (alive[p1], alive[p2]):
                    alive[p1], alive[p2], changed = kept, support, True

        # the edges of the pairs without dynamic rules, the same in every state
        n = len(objects)
        self.adjacency = [0] * (len(params) * n)
        for p1, p2, _, _, dynamic, rows in self.pairs:
            if dynamic is None:
                _connect(self.adjacency, p1 * n, alive[p1], p2 * n, alive[p2], rows)

        # elements on three or more variables, decided in the clique search
        self.wide = [_Wide(reason, element, params, is_static(element), alive)
                     for reason, element, vars_ in rules if _wide(vars_)]


class _Wide:
    """A precondition element on three or more variables. The graph holds
    only its pair projections, so the clique search decides it exactly at
    the depth where all its variables but one are bound (`narrowing`): the
    check compiles the element for the last partition's variable with the
    others bound (`_compile`) and runs `_survivors` on the pool, where each
    of its terms is bound at every position and read at its exact value. A
    static element keeps its row per binding of the other partitions, on the
    last partition's static alive mask (`alive` is the plan's list of them).
    The check at each possible last partition is compiled once per plan, on
    first use.
    """

    def __init__(self, reason: str, element, params: tuple[Variable, ...], static: bool,
                 alive: list[int]):
        self.reason, self.element, self.params = reason, element, params
        self.static, self.alive = static, alive
        held = free_variables(element)
        self.partitions = tuple(p for p, var in enumerate(params) if var in held)
        self._compiled: dict[int, Callable] = {}

    def narrowing(self, statics: "TaskStatics", ctx: Optional[StateContext], last: int,
                  n: int) -> Callable[[list[int], int], int]:
        """The check at the depth of partition `last`, given the chosen vertex
        ids per partition (the element's other partitions among them) and a
        pool of `last`'s vertices: the vertices of the pool under which the
        element holds. `ctx` is the state's context; a static element needs
        none."""
        check = self._compiled.get(last)
        if check is None:
            check = self._compiled[last] = self._compile(statics, last, n)
        return partial(check, statics, ctx)

    def _compile(self, statics: "TaskStatics", last: int, n: int) -> Callable:
        """The check as a function of the task's statics, the context, the
        chosen vertex ids and the pool; it holds no `TaskStatics`, which
        holds it."""
        var, off = self.params[last], last * n
        bound = tuple(p for p in self.partitions if p != last)
        binding = _binder(statics.objects, self.params, bound, n)
        rules = _compile([(self.reason, self.element)],
                         (statics.index, statics.static_ranges, statics),
                         var, tuple(self.params[p] for p in bound))

        def dynamic(statics: TaskStatics, ctx: StateContext, chosen: list[int], pool: int) -> int:
            return _survivors(rules, binding(chosen), pool >> off,
                              (ctx.index, ctx.ranges, statics)) << off

        if not self.static:
            return dynamic
        rows, key_of, domain = {}, itemgetter(*bound), self.alive[last]

        def static(statics: TaskStatics, ctx, chosen: list[int], pool: int) -> int:
            key = key_of(chosen)
            row = rows.get(key)
            if row is None:
                row = rows[key] = _survivors(rules, binding(chosen), domain, (
                    statics.index, statics.static_ranges, statics)) << off
            return pool & row

        return static


def _binder(objects: tuple[Object, ...], params: tuple[Variable, ...], parts: tuple[int, ...],
            n: int) -> Callable[[list[int]], dict[Variable, Object]]:
    """A function from the chosen vertex ids per partition to the binding of
    the variables of `parts`."""
    slots = [(params[p], p, p * n) for p in parts]
    return lambda chosen: {var: objects[chosen[p] - off] for var, p, off in slots}


class TaskStatics:
    """Everything about a task's graphs that depends only on static symbols.

    One instance per task (see `task_statics`); each part is built on first
    use and kept for the task's lifetime. It holds no reference to the task,
    so a dropped task is freed without waiting for the cycle collector.
    """

    def __init__(self, task: Task):
        self.init = task.init
        self.static = task.init.static
        self.objects = task.objects
        self.index_of = {obj: oi for oi, obj in enumerate(task.objects)}
        self.predicates = static_predicate_names(task) | {EQUALITY_NAME}
        self.functions = static_function_names(task)
        self.static_ranges = AssignmentCache(self.static.own_fluents)
        # static function name -> the shared cache that serves its tables
        self.ranges = dict.fromkeys(self.functions, self.static_ranges)
        self._plans: dict[tuple, _Plan] = {}
        self._tables: dict[tuple, _Table] = {}

    @cached_property
    def index(self) -> AtomIndex:
        """Match index over the static atoms, for the static elements; every
        state's index shares its buckets."""
        return AtomIndex(self.static.own_atoms)

    @cached_property
    def relations(self) -> dict[str, list[tuple[Object, ...]]]:
        """Predicate name -> the argument tuples of its static atoms, grouped
        in one pass; the grounded store joins them (`successors.ground_all`)."""
        relations: defaultdict[str, list] = defaultdict(list)
        for atom in self.static.own_atoms:
            relations[atom.predicate.name].append(atom.args)
        return dict(relations)

    def plan(self, schema: ActionSchema, numeric: bool, record: bool) -> _Plan:
        key = (id(schema), numeric, record)  # the plan keeps the schema alive
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Plan(self, schema, numeric, record)
        return plan

    def table(self, expr: Expr, var: Variable, keys: tuple[Variable, ...]) -> _Table:
        """The task's `_Table` of the static side `expr` for rows of `var`,
        keyed by the bound variables `keys` it holds; every plan shares it."""
        return self._tables.setdefault((expr, var, keys),
                                       _Table(expr, var, keys, self.objects, self.index_of,
                                              self.static_ranges))

    def pools(self, schema: ActionSchema, numeric: bool) -> list[tuple[Object, ...]]:
        """Per parameter, the objects that the schema's static
        single-variable elements allow (its type literals among them) and
        that have a static partner in every other parameter's pool, from the
        plan's arc-consistent alive masks; an object without one is in no
        clique, so no applicable action binds it. Every pool is empty when a
        static element without variables fails. The one place the graph
        strategies and the residual checks work a parameter's pool out; the
        grounding join narrows its own from the static literals alone."""
        plan = self.plan(schema, numeric, record=False)
        if plan.failure is not None:
            return [()] * len(schema.params)
        return [tuple(self.objects[oi] for oi in _bits(mask)) for mask in plan.alive]


def task_statics(task: Task) -> TaskStatics:
    statics = task.derived.get("statics")
    if statics is None:
        statics = task.derived["statics"] = TaskStatics(task)
    return statics


def build_graph(schema: ActionSchema, ctx: StateContext, *, numeric: bool = True,
                record: bool = False) -> ConsistencyGraph:
    """Construct the consistency graph, the part the clique search reads
    (see `ConsistencyGraph`); `numeric` toggles the constraint rules."""
    k = len(schema.params)
    objects = ctx.objects
    n = len(objects)
    graph = ConsistencyGraph(schema, objects, [0] * k, [], exclusions=[] if record else None)
    plan = ctx.statics.plan(schema, numeric, record)
    if plan.wide:
        graph.wide = tuple((w.partitions, partial(w.narrowing, ctx.statics, ctx))
                           for w in plan.wide)
    env = (ctx.index, ctx.ranges, ctx.statics)

    # elements with no variable bound decide the whole graph
    rule = _refuted(plan.ground, ctx.index, ctx.ranges) or plan.failure
    if rule is not None:
        graph.empty = True
        graph.notes.append(f"{rule[0]}: {rule[1]!r}")
        return graph

    exclusions = graph.exclusions
    alive = graph.alive
    for p in range(k):
        alive[p] = _survivors(plan.unary[p], {}, plan.alive[p], env, exclusions, ("vertex", p))
    graph.empty = 0 in alive
    graph.search_rows = search_rows = plan.adjacency
    if graph.empty:
        return graph
    graph.order = order = search_order(alive)
    if k == 1:
        return graph

    # An element holding only one of a pair's variables is checked once per
    # vertex, not once per pair, and narrows that partition's pool. A pair
    # with dynamic rules adds its rows to the plan's static edges: the
    # transpose only when the search binds the pair's second partition first.
    params, pools, parts = schema.params, list(alive), graph.parts
    for p1, p2, half1, half2, dynamic, rows in plan.pairs:
        a1 = _survivors(half1, {}, alive[p1], env)
        a2 = _survivors(half2, {}, alive[p2], env)
        pools[p1] &= a1
        pools[p2] &= a2
        if dynamic is not None:
            if search_rows is plan.adjacency:  # the first pair with dynamic rules
                graph.search_rows = search_rows = list(search_rows)
            static_rows, rows, x1, binding = rows, [0] * n, params[p1], {}
            for oi in _bits(a1):
                binding[x1] = objects[oi]
                partners = a2 if static_rows is None else static_rows[oi] & a2
                rows[oi] = _survivors(dynamic, binding, partners, env, exclusions,
                                      ("pair", p1, oi, p2))
            _connect(search_rows, p1 * n, a1, p2 * n, a2, rows,
                     both=order.index(p2) < order.index(p1))
        parts.append((p1, p2, a1, a2, rows))
    graph.pools = pools
    return graph


def static_graph(schema: ActionSchema, statics: TaskStatics) -> ConsistencyGraph:
    """The graph of the schema's static precondition literals alone.

    It is exact on the static literals of at most two variables, holds the
    pair projections of wider positive ones and carries the checks of every
    wider one, so its cliques are the bindings whose static literals hold.
    Its parts are the propositional plan's alive masks and static rows, with
    no state, and it has no search rows. Its cliques are the bindings of
    `successors.ground_all`, which joins the static atoms without it.
    """
    k, objects = len(schema.params), statics.objects
    plan = statics.plan(schema, numeric=False, record=False)
    wide = tuple((w.partitions, partial(w.narrowing, statics, None))
                 for w in plan.wide if w.static)
    if plan.failure is not None:
        return ConsistencyGraph(schema, objects, [0] * k, [], empty=True, wide=wide,
                                notes=[f"{plan.failure[0]}: {plan.failure[1]!r}"])
    alive, empty = list(plan.alive), 0 in plan.alive
    parts = [] if empty else [(p1, p2, alive[p1], alive[p2], rows)
                              for p1, p2, *_, rows in plan.pairs]
    return ConsistencyGraph(schema, objects, alive, parts, empty=empty, wide=wide)


def _connect(adjacency: list[int], off1: int, a1: int, off2: int, a2: int,
             rows: Optional[list[int]], both: bool = True) -> None:
    """Add a pair's edges between the objects of `a1` (partition at vertex
    offset `off1`) and those of `a2`: rows[oi] & a2 for object oi of a1, all
    of a2 when `rows` is None. `both` also adds them to the rows of the a2
    ends. The one routine that writes edges into an adjacency or search rows."""
    for oi in _bits(a1):
        row = a2 if rows is None else rows[oi] & a2
        adjacency[off1 + oi] |= row << off2
        if both and rows is not None:
            v = 1 << off1 + oi
            for oj in _bits(row):
                adjacency[off2 + oj] |= v
    if both and rows is None:
        for oj in _bits(a2):
            adjacency[off2 + oj] |= a1 << off1


def _survivors(rules: Optional[_Rules], binding: dict[Variable, Object], mask: int, env: tuple,
               exclusions: Optional[list] = None, tag: tuple = ()) -> int:
    """The objects of `mask` that the rules leave for their variable, with
    the rest of the binding fixed: the one row routine, for a vertex mask, a
    pair's halves, its static or dynamic row and a clique-search check.

    Each atom rule costs one projection row (`AtomIndex.project`): a
    positive literal keeps the row's objects and a negative one, bound in
    full by the variable, drops them. A threshold constraint then costs one
    evaluation of its row side and a bisect per condition, and the other
    constraints are compared on each object left, with the variable bound
    in place and their `_PerCall` and `_Table` sides resolved once (`_now`);
    an expression side then costs one `relaxed_eval` per object. Each excluded
    object is listed in `exclusions`, if given, as `tag + (oi, reason)`, in
    ascending oi and with the first rule in check order that excludes it.
    `env` is (atom index, range tables, `TaskStatics`)."""
    if rules is None:
        return mask
    index, ranges, statics = env
    removed = []
    for reason, name, fixed, targets in rules.atoms:
        row = index.project(name, fixed, targets, binding, statics.index_of)
        if reason == NEGATIVE_HIT:
            row = ~row
        if exclusions is not None:
            removed += [(oi, reason) for oi in _bits(mask & ~row)]
        mask &= row
        if not mask:
            break
    for row_side, cmp, table in rules.thresholds if mask else ():
        row = _now(row_side, binding, ranges)
        kept = 0
        if not row.is_empty:
            kept = -1
            for find, upper, keys, masks in table.conditions(cmp, binding):
                kept &= masks[find(keys, row.hi if upper else row.lo)]
        if exclusions is not None:
            removed += [(oi, NUMERIC_UNSAT) for oi in _bits(mask & ~kept)]
        mask &= kept
    checks = rules.numeric
    if checks and mask:
        if rules.per_call:
            checks = [(_now(lhs, binding, ranges), cmp, _now(rhs, binding, ranges))
                      for lhs, cmp, rhs in checks]
        var, objects = rules.var, statics.objects
        for oi in _bits(mask):
            binding[var] = objects[oi]
            for lhs, cmp, rhs in checks:
                left = (lhs if type(lhs) is Interval else lhs[oi] if type(lhs) is list
                        else relaxed_eval(lhs, binding, ranges))
                right = (rhs if type(rhs) is Interval else rhs[oi] if type(rhs) is list
                         else relaxed_eval(rhs, binding, ranges))
                if not compare(left, cmp, right):
                    mask ^= 1 << oi
                    if exclusions is not None:
                        removed.append((oi, NUMERIC_UNSAT))
                    break
    if exclusions is not None:
        exclusions.extend(tag + record for record in sorted(removed))
    return mask


def _now(side, binding: Mapping[Variable, Object], ranges: AssignmentCache):
    """The side for one row: a `_PerCall` evaluated, a `_Table`'s intervals
    at the row's binding, and an `Interval` or expression as it is."""
    kind = type(side)
    if kind is _PerCall:
        return relaxed_eval(side.expr, binding, ranges)
    return side.values(binding) if kind is _Table else side


def _wide(variables: frozenset) -> bool:
    """Three or more: the graph holds only the element's pair projections."""
    return len(variables) > 2


def wide_elements(schema: ActionSchema) -> tuple:
    """The precondition literals and constraints on three or more variables.
    The graph holds only their pair projections, and the clique search
    decides them (`_Wide`): the literals under every plan, the constraints
    under the numeric one."""
    return tuple(element for element in schema.pre_literals + schema.pre_constraints
                 if _wide(free_variables(element)))


def schema_violations(schema: ActionSchema) -> Iterator[tuple[object, str]]:
    """(element, why) for each precondition element that breaks the
    exactness conditions.

    The paper's graph decides a precondition element exactly when it
    mentions at most two variables and, for a constraint, every function it
    uses has arity at most two. lnplan decides the others too: wider
    elements in the clique search (`wide_elements`), and a term of any arity
    at its exact value.
    """
    for lit in schema.pre_literals:
        held = free_variables(lit)
        if _wide(held):
            yield lit, f"literal with {len(held)} variables"
    for con in schema.pre_constraints:
        held = free_variables(con)
        if _wide(held):
            yield con, f"constraint with {len(held)} variables"
        for fn in sorted({t.function for t in function_terms(con)}, key=lambda f: f.name):
            if fn.arity > 2:
                yield con, f"function {fn.name} of arity {fn.arity}"


def exactness_violations(domain) -> list[tuple[str, str, str]]:
    """(schema, element, why) entries that break the exactness conditions.

    The paper proves candidate generation exact when every precondition
    literal and constraint mentions at most two variables and every function
    used in a precondition constraint has arity at most two.
    """
    return [(schema.name, repr(element), why)
            for schema in domain.schemas
            for element, why in schema_violations(schema)]

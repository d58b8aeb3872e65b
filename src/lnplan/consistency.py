"""Substitution consistency graph for an action schema in a state.

Vertices are variable/object pairs, one partition per schema parameter.
A pair of vertices from distinct partitions is connected unless some
precondition element refutes it: a positive atom that matches no state atom
under the pair's binding (`AtomIndex.match_exists`), a negative atom, bound
in full, that matches one, or a numeric constraint that the interval
relaxation proves unsatisfiable under every extension of the pair
(`relaxed_unsat`). Elements with a single free variable prune vertices
instead (the unary specialization of the same rules), and elements with no
free variables short-circuit the whole graph; a schema without parameters
gets a graph that is empty or holds just the empty clique, exact on
functions of arity at most two.

The numeric rules can be switched off to obtain the purely propositional
graph; the final applicability filter downstream restores exactness in
either case.

Static/dynamic split. A predicate is static when no effect literal touches
it (built-in equality always is), a function when no numeric effect targets
it, and an element when all its symbols are static. A static element has the
same value in every state that agrees with the task's initial state on the
static atoms and fluents. Every reachable state does, and graphs must only
be built for such states. Static elements are therefore evaluated once per
task into a plan, built on the first graph for a (schema, numeric rules,
record) combination: int bitsets of a static alive mask per partition and,
per partition pair, a static row per object plus its transpose. Per state the
atom index covers only dynamic predicates, range tables are built only for
written functions, and only dynamic elements are evaluated, on the vertices
and pairs the static masks leave alive. A partition pair without dynamic
elements costs bit operations only.

With `record=True` every excluded vertex and pair is listed with the first
rule that refutes it, in the order positive-miss, negative-hit,
numeric-unsat. Record mode runs the same loop on a plan that treats every
element as dynamic, against an index of all the state's atoms.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .assignments import DEGREE, AssignmentCache
from .intervals import Interval, arith, compare, point
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
    __slots__ = ("full", "by_pos", "count")

    def __init__(self):
        self.full = 0
        self.by_pos: dict[tuple[int, Object], int] = {}
        self.count = 0


class AtomIndex:
    """Per-predicate (position, object) -> atom-id bitsets for match queries.

    Predicates named in `skip` are left out; their atoms never match.
    """

    def __init__(self, state: State, skip: frozenset[str] = frozenset()):
        buckets: dict[str, _Bucket] = {}
        for atom in state.atoms:
            if atom.predicate.name in skip:
                continue
            bucket = buckets.get(atom.predicate.name)
            if bucket is None:
                bucket = buckets[atom.predicate.name] = _Bucket()
            bit = 1 << bucket.count
            bucket.count += 1
            bucket.full |= bit
            for i, obj in enumerate(atom.args):
                key = (i, obj)
                bucket.by_pos[key] = bucket.by_pos.get(key, 0) | bit
        self._buckets = buckets

    def match_exists(self, atom: Atom, binding: Mapping[Variable, Object]) -> bool:
        """Is there a state atom the partially bound atom matches?

        Built-in equality matches whenever both sides can be made equal:
        always, unless both are bound to distinct objects.
        """
        if atom.predicate.name == EQUALITY_NAME:
            left = atom.args[0] if type(atom.args[0]) is Object else binding.get(atom.args[0])
            right = atom.args[1] if type(atom.args[1]) is Object else binding.get(atom.args[1])
            if left is not None and right is not None:
                return left == right
            return True
        bucket = self._buckets.get(atom.predicate.name)
        if bucket is None:
            return False
        mask = bucket.full
        for i, arg in enumerate(atom.args):
            obj = arg if type(arg) is Object else binding.get(arg)
            if obj is None:
                continue
            mask &= bucket.by_pos.get((i, obj), 0)
            if not mask:
                return False
        return True


class StateContext:
    """Shared per-state structures: match index and range tables of the
    dynamic symbols, type extents.

    The state must agree with the task's initial state on static atoms and
    fluents, as every reachable state does.
    """

    def __init__(self, task: Task, state: State):
        self.task = task
        self.state = state
        self.objects = task.objects
        self.statics = task_statics(task)
        self.index = AtomIndex(state, skip=self.statics.predicates)
        self.ranges = AssignmentCache(state, self.statics.ranges)
        self._typed: dict[str, tuple[Object, ...]] = {}

    def typed_objects(self, type_name: Optional[str]) -> tuple[Object, ...]:
        if type_name is None:
            return self.objects
        cached = self._typed.get(type_name)
        if cached is None:
            pred = self.task.predicate(type_name)
            cached = tuple(
                o for o in self.objects if Atom(pred, (o,)) in self.state.atoms
            )
            self._typed[type_name] = cached
        return cached


def relaxed_eval(expr: Expr, binding: Mapping[Variable, Object], ranges: AssignmentCache) -> Interval:
    """Interval overapproximation of the expression's values over all
    total extensions of the binding.

    Leaves read the range table with every argument position fixed by the
    binding or by a constant; repeated variables fix all their positions.
    Tables fix at most DEGREE positions. Should a leaf fix more, the lowest
    DEGREE of them are kept, which only widens the result and stays sound.
    """
    if isinstance(expr, Constant):
        return point(expr.value)
    if isinstance(expr, FunctionTerm):
        positions: dict[int, Object] = {}
        for i, arg in enumerate(expr.args):
            obj = arg if type(arg) is Object else binding.get(arg)
            if obj is not None:
                positions[i] = obj
        if len(positions) > DEGREE:
            keep = sorted(positions)[:DEGREE]
            positions = {i: positions[i] for i in keep}
        return ranges.get(expr.function).lookup(positions)
    left = relaxed_eval(expr.left, binding, ranges)
    right = relaxed_eval(expr.right, binding, ranges)
    return arith(left, expr.op, right)


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
    schema: ActionSchema
    objects: tuple[Object, ...]
    alive: list[int]  # per-partition bitset over object indexes
    adjacency: list[int]  # vertex id -> neighbor bitset; id = partition * n + object
    empty: bool = False
    notes: list[str] = field(default_factory=list)
    exclusions: Optional[list[tuple]] = None

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
        return sum(bits.bit_count() for bits in self.adjacency) // 2

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


class _Rules:
    """The elements that can refute one vertex or one vertex pair, by rule."""

    __slots__ = ("pos", "neg", "con")

    def __init__(self):
        self.pos: list[Atom] = []
        self.neg: list[Atom] = []
        self.con: list[NumericConstraint] = []

    def __bool__(self) -> bool:
        return bool(self.pos or self.neg or self.con)

    def refute(self, binding: Mapping[Variable, Object], index: AtomIndex,
               ranges: AssignmentCache) -> Optional[str]:
        """The first rule that refutes the binding, or None."""
        for atom in self.pos:
            if not index.match_exists(atom, binding):
                return POSITIVE_MISS
        for atom in self.neg:
            if index.match_exists(atom, binding):
                return NEGATIVE_HIT
        for con in self.con:
            if relaxed_unsat(con, binding, ranges):
                return NUMERIC_UNSAT
        return None


def _ground_fails(reason: str, element, index: AtomIndex, ranges: AssignmentCache) -> bool:
    """Does the element, with no variable bound, refute every binding?"""
    if reason == NUMERIC_UNSAT:
        return relaxed_unsat(element, _NO_BINDING, ranges)
    return index.match_exists(element, _NO_BINDING) == (reason == NEGATIVE_HIT)


class _Plan:
    """The static part of one schema's graph, and the dynamic rules left per state.

    `ground` lists the dynamic elements checked with nothing bound, in the
    order the checks run; `failure` is the note of a static one that fails
    after them, which empties every graph. `alive` holds the static alive
    mask per partition and `unary` its dynamic vertex rules. `pairs` holds
    per partition pair (p1, p2, dynamic rules holding only the first
    variable, only the second, both, rows, cols): rows[oi] is the bitset of
    partition-p2 objects that the static rules leave connected to object oi
    of partition p1, cols its transpose, both None when no static rule
    applies.

    A `record` plan treats every element as dynamic and keeps all of a
    pair's elements in its own group, so each refuted vertex and pair meets
    its first rule in the per-state loop.
    """

    def __init__(self, statics: "TaskStatics", schema: ActionSchema, numeric: bool,
                 record: bool):
        self.schema = schema
        objects = statics.objects
        preds, funcs = statics.predicates, statics.functions
        env = (statics.index, statics.init_ranges)

        pos = [(lit.atom, free_variables(lit.atom)) for lit in schema.pre_literals if lit.positive]
        neg = [(lit.atom, free_variables(lit.atom)) for lit in schema.pre_literals
               if not lit.positive]
        cons = [(c, free_variables(c)) for c in schema.pre_constraints] if numeric else []

        def is_static(element) -> bool:
            if record:
                return False
            if isinstance(element, Atom):
                return element.predicate.name in preds
            return all(t.function.name in funcs for t in function_terms(element))

        self.ground: list[tuple[str, object]] = []
        self.failure: Optional[str] = None
        self.alive: list[int] = []
        self.unary: list[_Rules] = []
        self.pairs: list[tuple] = []

        # elements with no variable bound, in the order the checks run
        checks = (
            [(POSITIVE_MISS, atom) for atom, vars_ in pos if not vars_]
            + [(NEGATIVE_HIT, atom) for atom, vars_ in neg if not vars_]
            + [(POSITIVE_MISS, atom) for atom, vars_ in pos if vars_]
            + [(NUMERIC_UNSAT, con) for con, _ in cons]
        )
        for reason, element in checks:
            if not is_static(element):
                self.ground.append((reason, element))
            elif _ground_fails(reason, element, *env):
                self.failure = f"{reason}: {element!r}"
                return

        def split(pos_sel, neg_sel, con_sel, pair=frozenset()) -> dict:
            # static elements under _STATIC, dynamic ones under the pair
            # variables they hold (all of a vertex's under the empty set)
            groups: dict = defaultdict(_Rules)
            for elements, rule in ((pos_sel, "pos"), (neg_sel, "neg"), (con_sel, "con")):
                for element, vars_ in elements:
                    key = _STATIC if is_static(element) else pair if record else vars_ & pair
                    getattr(groups[key], rule).append(element)
            return groups

        # vertices: single-variable elements, evaluated per object
        everything = (1 << len(objects)) - 1
        for var in schema.params:
            groups = split(*([e for e in group if e[1] == {var}] for group in (pos, neg, cons)))
            self.alive.append(_survivors(groups[_STATIC], var, everything, objects, env))
            self.unary.append(groups[frozenset()])

        # pairs: elements on two or more variables that touch the pair
        params = schema.params
        for p1, p2 in itertools.combinations(range(len(params)), 2):
            x1, x2 = params[p1], params[p2]
            pair = frozenset((x1, x2))
            groups = split(
                [e for e in pos if len(e[1]) > 1 and e[1] & pair],
                [e for e in neg if e[1] == pair],
                [e for e in cons if len(e[1]) > 1 and e[1] & pair],
                pair,
            )
            static = groups[_STATIC]
            rows = cols = None
            if static:
                rows, cols = [0] * len(objects), [0] * len(objects)
                for oi in _bits(self.alive[p1]):
                    for oj in _bits(self.alive[p2]):
                        binding = {x1: objects[oi], x2: objects[oj]}
                        if static.refute(binding, *env) is None:
                            rows[oi] |= 1 << oj
                            cols[oj] |= 1 << oi
            self.pairs.append((p1, p2, groups[frozenset((x1,))], groups[frozenset((x2,))],
                               groups[pair], rows, cols))


class TaskStatics:
    """Everything about a task's graphs that depends only on static symbols.

    One instance per task (see `task_statics`); each part is built on first
    use and kept for the task's lifetime. It holds no reference to the task,
    so a dropped task is freed without waiting for the cycle collector.
    """

    def __init__(self, task: Task):
        self.init = task.init
        self.objects = task.objects
        self.predicates = static_predicate_names(task) | {EQUALITY_NAME}
        self.functions = static_function_names(task)
        self._index: Optional[AtomIndex] = None
        self.init_ranges = AssignmentCache(self.init)
        # static function name -> the shared cache that serves its tables
        self.ranges = dict.fromkeys(self.functions, self.init_ranges)
        self._plans: dict[tuple, _Plan] = {}

    @property
    def index(self) -> AtomIndex:
        """Match index over the initial state, for the static elements."""
        if self._index is None:
            self._index = AtomIndex(self.init)
        return self._index

    def plan(self, schema: ActionSchema, numeric: bool, record: bool) -> _Plan:
        key = (id(schema), numeric, record)  # the plan keeps the schema alive
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Plan(self, schema, numeric, record)
        return plan


def task_statics(task: Task) -> TaskStatics:
    statics = task.derived.get("statics")
    if statics is None:
        statics = task.derived["statics"] = TaskStatics(task)
    return statics


def build_graph(schema: ActionSchema, ctx: StateContext, *, numeric: bool = True,
                record: bool = False) -> ConsistencyGraph:
    """Construct the consistency graph; `numeric` toggles the constraint rules."""
    k = len(schema.params)
    objects = ctx.objects
    n = len(objects)
    graph = ConsistencyGraph(
        schema=schema,
        objects=objects,
        alive=[0] * k,
        adjacency=[0] * (k * n),
        exclusions=[] if record else None,
    )
    plan = ctx.statics.plan(schema, numeric, record)
    # a record plan has no static part, so it needs every predicate indexed
    env = (AtomIndex(ctx.state) if record else ctx.index, ctx.ranges)

    # elements with no variable bound decide the whole graph
    for reason, element in plan.ground:
        if _ground_fails(reason, element, *env):
            graph.empty = True
            graph.notes.append(f"{reason}: {element!r}")
            return graph
    if plan.failure is not None:
        graph.empty = True
        graph.notes.append(plan.failure)
        return graph

    exclusions = graph.exclusions
    for p, var in enumerate(schema.params):
        mask = _survivors(plan.unary[p], var, plan.alive[p], objects, env, exclusions, p)
        graph.alive[p] = mask
        if mask == 0:
            graph.empty = True
    if graph.empty or k == 1:
        return graph

    # edges between distinct partitions; an element holding only one of the
    # pair's variables is checked once per vertex, not once per pair
    params = schema.params
    alive = graph.alive
    adjacency = graph.adjacency
    for p1, p2, half1, half2, dynamic, rows, cols in plan.pairs:
        x1, x2 = params[p1], params[p2]
        a1 = _survivors(half1, x1, alive[p1], objects, env)
        a2 = _survivors(half2, x2, alive[p2], objects, env)
        off1, off2 = p1 * n, p2 * n
        if not dynamic:
            for oi in _bits(a1):
                adjacency[off1 + oi] |= (a2 if rows is None else rows[oi] & a2) << off2
            for oj in _bits(a2):
                adjacency[off2 + oj] |= (a1 if cols is None else cols[oj] & a1) << off1
            continue
        for oi in _bits(a1):
            v = off1 + oi
            bits = 0
            for oj in _bits(a2 if rows is None else rows[oi] & a2):
                reason = dynamic.refute({x1: objects[oi], x2: objects[oj]}, *env)
                if reason is None:
                    bits |= 1 << oj
                    adjacency[off2 + oj] |= 1 << v
                elif exclusions is not None:
                    exclusions.append(("pair", p1, oi, p2, oj, reason))
            adjacency[v] |= bits << off2
    return graph


def _survivors(rules: _Rules, var: Variable, mask: int, objects: tuple[Object, ...],
               env: tuple, exclusions: Optional[list] = None, p: int = 0) -> int:
    """The objects of the mask the rules leave; each other one is listed in
    `exclusions`, if given, as a vertex of partition p with its reason."""
    if rules:
        for oi in _bits(mask):
            reason = rules.refute({var: objects[oi]}, *env)
            if reason is not None:
                mask ^= 1 << oi
                if exclusions is not None:
                    exclusions.append(("vertex", p, oi, reason))
    return mask


def schema_violations(schema: ActionSchema) -> Iterator[tuple[object, str]]:
    """(element, why) for each precondition element that breaks the
    exactness conditions.

    The graph decides a precondition element exactly when it mentions at
    most two variables and, for a constraint, every function it uses has
    arity at most two.
    """
    for lit in schema.pre_literals:
        arity = len(free_variables(lit))
        if arity > 2:
            yield lit, f"literal with {arity} variables"
    for con in schema.pre_constraints:
        arity = len(free_variables(con))
        if arity > 2:
            yield con, f"constraint with {arity} variables"
        for fn in sorted({t.function for t in function_terms(con)}, key=lambda f: f.name):
            if fn.arity > 2:
                yield con, f"function {fn.name} of arity {fn.arity}"


def exactness_violations(domain) -> list[tuple[str, str, str]]:
    """(schema, element, why) entries that break the exactness conditions.

    Candidate generation is exact when every precondition literal and
    constraint mentions at most two variables and every function used in a
    precondition constraint has arity at most two.
    """
    return [(schema.name, repr(element), why)
            for schema in domain.schemas
            for element, why in schema_violations(schema)]

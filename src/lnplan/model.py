"""Numeric planning task representation and exact ground semantics.

States pair a set of ground atoms with a partial map from ground function
terms to finite reals. The states of a task hold only the atoms and fluents
that effects can change, and share the rest, a static part that is itself a
State and that `Task` splits off the initial state; a fact is looked up in
the state's own part and then in its static part. Evaluation is exact on
floats; a missing fluent or a zero divisor yields the undefined marker
(None), and anything undefined makes the enclosing literal or constraint
count as not holding rather than raising.

Objects, variables, atoms and function terms are interned: one instance per
name, or per symbol name and arguments, held weakly, so that equality and
hashing are by identity. A probe for a ground atom or fluent looks the
instance up and builds none: with no instance, no state holds it.

A state's key is packed: one tuple of its own atoms as a bitset and its own
fluent values in slot order, numbered by a `Layout` that the states of one
static part share. A ground action grounds its effects once, on first
use, and keeps them with their delta on the keys of one layout
(`GroundAction.ground_effects`, `Delta`): the bits it deletes and adds, and
per numeric effect the slot it writes. Successor generators intern their
actions per generator (`successors.SuccessorGenerator`), so that work is
done once per distinct action, not once per application. The search keys a
successor from its parent's key and the delta (`successor_key`) and builds
the state only for a new key (`keyed_successor`); only the values of effect
expressions that read fluents the states own are evaluated per application.

The predicate name "=" is reserved for built-in object equality: it has the
implicit extension {(o, o)} in every state and never appears in effect sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union
from weakref import WeakValueDictionary, ref

from .intervals import ARITH

EQUALITY_NAME = "="

ASSIGN = ":="
INCREASE = "+="
DECREASE = "-="
SCALE_UP = "*="
SCALE_DOWN = "/="
ADDITIVE_OPS = frozenset((INCREASE, DECREASE))
MULTIPLICATIVE_OPS = frozenset((SCALE_UP, SCALE_DOWN))
# updating effect operator -> the arithmetic that folds its value into the target
_UPDATES = {INCREASE: ARITH["+"], DECREASE: ARITH["-"],
            SCALE_UP: ARITH["*"], SCALE_DOWN: ARITH["/"]}


class _KeyedRef(ref):
    """A weak reference that carries its table key, which the removal
    callback of a WeakValueDictionary reads. Unlike weakref.KeyedRef it is
    built by ref's own constructor, with no Python-level __new__ or __init__."""

    __slots__ = ("key",)


class _Interned:
    """A value with one instance per key and class, so that equality and
    hashing are by identity, which Python computes in C. The instances are
    held weakly: one that nothing uses any more is dropped. Pickling and
    copying rebuild through the constructor, which returns the instance."""

    __slots__ = ("__weakref__",)
    # the constructor's arguments, one slot each; a subclass's `_build`, which
    # builds the instance on a miss, sets exactly these slots
    _fields: tuple[str, ...]
    _instances: WeakValueDictionary  # key -> instance, one table per class

    @classmethod
    def find(cls, key):
        """The instance with the key, or None; builds nothing."""
        # the table's own dict of weak references: a miss costs neither a
        # Python method call nor a KeyError, as one through `get` would
        ref = cls._instances.data.get(key)
        return None if ref is None else ref()

    @classmethod
    def _keep(cls, key, instance):
        """Enters the new instance in the table under the key; returns it."""
        # straight into the table's dict, past WeakValueDictionary.__setitem__:
        # its only other step commits removals left pending by an iteration,
        # and the table's callback removes a key only while its reference is dead
        table = cls._instances
        entry = _KeyedRef(instance, table._remove)
        entry.key = key
        table.data[key] = entry
        return instance

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class _Named(_Interned):
    """A name, interned by itself."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return cls.find(name) or cls._build(name)

    @classmethod
    def _build(cls, name: str):
        named = object.__new__(cls)
        named.name = name
        return cls._keep(name, named)

    def __repr__(self):
        return self.name


class Variable(_Named):
    """A schema variable; the name keeps its '?' prefix for printing."""

    __slots__ = ()
    _instances = WeakValueDictionary()


class Object(_Named):
    """A constant from the task's object universe."""

    __slots__ = ()
    _instances = WeakValueDictionary()


Term = Union[Variable, Object]


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arity: int


EQUALITY = PredicateSymbol(EQUALITY_NAME, 2)


class _Application(_Interned):
    """A predicate or function symbol applied to terms, interned by (symbol
    name, arguments). The arity is checked before the lookup, so a key fixes
    its symbol, and identity is equality of symbol and arguments."""

    __slots__ = ()
    _kind: str

    def __new__(cls, symbol, args: Iterable[Term]):
        args = tuple(args)
        if len(args) != symbol.arity:
            raise ValueError(
                f"{cls._kind} {symbol.name} expects {symbol.arity} arguments, got {len(args)}"
            )
        key = symbol.name, args
        return cls.find(key) or cls._build(key, symbol, args)

    def __repr__(self):
        symbol, args = (getattr(self, name) for name in self._fields)
        return "(" + " ".join([symbol.name] + [a.name for a in args]) + ")"


class Atom(_Application):
    __slots__ = _fields = ("predicate", "args")
    _kind = "atom"
    _instances = WeakValueDictionary()

    @classmethod
    def _build(cls, key, predicate: PredicateSymbol, args: tuple) -> Atom:
        atom = object.__new__(cls)
        atom.predicate = predicate
        atom.args = args
        return cls._keep(key, atom)


class FunctionTerm(_Application):
    __slots__ = _fields = ("function", "args")
    _kind = "function"
    _instances = WeakValueDictionary()

    @classmethod
    def _build(cls, key, function: FunctionSymbol, args: tuple) -> FunctionTerm:
        term = object.__new__(cls)
        term.function = function
        term.args = args
        return cls._keep(key, term)


@dataclass(frozen=True)
class Constant:
    value: float

    def __repr__(self):
        return format_number(self.value)


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    def __repr__(self):
        return f"({self.op} {self.left!r} {self.right!r})"


Expr = Union[Constant, FunctionTerm, BinaryExpr]


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def __repr__(self):
        return repr(self.atom) if self.positive else f"(not {self.atom!r})"


@dataclass(frozen=True)
class NumericConstraint:
    lhs: Expr
    cmp: str  # one of = < > <= >=
    rhs: Expr

    def __repr__(self):
        return f"({self.cmp} {self.lhs!r} {self.rhs!r})"


@dataclass(frozen=True)
class NumericEffect:
    target: FunctionTerm
    op: str  # one of := += -= *= /=
    expr: Expr

    def __repr__(self):
        return f"({self.op} {self.target!r} {self.expr!r})"


def format_number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


# --- free variables and substitution ---


def free_variables(element) -> frozenset[Variable]:
    return frozenset(a for part in _parts(element) for a in part.args if type(a) is Variable)


def function_terms(element) -> Iterator[FunctionTerm]:
    """The function terms of an element, left to right."""
    return (part for part in _parts(element) if isinstance(part, FunctionTerm))


def _parts(element) -> Iterator[Union[Atom, FunctionTerm]]:
    """The atoms and function terms of an element, left to right."""
    if isinstance(element, (Atom, FunctionTerm)):
        yield element
    elif isinstance(element, Literal):
        yield element.atom
    elif isinstance(element, BinaryExpr):
        yield from _parts(element.left)
        yield from _parts(element.right)
    elif isinstance(element, NumericConstraint):
        yield from _parts(element.lhs)
        yield from _parts(element.rhs)
    elif isinstance(element, NumericEffect):
        yield element.target
        yield from _parts(element.expr)
    elif not isinstance(element, Constant):
        raise TypeError(f"cannot walk {type(element).__name__}")


def substitute(element, sub: Mapping[Variable, Object]):
    """Replace every mapped variable; unmapped variables stay free."""
    if isinstance(element, Variable):
        return sub.get(element, element)
    if isinstance(element, (Object, Constant)):
        return element
    if isinstance(element, Atom):
        return Atom(element.predicate, tuple(sub.get(a, a) for a in element.args))
    if isinstance(element, FunctionTerm):
        return FunctionTerm(element.function, tuple(sub.get(a, a) for a in element.args))
    if isinstance(element, Literal):
        return Literal(substitute(element.atom, sub), element.positive)
    if isinstance(element, BinaryExpr):
        return BinaryExpr(element.op, substitute(element.left, sub), substitute(element.right, sub))
    if isinstance(element, NumericConstraint):
        return NumericConstraint(substitute(element.lhs, sub), element.cmp, substitute(element.rhs, sub))
    if isinstance(element, NumericEffect):
        return NumericEffect(substitute(element.target, sub), element.op, substitute(element.expr, sub))
    raise TypeError(f"cannot substitute into {type(element).__name__}")


# --- schemas, states, tasks ---


def _dedupe(items: tuple) -> tuple:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[Variable, ...]
    pre_literals: tuple[Literal, ...] = ()
    pre_constraints: tuple[NumericConstraint, ...] = ()
    eff_literals: tuple[Literal, ...] = ()
    eff_numeric: tuple[NumericEffect, ...] = ()

    def __post_init__(self):
        # preconditions and effects are sets in the semantics: a repeated
        # syntactic element is one element, not a doubled update
        for name in ("pre_literals", "pre_constraints", "eff_literals", "eff_numeric"):
            object.__setattr__(self, name, _dedupe(getattr(self, name)))
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"action {self.name}: duplicate parameters")
        scope = set(self.params)
        for group in (self.pre_literals, self.pre_constraints, self.eff_literals, self.eff_numeric):
            for element in group:
                loose = free_variables(element) - scope
                if loose:
                    names = ", ".join(sorted(v.name for v in loose))
                    raise ValueError(f"action {self.name}: free variables not in parameters: {names}")

    @cached_property
    def conditions(self) -> Check:
        """Every applicability condition of the schema, as `_failure` walks them."""
        return Check(
            self.pre_literals,
            self.pre_constraints,
            tuple(EffectCheck(eff, True, eff.op == SCALE_DOWN, eff.op != ASSIGN, True)
                  for eff in self.eff_numeric),
        )

    @cached_property
    def effects(self) -> Effects:
        """The schema's effects as templates over a binding, as `apply_effects` uses them."""
        parts = [lit.atom for lit in self.eff_literals] + [eff.target for eff in self.eff_numeric]
        constants = tuple(dict.fromkeys(
            a for part in parts for a in part.args if type(a) is Object))
        slots = {term: i for i, term in enumerate(self.params + constants)}

        def template(symbol, args) -> PartTemplate:
            return PartTemplate(symbol, _picker([slots[a] for a in args]))

        return Effects(
            constants,
            tuple(template(lit.atom.predicate, lit.atom.args)
                  for lit in self.eff_literals if not lit.positive),
            tuple(template(lit.atom.predicate, lit.atom.args)
                  for lit in self.eff_literals if lit.positive),
            tuple(template(eff.target.function, eff.target.args) for eff in self.eff_numeric),
            tuple((_UPDATES.get(eff.op), eff.expr) for eff in self.eff_numeric),
        )


def _picker(positions: list[int]) -> Callable[[tuple], tuple]:
    """A function in C from a tuple to the tuple of its items at the positions."""
    first = positions[0] if positions else 0
    if positions == list(range(first, first + len(positions))):
        return itemgetter(slice(first, first + len(positions)))
    return itemgetter(*positions)


class PartTemplate(NamedTuple):
    """An atom or function term of an effect, over a binding by position."""

    symbol: Union[PredicateSymbol, FunctionSymbol]
    args: Callable[[tuple], tuple]  # binding + constants -> ground arguments


class Effects(NamedTuple):
    """A schema's effects compiled for `apply_effects`.

    Each template picks its ground arguments from the action's binding with
    the schema's effect constants appended. Each numeric effect, in the
    order of `targets`, has an update (fold, expr): `fold` is the arithmetic
    that folds the expression's value into the target (None for :=).
    `GroundAction.delta` evaluates once per action every expression whose
    terms are all static, constant ones among them.
    """

    constants: tuple[Object, ...]
    deletes: tuple[PartTemplate, ...]
    adds: tuple[PartTemplate, ...]
    targets: tuple[PartTemplate, ...]
    updates: tuple[tuple[Optional[Callable], Expr], ...]


class EffectCheck(NamedTuple):
    """The conditions `_failure` checks for one numeric effect, one flag each."""

    effect: NumericEffect
    defined: bool  # the expression has a value
    nonzero: bool  # the value is not 0 (a /= divisor)
    target: bool  # the target has a value (updating operators)
    conflict: bool  # no other effect writes the target with an incompatible operator


@dataclass(frozen=True)
class Check:
    """What `_failure` checks of an action: a subset of its schema's conditions.

    `ActionSchema.conditions` is the full set. A successor generator passes a
    smaller one, which leaves out what its candidates are known to satisfy.
    An empty check is false.
    """

    literals: tuple[Literal, ...] = ()
    constraints: tuple[NumericConstraint, ...] = ()
    effects: tuple[EffectCheck, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.literals or self.constraints or self.effects)


def _normalized(fluents: Mapping[FunctionTerm, float]) -> dict[FunctionTerm, float]:
    """A copy of the fluents as floats, with -0.0 stored as 0.0; only the
    values that change are written again."""
    out = dict(fluents)
    for t, v in out.items():
        if type(v) is not float or (v == 0 and math.copysign(1.0, v) < 0):
            out[t] = 0.0 if v == 0 else float(v)
    return out


class State:
    """Immutable state: true ground atoms plus defined ground fluent values.

    A state owns some atoms and fluents and shares the rest, `static`, with
    the other states of its task. The static part is a State too. `Task`
    splits its initial state by symbol: the state owns the atoms of
    predicates some effect touches and the fluents of functions some numeric
    effect writes, and the static part owns the rest. Each fact is in one
    part, and effects write only what the state owns, so a successor copies
    the own part and shares the static one, and the evaluators below look a
    fact up in the own part and then in the static part. A state built by
    hand shares the empty `NO_STATIC_FACTS` and owns every atom and fluent it
    is given.

    `atoms` and `fluents` are the full contents, built on each read for
    readers outside the hot path.
    """

    # `_layout` is read on static parts only: a weak reference to their Layout
    __slots__ = ("own_atoms", "own_fluents", "static", "_key", "_layout")

    def __init__(self, atoms: Iterable[Atom], fluents: Mapping[FunctionTerm, float],
                 static: Optional[State] = None):
        self.own_atoms = frozenset(atoms)
        self.own_fluents = _normalized(fluents)
        self.static = NO_STATIC_FACTS if static is None else static
        self._key = self._layout = None

    @property
    def atoms(self) -> frozenset[Atom]:
        """Every true atom, the static ones included."""
        static = self.static
        if not static.own_atoms:
            return self.own_atoms
        return self.own_atoms | static.own_atoms

    @property
    def fluents(self) -> dict[FunctionTerm, float]:
        """Every defined fluent, the static ones included."""
        static = self.static
        if not static.own_fluents:
            return self.own_fluents
        return {**static.own_fluents, **self.own_fluents}

    def key(self) -> tuple:
        """Value identity, packed into one tuple: the own atoms as a bitset,
        the layout of the static part that numbers them, and the own fluent
        values in slot order (see `Layout`).

        Atoms and terms are interned and values are floats with -0.0 stored
        as 0.0, so two states with the same true atoms and fluent values have
        equal keys whatever their construction order, as long as they split
        them alike. States whose static parts differ have different layouts
        and never equal keys. Equality and hashing of states use this key;
        it is built once per state, by the search from the parent's key
        (`successor_key`), and here for any other state.
        """
        if self._key is None:
            self._key = Layout.of(self.static).pack(self.own_atoms, self.own_fluents)
        return self._key

    def __eq__(self, other):
        return type(other) is State and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"State({len(self.atoms)} atoms, {len(self.fluents)} fluents)"


class Layout:
    """The numbering that packs the keys of the states of one static part.

    Each own atom gets a bit and each own fluent term a slot, on first sight,
    so the numbering grows when effects reach an atom or define a fluent
    that no state keyed so far holds. A key is (bitset, layout, value of
    slot 0, value of slot 1, ...): it holds None at the slot of a term the
    state leaves undefined, which equals no value, and ends at its last
    defined slot, so a key packed before a slot was added equals one packed
    after. Static parts with equal contents share one layout (`Layout.of`),
    so equal states of two parses of a task have equal keys. A layout lives
    as long as a key or a `Delta` holds it. It numbers atoms and terms by
    their names, so it keeps no interned instance alive and numbers an
    instance built again as before.
    """

    __slots__ = ("bits", "slots", "__weakref__")

    def __init__(self):
        self.bits: dict[tuple[str, ...], int] = {}  # atom's names -> 1 << its number
        self.slots: dict[tuple[str, ...], int] = {}  # term's names -> its slot

    @staticmethod
    def of(static: State) -> Layout:
        """The layout of the states whose static part is `static`."""
        layout = static._layout and static._layout()
        if layout is None:
            content = (static.own_atoms, frozenset(static.own_fluents.items()))
            layout = _LAYOUTS.get(content)
            if layout is None:
                layout = _LAYOUTS[content] = Layout()
            static._layout = ref(layout)
        return layout

    def bit(self, atom: Atom) -> int:
        names = (atom.predicate.name, *[a.name for a in atom.args])
        return self.bits.setdefault(names, 1 << len(self.bits))

    def slot(self, term: FunctionTerm) -> int:
        """The term's position in a key: its slot, after bitset and layout."""
        names = (term.function.name, *[a.name for a in term.args])
        return self.slots.setdefault(names, len(self.slots) + 2)

    def pack(self, atoms: Iterable[Atom], fluents: Mapping[FunctionTerm, float]) -> tuple:
        """The key of a state that owns these atoms and fluents."""
        mask = 0
        for atom in atoms:
            mask |= self.bit(atom)
        key = [mask, self]
        for term, value in fluents.items():
            position = self.slot(term)
            if position >= len(key):
                key += [None] * (position + 1 - len(key))
            key[position] = value
        return tuple(key)


# static contents -> their layout, while a key or a delta holds it
_LAYOUTS: WeakValueDictionary = WeakValueDictionary()


def _successor(atoms: frozenset[Atom], fluents: dict[FunctionTerm, float], static: State,
               key: tuple) -> State:
    """A state over own contents that are already normalised, with its key."""
    state = object.__new__(State)
    state.own_atoms, state.own_fluents, state.static = atoms, fluents, static
    state._key, state._layout = key, None
    return state


# the empty static part of states built by hand, which is its own static part
NO_STATIC_FACTS = None
NO_STATIC_FACTS = State((), {})
NO_STATIC_FACTS.static = NO_STATIC_FACTS


@dataclass
class Task:
    domain_name: str
    problem_name: str
    predicates: tuple[PredicateSymbol, ...]
    functions: tuple[FunctionSymbol, ...]
    schemas: tuple[ActionSchema, ...]
    objects: tuple[Object, ...]
    init: State
    goal_literals: tuple[Literal, ...] = ()
    goal_constraints: tuple[NumericConstraint, ...] = ()
    metric: Optional[tuple[str, Expr]] = None  # parsed but ignored by blind search
    # data derived from the task on first use (see consistency.task_statics);
    # not part of the task's identity
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def function(self, name: str) -> FunctionSymbol:
        return self._fn_index[name]

    def schema(self, name: str) -> ActionSchema:
        return self._schema_index[name]

    def __post_init__(self):
        self._pred_index = {p.name: p for p in self.predicates}
        self._fn_index = {f.name: f for f in self.functions}
        self._schema_index = {a.name: a for a in self.schemas}
        for label, group, index in (
            ("predicate", self.predicates, self._pred_index),
            ("function", self.functions, self._fn_index),
            ("action", self.schemas, self._schema_index),
        ):
            if len(index) != len(group):
                raise ValueError(f"duplicate {label} names in task")
        # the initial state owns the atoms and fluents that effects change
        # and shares the rest with every state reached from it
        predicates, functions = static_predicate_names(self), static_function_names(self)
        atoms, fluents = self.init.atoms, self.init.fluents
        own_atoms = frozenset(a for a in atoms if a.predicate.name not in predicates)
        own_fluents = {t: v for t, v in fluents.items() if t.function.name not in functions}
        static = State(atoms - own_atoms,
                       {t: v for t, v in fluents.items() if t.function.name in functions})
        self.init = State(own_atoms, own_fluents, static)


def static_predicate_names(task: Task) -> frozenset[str]:
    """Predicates no effect ever touches; their truth is fixed by the initial state."""
    touched = {
        lit.atom.predicate.name
        for schema in task.schemas
        for lit in schema.eff_literals
    }
    return frozenset(p.name for p in task.predicates if p.name not in touched)


def static_function_names(task: Task) -> frozenset[str]:
    """Functions no numeric effect targets; their values are fixed by the initial state."""
    written = {
        eff.target.function.name
        for schema in task.schemas
        for eff in schema.eff_numeric
    }
    return frozenset(f.name for f in task.functions if f.name not in written)


class Delta(NamedTuple):
    """A ground action's effects, ground, and what they do to the keys of
    the states of one layout.

    `parts` are the atoms it deletes and adds and the terms it writes, in
    the order of the schema's effect templates (`ActionSchema.effects`).
    Over the layout, a successor's atom bitset is the state's `& keep | add`,
    and each numeric effect in order has a write (slot, fold, expr, value),
    the slot as a position in the key: `fold` is the arithmetic that folds
    the value into the slot (None for :=), and the value is `value` unless
    `expr` is given, which is then evaluated in the state. An expression
    with no function term, or whose terms are all static, is evaluated once
    into `value`. `reach` is one past the highest slot written. Without a
    layout only `parts` is set.
    """

    parts: tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[FunctionTerm, ...]]
    layout: Optional[Layout] = None
    keep: int = -1
    add: int = 0
    writes: tuple[tuple[int, Optional[Callable], Optional[Expr], Optional[float]], ...] = ()
    reach: int = 0


class GroundAction:
    """A schema plus a total binding of its parameters, in parameter order.

    What an action derives from its binding is filled on first use and kept:
    the binding map and its ground effects with their delta on the keys of
    the last layout it was applied in (`Delta`). A successor generator builds
    each distinct action once and reuses it in every state (see
    `successors.SuccessorGenerator`), so that work is done once per action,
    not once per state.
    """

    __slots__ = ("schema", "binding", "_map", "_hash", "_effects")

    def __init__(self, schema: ActionSchema, binding: Iterable[Object]):
        binding = tuple(binding)
        if len(binding) != len(schema.params):
            raise ValueError(f"action {schema.name}: binding arity mismatch")
        self.schema = schema
        self.binding = binding
        self._map = self._effects = None
        self._hash = hash((schema.name, binding))

    @classmethod
    def bound(cls, schema: ActionSchema, binding: tuple[Object, ...]) -> GroundAction:
        """The action, unchecked: `binding` is a tuple with one object per
        parameter, as a successor generator's bindings are."""
        action = object.__new__(cls)
        action.schema, action.binding = schema, binding
        action._map = action._effects = None
        action._hash = hash((schema.name, binding))
        return action

    def ground_effects(self) -> tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[FunctionTerm, ...]]:
        """The atoms the action deletes and adds and the terms it writes, in
        the order of the schema's effect templates (`ActionSchema.effects`):
        the interned instances, built only on a miss."""
        if self._effects is None:
            effects = self.schema.effects
            values = self.binding + effects.constants if effects.constants else self.binding
            self._effects = Delta((_ground_parts(effects.deletes, values, Atom),
                                   _ground_parts(effects.adds, values, Atom),
                                   _ground_parts(effects.targets, values, FunctionTerm)))
        return self._effects.parts

    def delta(self, state: State, layout: Layout) -> Delta:
        """The action's delta on the keys of the layout of `state`, kept
        until the action is applied in a state of another layout."""
        delta = self._effects
        if delta is not None and delta.layout is layout:
            return delta
        deletes, adds, targets = parts = self.ground_effects()
        drop = add = 0
        for atom in deletes:
            drop |= layout.bit(atom)
        for atom in adds:
            add |= layout.bit(atom)
        static, binding, writes = state.static, self.binding_map(), []
        for target, (fold, expr) in zip(targets, self.schema.effects.updates):
            value = None
            if all(FunctionTerm.find((t.function.name, _ground_args(t.args, binding)))
                   in static.own_fluents for t in function_terms(expr)):
                # static terms have one value in every state of the layout
                fixed = expr_value(static, expr, binding)
                if fixed is not None:
                    expr, value = None, fixed
            writes.append((layout.slot(target), fold, expr, value))
        self._effects = delta = Delta(parts, layout, ~drop, add, tuple(writes),
                                      max((w[0] + 1 for w in writes), default=0))
        return delta

    def binding_map(self) -> dict[Variable, Object]:
        if self._map is None:
            self._map = dict(zip(self.schema.params, self.binding))
        return self._map

    def pddl(self) -> str:
        return "(" + " ".join([self.schema.name] + [o.name for o in self.binding]) + ")"

    def __eq__(self, other):
        return (
            type(other) is GroundAction
            and other._hash == self._hash
            and other.schema.name == self.schema.name
            and other.binding == self.binding
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.pddl()


# --- evaluation ---

_EMPTY_BINDING: Mapping[Variable, Object] = {}
_CMP = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}
# the same comparisons loosened by a slack t > 0
_SLACK = {
    "=": lambda a, b, t: abs(a - b) <= t,
    "<": lambda a, b, t: a < b + t,
    ">": lambda a, b, t: a > b - t,
    "<=": lambda a, b, t: a <= b + t,
    ">=": lambda a, b, t: a >= b - t,
}


def _ground_args(args: tuple[Term, ...], binding: Mapping[Variable, Object]) -> tuple[Object, ...]:
    try:
        return tuple([t if type(t) is Object else binding[t] for t in args])
    except KeyError as missing:
        raise ValueError(f"unbound variable {missing.args[0].name} in ground evaluation") from None


def ground_function_term(term: FunctionTerm, binding: Mapping[Variable, Object]) -> FunctionTerm:
    return FunctionTerm(term.function, _ground_args(term.args, binding))


def literal_holds(state: State, literal: Literal, binding: Mapping[Variable, Object] = _EMPTY_BINDING) -> bool:
    atom = literal.atom
    args = _ground_args(atom.args, binding)
    if atom.predicate.name == EQUALITY_NAME:
        result = args[0] is args[1]
    else:
        atom = Atom.find((atom.predicate.name, args))
        result = atom is not None and (atom in state.own_atoms or atom in state.static.own_atoms)
    return result if literal.positive else not result


def expr_value(state: State, expr: Expr, binding: Mapping[Variable, Object] = _EMPTY_BINDING) -> Optional[float]:
    """Value of the expression, or None when undefined."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, FunctionTerm):
        term = FunctionTerm.find((expr.function.name, _ground_args(expr.args, binding)))
        if term is None:
            return None
        value = state.own_fluents.get(term)
        return state.static.own_fluents.get(term) if value is None else value
    left = expr_value(state, expr.left, binding)
    if left is None:
        return None
    right = expr_value(state, expr.right, binding)
    if right is None:
        return None
    fn = ARITH.get(expr.op)
    if fn is None:
        raise ValueError(f"unknown arithmetic operator {expr.op!r}")
    if right == 0.0 and expr.op == "/":
        return None
    return fn(left, right)


def constraint_holds(state: State, constraint: NumericConstraint,
                     binding: Mapping[Variable, Object] = _EMPTY_BINDING,
                     tolerance: float = 0.0) -> bool:
    """Do both sides have values that compare as the constraint says?

    A positive tolerance only loosens the comparison: it holds when it holds
    exactly or within the slack (|l - r| <= t for =, l < r + t for <, and so
    on). Definedness stays exact.
    """
    left = expr_value(state, constraint.lhs, binding)
    if left is None:
        return False
    right = expr_value(state, constraint.rhs, binding)
    if right is None:
        return False
    cmp = constraint.cmp
    return _CMP[cmp](left, right) or (tolerance > 0.0 and _SLACK[cmp](left, right, tolerance))


# --- applicability and successors ---


def _failure(state: State, action: GroundAction, tolerance: float,
             check: Optional[Check] = None):
    """The first applicability condition the action fails, or None.

    The conditions, in order: precondition literals and constraints, effect
    expression definedness (including the target for updating operators and
    a nonzero divisor for /=), and per-target effect compatibility. `check`
    selects which of them to walk, all of them by default. The tolerance
    loosens precondition comparisons only. A failure is a (reason, element)
    pair: the words that precede the element in applicability_failure's
    text, and the failing element. No text is built here, because the
    successor filter sees a failure for most candidates under some
    strategies.
    """
    if check is None:
        check = action.schema.conditions
    binding = action.binding_map()
    for lit in check.literals:
        if not literal_holds(state, lit, binding):
            return "precondition literal does not hold:", lit
    for con in check.constraints:
        if not constraint_holds(state, con, binding, tolerance):
            return "precondition constraint does not hold:", con
    per_target: dict[FunctionTerm, list[str]] = {}
    for eff, defined, nonzero, target_defined, conflict in check.effects:
        if defined or nonzero:
            value = expr_value(state, eff.expr, binding)
            if value is None:
                return "effect expression undefined:", eff
        if target_defined and expr_value(state, eff.target, binding) is None:
            return "effect target undefined:", ground_function_term(eff.target, binding)
        if nonzero and value == 0.0:
            return "effect divides by zero:", eff
        if conflict:
            per_target.setdefault(ground_function_term(eff.target, binding), []).append(eff.op)
    for target, ops in per_target.items():
        if not effects_compatible(ops):
            return "conflicting effects on", target
    return None


def effects_compatible(ops: list[str]) -> bool:
    """Can effects with these operators share one target? Only a single
    effect, or effects that are all additive or all multiplicative."""
    group = set(ops)
    return len(ops) < 2 or group <= ADDITIVE_OPS or group <= MULTIPLICATIVE_OPS


def is_applicable(state: State, action: GroundAction, check: Optional[Check] = None) -> bool:
    """Exact applicability test; see applicability_failure for the reason.

    With a `check`, only the conditions it holds are tested (see `_failure`).
    """
    return _failure(state, action, 0.0, check) is None


def applicability_failure(state: State, action: GroundAction,
                          tolerance: float = 0.0) -> Optional[str]:
    """None when the action is applicable, else the first failing condition as text.

    A positive tolerance loosens the precondition comparisons, as in
    constraint_holds.
    """
    failure = _failure(state, action, tolerance)
    if failure is None:
        return None
    reason, element = failure
    return f"{reason} {substitute(element, action.binding_map())!r}"


def apply(state: State, action: GroundAction) -> State:
    """Successor state of an action the caller has found applicable.

    Only actions whose applicability has been checked are applied, so
    nothing is checked again here.
    """
    return apply_effects(state, action)


def apply_effects(state: State, action: GroundAction) -> State:
    """Raw successor computation; requires the effect conditions to hold.

    All effect expressions are evaluated in the original state. Atoms are
    updated as (atoms - deletes) + adds; the effects on one target fold into
    it in order. The successor is keyed from the state's key and built with
    that key (`successor_key`, `keyed_successor`).
    """
    return keyed_successor(state, action, successor_key(state, action))


def successor_key(state: State, action: GroundAction) -> tuple:
    """The key of the action's successor of the state, from the state's key
    and the action's delta (`GroundAction.delta`), with no state built."""
    key = list(state._key or state.key())
    delta = action.delta(state, key[1])
    key[0] = key[0] & delta.keep | delta.add
    if len(key) < delta.reach:
        key += [None] * (delta.reach - len(key))
    for slot, fold, expr, value in delta.writes:
        if expr is not None:
            value = expr_value(state, expr, action.binding_map())
        if fold is not None:
            value = fold(key[slot], value)
        # adding 0.0 stores an int as a float and -0.0 as 0.0
        key[slot] = value + 0.0
    return tuple(key)


def keyed_successor(state: State, action: GroundAction, key: tuple) -> State:
    """The successor whose key `successor_key` gave for the state and the
    action. It copies the own parts that the effects change, with the
    written values read from the key, and shares the rest and the static
    part with the state. The atoms and terms it writes are the action's
    ground effects, ground once per action."""
    delta = action.delta(state, key[1])
    deletes, adds, targets = delta.parts
    atoms = state.own_atoms
    if deletes:
        atoms = atoms.difference(deletes)
    if adds:
        atoms = atoms.union(adds)
    fluents = state.own_fluents
    if targets:
        fluents = dict(fluents)
        for target, write in zip(targets, delta.writes):
            fluents[target] = key[write[0]]
    return _successor(atoms, fluents, state.static, key)


def _ground_parts(templates: tuple[PartTemplate, ...], values: tuple, cls) -> tuple:
    """The ground atom or term of each template: the interned instance,
    looked up first, so that grounding builds one only on a miss."""
    find, out = cls.find, []
    for symbol, args in templates:
        args = args(values)
        out.append(find((symbol.name, args)) or cls(symbol, args))
    return tuple(out)


def goal_satisfied(state: State, task: Task, tolerance: float = 0.0) -> bool:
    """Does the state satisfy the goal? The tolerance loosens the goal's
    comparisons as in constraint_holds."""
    return all(literal_holds(state, lit) for lit in task.goal_literals) and all(
        constraint_holds(state, con, tolerance=tolerance) for con in task.goal_constraints
    )

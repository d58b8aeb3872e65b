"""Parser and writer for the numeric PDDL fragment.

Supported requirements: :strips, :typing, :negative-preconditions, :equality,
:numeric-fluents. Identifiers are case-insensitive and normalized to lower
case. Types are compiled away at parse time: each declared type becomes a
unary predicate, typed parameters add a positive precondition literal, and
typed objects contribute initial atoms for the type and all its ancestors.
Object equality (= over two bare names) is mapped to the built-in "="
predicate. The :metric section is parsed and recorded but ignored by search.

Reading builds no object per token but the token's text. The tokens are
cut by str methods, which run in C: the text is lowercased, ';' comments to
the end of the line are dropped, each parenthesis is padded with spaces, a
tab, \\r or \\n becomes a space, and the text is split at spaces. A token is
a parenthesis or a word, a run of anything but whitespace of those four
kinds, parentheses and ';'; other whitespace, such as a form feed or a
no-break space, is part of a word. One loop with an explicit stack nests the
tokens into ListNodes, lists of token strings and ListNodes, each of which
records the index of its '(' among the tokens. A form nested deeper than
MAX_DEPTH levels is an error. Offsets and spans are built only for an
error: a regular expression that cuts the same tokens scans the text again
for the offset of each, and the line and column of the one at fault are
counted from the line ends before it. A column counts the characters of the
text as written, so a tab, a \\r or a character whose lowercase is longer
(such as 'İ') is one column.

Each construct has one routine: the (define (WHAT NAME) ...) header, (name
?x - t ...) declarations of predicates and functions, and (name term ...)
applications of both. A token is addressed by its list and index, which is
where an error finds its span. The entries of :init, the bulk of a large
problem, are read in one step each when they are ground atoms or fluent
values (= (f o ...) n): the names are looked up, the atom or term is taken
from the interned ones and built only if it is new. Any other entry, and
one that fails a check (an unknown name, a wrong arity, a value that is no
numeral, overflows or repeats), goes through the routines above, which
report its error.

A type must be declared in :types before a declaration, parameter or
object uses it. A :types entry that would make a type its own ancestor, a
repeated :parameters, :precondition or :effect in an action, and a repeated
object name are errors. All errors carry a SourceSpan and format as
file:line:col: message.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .model import (
    ASSIGN,
    DECREASE,
    EQUALITY,
    EQUALITY_NAME,
    INCREASE,
    SCALE_DOWN,
    SCALE_UP,
    ActionSchema,
    Atom,
    BinaryExpr,
    Constant,
    Expr,
    FunctionSymbol,
    FunctionTerm,
    Literal,
    NumericConstraint,
    NumericEffect,
    Object,
    PredicateSymbol,
    State,
    Task,
    Term,
    Variable,
    format_number,
)

SUPPORTED_REQUIREMENTS = (
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":equality",
    ":numeric-fluents",
)

ROOT_TYPE = "object"

# the deepest nesting of forms that is read; far above any real domain, and
# low enough that the recursive routines below stay within Python's stack
MAX_DEPTH = 256

_NUMBER_RE = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# a token in the group, or a comment, which has none; `tokenize` cuts the
# same tokens with str methods, and this places them for an error's span
_TOKEN_RE = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")
_COMMENT_RE = re.compile(r";[^\n]*")

_EFFECT_HEADS = {
    "increase": INCREASE,
    "decrease": DECREASE,
    "assign": ASSIGN,
    "scale-up": SCALE_UP,
    "scale-down": SCALE_DOWN,
}

_COMPARISONS = ("=", "<", ">", "<=", ">=")


class SourceSpan(NamedTuple):
    file: str
    line: int
    col: int

    @classmethod
    def at(cls, file: str, text: str, offset: int) -> SourceSpan:
        """The span of the character at `offset` of `text`; only '\\n' ends a line."""
        return cls(file, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


def tokenize(text: str) -> list[str]:
    """The text's tokens, lowercased; comments are dropped."""
    # the whole text lowers to each token's own lowercase: no character lowers
    # into a delimiter, and no delimiter lets a context-dependent lowercase
    # (final sigma) see past it
    text = text.lower()
    if ";" in text:
        text = _COMMENT_RE.sub("", text)
    # only these four characters part words, not every whitespace split() knows
    text = (text.replace("(", " ( ").replace(")", " ) ")
            .replace("\t", " ").replace("\r", " ").replace("\n", " "))
    return list(filter(None, text.split(" ")))


def token_offsets(text: str) -> list[int]:
    """The character offset in `text` of each token of `tokenize(text)`."""
    return [m.start() for m in _TOKEN_RE.finditer(text) if m.lastindex]


class _Source(NamedTuple):
    """A text being read; it places a token only when an error needs that."""

    text: str
    file: str

    def span(self, token: int) -> SourceSpan:
        """The span of the token with this index in `tokenize(text)`."""
        return SourceSpan.at(self.file, self.text, token_offsets(self.text)[token])


class ListNode(list):
    """A parenthesized form: a list of token strings and forms. `start` is
    the index of its '(' among the tokens of `source`."""

    __slots__ = ("start", "source")
    # by identity, so that looking a form up among names misses instead of raising
    __hash__ = object.__hash__

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start)

    def at(self, i: int) -> SourceSpan:
        """The span of item i, a token or a form."""
        item = self[i]
        if isinstance(item, ListNode):
            return item.span
        return self.source.span(self.start + 1 + sum(map(_token_count, self[:i])))


def _token_count(node: Node) -> int:
    return 2 + sum(map(_token_count, node)) if isinstance(node, ListNode) else 1


Node = Union[str, ListNode]


def read_forms(text: str, filename: str) -> ListNode:
    """The text's top-level forms (and stray tokens), as the items of one
    ListNode that has no parentheses of its own."""
    # the nodes share `source` and hold nothing that refers back to them, so
    # a dropped parse is freed without the cycle collector
    source = _Source(text, filename)
    forms = items = ListNode()
    forms.start, forms.source = -1, source
    stack = []
    for i, token in enumerate(tokenize(text)):
        if token == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(source.span(i), f"forms nested deeper than {MAX_DEPTH} levels")
            node = ListNode()
            node.start, node.source = i, source
            items.append(node)
            stack.append(items)
            items = node
        elif token == ")":
            if not stack:
                raise ParseError(source.span(i), "unexpected ')'")
            items = stack.pop()
        else:
            items.append(token)
    if stack:  # `items` is the innermost form left open
        raise ParseError(items.span, "unbalanced parenthesis: missing ')'")
    return forms


def _define(text: str, filename: str, what: str) -> tuple[ListNode, str]:
    """The file's single (define (WHAT NAME) ...) form and its NAME."""
    forms = read_forms(text, filename)
    if not forms:
        raise ParseError(SourceSpan(filename, 1, 1), f"empty {what} file")
    if len(forms) > 1:
        raise ParseError(forms.at(1), f"expected a single {what} definition")
    form = forms[0]
    if not isinstance(form, ListNode):
        raise ParseError(forms.at(0), f"expected a {what} definition list")
    if _head_text(form) != "define":
        raise ParseError(form.span, f"expected (define ({what} ...) ...)")
    if len(form) < 2 or _head_text(form[1]) != what or len(form[1]) != 2:
        raise ParseError(form.span, f"expected ({what} NAME) after define")
    return form, _require_token(form[1][1], f"{what} name")


def _head_text(node: Node) -> Optional[str]:
    if isinstance(node, ListNode) and node and not isinstance(node[0], ListNode):
        return node[0]
    return None


def _require_token(node: Node, what: str) -> str:
    if isinstance(node, ListNode):
        raise ParseError(node.span, f"expected {what}")
    return node


def _is_number(text: str) -> bool:
    return bool(_NUMBER_RE.match(text))


def _number(node: ListNode, i: int) -> float:
    """The value of the numeral node[i]; one that overflows to +-inf is out of range."""
    value = float(node[i])
    if math.isinf(value):
        raise ParseError(node.at(i), "number out of range")
    return value


def _parse_typed_names(node: ListNode, first: int, what: str) -> list[tuple[int, str]]:
    """Parse the PDDL typed list node[first:]: a b - t c  ->  [(a,t),(b,t),(c,object)],
    each name given by its index in `node`."""
    out: list[tuple[int, str]] = []
    pending: list[int] = []
    i = first
    while i < len(node):
        if _require_token(node[i], f"{what} name") == "-":
            if not pending:
                raise ParseError(node.at(i), "dangling '-' in typed list")
            if i + 1 >= len(node):
                raise ParseError(node.at(i), "missing type name after '-'")
            type_name = _require_token(node[i + 1], "type name")
            out.extend((j, type_name) for j in pending)
            pending = []
            i += 2
        else:
            pending.append(i)
            i += 1
    out.extend((j, ROOT_TYPE) for j in pending)
    return out


def _require_type(types: dict, type_name: str, node: ListNode, i: int) -> None:
    if type_name != ROOT_TYPE and type_name not in types:
        raise ParseError(node.at(i), f"unknown type {type_name}")


def _type_closure(types: dict, type_name: str) -> list[str]:
    chain = []
    cur: Optional[str] = type_name
    while cur is not None and cur != ROOT_TYPE:
        chain.append(cur)
        cur = types.get(cur)
    return chain


@dataclass
class Domain:
    """The domain part of a task: symbols and schemas, types compiled away."""

    name: str
    predicates: tuple[PredicateSymbol, ...]
    functions: tuple[FunctionSymbol, ...]
    schemas: tuple[ActionSchema, ...]
    constants: tuple[Object, ...] = ()
    constant_types: dict = field(default_factory=dict)  # Object -> type name
    types: dict = field(default_factory=dict)  # type name -> parent name (or None for root)

    def type_closure(self, type_name: str) -> list[str]:
        """The type and its ancestors, root 'object' excluded."""
        return _type_closure(self.types, type_name)


def _declare_predicate(predicates: dict, name: str, arity: int, node: ListNode, i: int) -> None:
    """Declares the predicate; an error is placed at node[i]."""
    if name == EQUALITY_NAME:
        raise ParseError(node.at(i), "predicate name '=' is reserved for built-in equality")
    sym = predicates.setdefault(name, PredicateSymbol(name, arity))
    if sym.arity != arity:
        raise ParseError(node.at(i), f"predicate {name} redeclared with arity {arity}, was {sym.arity}")


def parse_domain(text: str, filename: str = "<domain>") -> Domain:
    form, name = _define(text, filename, "domain")
    types: dict[str, Optional[str]] = {}
    predicates: dict[str, PredicateSymbol] = {}
    functions: dict[str, FunctionSymbol] = {}
    constants: dict[str, Object] = {}
    constant_types: dict[Object, str] = {}
    schemas: dict[str, ActionSchema] = {}

    for k in range(2, len(form)):
        section = form[k]
        head = _head_text(section)
        if head == ":requirements":
            for i in range(1, len(section)):
                requirement = _require_token(section[i], "requirement")
                if requirement not in SUPPORTED_REQUIREMENTS:
                    raise ParseError(section.at(i), f"unsupported requirement {requirement}")
        elif head == ":types":
            for i, parent in _parse_typed_names(section, 1, "type"):
                type_name = section[i]
                # the hierarchy is acyclic before this entry, so a cycle
                # through it would pass through its own name
                if type_name in _type_closure(types, parent):
                    raise ParseError(section.at(i), f"type {type_name} is its own ancestor")
                types[type_name] = parent if parent != ROOT_TYPE else None
                if parent != ROOT_TYPE and parent not in types:
                    types[parent] = None
            # every declared type doubles as a unary predicate
            for type_name in types:
                _declare_predicate(predicates, type_name, 1, form, k)
        elif head == ":constants":
            _parse_object_decls(section, types, constants, constant_types)
        elif head == ":predicates":
            for i in range(1, len(section)):
                decl, arity = _declaration(section, i, "predicate", types)
                _declare_predicate(predicates, decl[0], arity, decl, 0)
        elif head == ":functions":
            _parse_function_decls(section, types, functions)
        elif head == ":action":
            schema = _parse_action(section, types, predicates, functions, constants)
            if schema.name in schemas:
                raise ParseError(section.span, f"duplicate action name {schema.name}")
            schemas[schema.name] = schema
        elif head is None:
            raise ParseError(form.at(k), "expected a domain section")
        else:
            raise ParseError(section.span, f"unsupported domain section {head}")

    return Domain(name, tuple(predicates.values()), tuple(functions.values()),
                  tuple(schemas.values()), tuple(constants.values()), constant_types, types)


def _parse_object_decls(section: ListNode, types: dict, objects: dict, object_types: dict) -> None:
    """Adds the section's objects to `objects` (name -> Object) and the typed
    ones to `object_types`."""
    for i, type_name in _parse_typed_names(section, 1, "object"):
        name = section[i]
        if name.startswith("?"):
            raise ParseError(section.at(i), "object names must not start with '?'")
        _require_type(types, type_name, section, i)
        if name in objects:
            raise ParseError(section.at(i), f"duplicate object {name}")
        obj = objects[name] = Object(name)
        if type_name != ROOT_TYPE:
            object_types[obj] = type_name


def _declaration(node: ListNode, i: int, kind: str, types: dict) -> tuple[ListNode, int]:
    """The (name ?x - t ...) declaration node[i] of a predicate or function,
    its name checked to be a token, and its arity."""
    decl = node[i]
    if not isinstance(decl, ListNode) or not decl:
        raise ParseError(node.at(i), f"expected a {kind} declaration")
    _require_token(decl[0], f"{kind} name")
    args = _parse_typed_names(decl, 1, "parameter")
    for j, type_name in args:
        if not decl[j].startswith("?"):
            raise ParseError(decl.at(j), f"{kind} parameters must be variables")
        _require_type(types, type_name, decl, j)
    return decl, len(args)


def _parse_function_decls(section: ListNode, types: dict, functions: dict) -> None:
    i = 1
    while i < len(section):
        if section[i] == "-":
            # trailing "- number" group type; accept and skip
            if i + 1 >= len(section):
                raise ParseError(section.at(i), "missing type after '-'")
            if _require_token(section[i + 1], "type name") != "number":
                raise ParseError(section.at(i + 1), "functions must map to type 'number'")
            i += 2
            continue
        decl, arity = _declaration(section, i, "function", types)
        sym = functions.setdefault(decl[0], FunctionSymbol(decl[0], arity))
        if sym.arity != arity:
            raise ParseError(decl.at(0), f"function {sym.name} redeclared with different arity")
        i += 1


class _Scope:
    """Resolution context for names inside one action or problem section;
    `variables` is None where elements must be ground."""

    def __init__(self, predicates: dict, functions: dict, objects: dict[str, Object],
                 variables: Optional[dict[str, Variable]] = None):
        self.predicates = predicates
        self.functions = functions
        self.objects = objects
        self.variables = variables

    def term(self, node: ListNode, i: int) -> Term:
        name = _require_token(node[i], "term")
        if name.startswith("?"):
            if self.variables is None:
                raise ParseError(node.at(i), f"variable {name} not allowed here; element must be ground")
            var = self.variables.get(name)
            if var is None:
                raise ParseError(node.at(i), f"variable {name} is not a parameter")
            return var
        obj = self.objects.get(name)
        if obj is None:
            raise ParseError(node.at(i), f"unknown object {name}")
        return obj

    def terms(self, node: ListNode) -> tuple[Term, ...]:
        """The arguments node[1:] of an application."""
        return tuple([self.term(node, i) for i in range(1, len(node))])


def _application(node: ListNode, scope: _Scope, symbols: dict, kind: str) -> tuple:
    """A (name term ...) application of a predicate or function: the symbol
    and the resolved terms."""
    name = _require_token(node[0], f"{kind} name")
    sym = symbols.get(name)
    if sym is None:
        raise ParseError(node.at(0), f"unknown {kind} {name}")
    args = scope.terms(node)
    if sym.arity != len(args):
        raise ParseError(node.at(0), f"{kind} {sym.name} expects {sym.arity} arguments, got {len(args)}")
    return sym, args


def _parse_atom(node: ListNode, scope: _Scope) -> Atom:
    if not node:
        raise ParseError(node.span, "expected an atom")
    if _head_text(node) == EQUALITY_NAME:
        args = scope.terms(node)
        if len(args) != 2:
            raise ParseError(node.at(0), "equality takes exactly 2 arguments")
        return Atom(EQUALITY, args)
    return Atom(*_application(node, scope, scope.predicates, "predicate"))


def _parse_function_term(node: ListNode, scope: _Scope) -> FunctionTerm:
    if not node:
        raise ParseError(node.span, "expected a function term")
    return FunctionTerm(*_application(node, scope, scope.functions, "function"))


def _parse_expr(parent: ListNode, i: int, scope: _Scope) -> Expr:
    """The expression parent[i]."""
    node = parent[i]
    if not isinstance(node, ListNode):
        if _is_number(node):
            return Constant(_number(parent, i))
        raise ParseError(parent.at(i), f"expected a number or function term, got {node!r}")
    if not node:
        raise ParseError(node.span, "empty expression")
    head = _require_token(node[0], "expression head")
    if head in ("+", "*"):
        if len(node) < 3:
            raise ParseError(node.at(0), f"operator {head} needs at least 2 operands")
        expr = _parse_expr(node, 1, scope)
        for j in range(2, len(node)):
            expr = BinaryExpr(head, expr, _parse_expr(node, j, scope))
        return expr
    if head == "-":
        if len(node) == 2:  # unary minus
            return BinaryExpr("-", Constant(0.0), _parse_expr(node, 1, scope))
        if len(node) != 3:
            raise ParseError(node.at(0), "operator - takes 1 or 2 operands")
        return BinaryExpr("-", _parse_expr(node, 1, scope), _parse_expr(node, 2, scope))
    if head == "/":
        if len(node) != 3:
            raise ParseError(node.at(0), "operator / takes exactly 2 operands")
        return BinaryExpr("/", _parse_expr(node, 1, scope), _parse_expr(node, 2, scope))
    return _parse_function_term(node, scope)


def _is_constraint(node: ListNode) -> bool:
    """A numeric comparison. (= a b) over two bare non-numeric names is object
    equality instead; any list or number operand makes it a comparison."""
    head = _head_text(node)
    return head in _COMPARISONS and not (
        head == EQUALITY_NAME and len(node) == 3
        and all(not isinstance(t, ListNode) and not _is_number(t) for t in node[1:]))


def _parse_condition(parent: ListNode, i: int, scope: _Scope, literals: list, constraints: list) -> None:
    """Adds the literals and constraints of the condition parent[i]."""
    node = parent[i]
    if not isinstance(node, ListNode) or not node:
        raise ParseError(parent.at(i), "expected a condition")
    head = _require_token(node[0], "condition head")
    if head == "and":
        for j in range(1, len(node)):
            _parse_condition(node, j, scope, literals, constraints)
        return
    if head == "not":
        if len(node) != 2 or not isinstance(node[1], ListNode):
            raise ParseError(node.at(0), "'not' takes a single atom")
        if _is_constraint(node[1]):
            raise ParseError(node[1].at(0), "negated numeric constraints are not supported")
        literals.append(Literal(_parse_atom(node[1], scope), positive=False))
        return
    if _is_constraint(node):
        if len(node) != 3:
            raise ParseError(node.at(0), f"comparison {head} takes exactly 2 operands")
        constraints.append(NumericConstraint(_parse_expr(node, 1, scope), head,
                                             _parse_expr(node, 2, scope)))
        return
    literals.append(Literal(_parse_atom(node, scope), positive=True))


def _parse_effects(parent: ListNode, i: int, scope: _Scope, literals: list, numeric: list) -> None:
    """Adds the literal and numeric effects of the effect parent[i]."""
    node = parent[i]
    if not isinstance(node, ListNode) or not node:
        raise ParseError(parent.at(i), "expected an effect")
    head = _require_token(node[0], "effect head")
    if head == "and":
        for j in range(1, len(node)):
            _parse_effects(node, j, scope, literals, numeric)
        return
    if head in _EFFECT_HEADS:
        if len(node) != 3 or not isinstance(node[1], ListNode):
            raise ParseError(node.at(0), f"{head} takes a function term and an expression")
        target = _parse_function_term(node[1], scope)
        numeric.append(NumericEffect(target, _EFFECT_HEADS[head], _parse_expr(node, 2, scope)))
        return
    positive = head != "not"
    if not positive and (len(node) != 2 or not isinstance(node[1], ListNode)):
        raise ParseError(node.at(0), "'not' takes a single atom")
    atom = _parse_atom(node if positive else node[1], scope)
    if atom.predicate.name == EQUALITY_NAME:
        raise ParseError(node.at(0), "built-in equality cannot appear in effects")
    literals.append(Literal(atom, positive))


def _parse_action(section: ListNode, types: dict, predicates: dict, functions: dict,
                  constants: dict) -> ActionSchema:
    if len(section) < 2:
        raise ParseError(section.span, "action needs a name")
    name = _require_token(section[1], "action name")
    fields: dict[str, int] = {}  # keyword -> index of its value in `section`
    for i in range(2, len(section), 2):
        key = _require_token(section[i], "action keyword")
        if key not in (":parameters", ":precondition", ":effect"):
            raise ParseError(section.at(i), f"unsupported action keyword {key}")
        if i + 1 >= len(section):
            raise ParseError(section.at(i), f"missing value for {key}")
        if key in fields:
            raise ParseError(section.at(i), f"duplicate {key}")
        fields[key] = i + 1

    params_node = section[fields[":parameters"]] if ":parameters" in fields else None
    if not isinstance(params_node, ListNode):
        raise ParseError(section.at(1), "action requires a :parameters list")
    params: list[Variable] = []
    pre_literals: list[Literal] = []  # each typed parameter's type literal first
    variables: dict[str, Variable] = {}
    for i, type_name in _parse_typed_names(params_node, 0, "parameter"):
        var_name = params_node[i]
        if not var_name.startswith("?"):
            raise ParseError(params_node.at(i), "parameters must be variables starting with '?'")
        if var_name in variables:
            raise ParseError(params_node.at(i), f"duplicate parameter {var_name}")
        _require_type(types, type_name, params_node, i)
        var = Variable(var_name)
        variables[var_name] = var
        params.append(var)
        if type_name != ROOT_TYPE:
            pre_literals.append(Literal(Atom(predicates[type_name], (var,)), positive=True))

    scope = _Scope(predicates, functions, constants, variables)
    pre_constraints: list[NumericConstraint] = []
    eff_literals: list[Literal] = []
    eff_numeric: list[NumericEffect] = []
    # an empty list () means an empty precondition or effect
    pre, eff = fields.get(":precondition"), fields.get(":effect")
    if pre is not None and not (isinstance(section[pre], ListNode) and not section[pre]):
        _parse_condition(section, pre, scope, pre_literals, pre_constraints)
    if eff is not None and not (isinstance(section[eff], ListNode) and not section[eff]):
        _parse_effects(section, eff, scope, eff_literals, eff_numeric)

    # the checks above cover ActionSchema's own (repeated and loose variables)
    return ActionSchema(
        name=name,
        params=tuple(params),
        pre_literals=tuple(pre_literals),
        pre_constraints=tuple(pre_constraints),
        eff_literals=tuple(eff_literals),
        eff_numeric=tuple(eff_numeric),
    )


def parse_problem(text: str, domain: Domain, filename: str = "<problem>") -> Task:
    form, problem_name = _define(text, filename, "problem")
    objects = {o.name: o for o in domain.constants}
    object_types: dict[Object, str] = dict(domain.constant_types)
    init_atoms: set[Atom] = set()
    init_fluents: dict[FunctionTerm, float] = {}
    goal_literals: list[Literal] = []
    goal_constraints: list[NumericConstraint] = []
    metric: Optional[tuple[str, Expr]] = None
    domain_named = False

    sections: dict[str, ListNode] = {}
    for k in range(2, len(form)):
        section = form[k]
        head = _head_text(section)
        if head == ":domain":
            if len(section) != 2:
                raise ParseError(section.span, "expected (:domain NAME)")
            name = _require_token(section[1], "domain name")
            if name != domain.name:
                raise ParseError(section.at(1), f"problem requires domain {name}, parsed domain is {domain.name}")
            domain_named = True
        elif head == ":objects":
            _parse_object_decls(section, domain.types, objects, object_types)
        elif head in (":init", ":goal", ":metric"):
            if head in sections:
                raise ParseError(section.span, f"duplicate {head} section")
            sections[head] = section  # parsed below, once objects are known
        elif head is None:
            raise ParseError(form.at(k), "expected a problem section")
        else:
            raise ParseError(section.span, f"unsupported problem section {head}")
    if not domain_named:
        raise ParseError(form.span, "problem is missing a (:domain ...) section")

    scope = _Scope({p.name: p for p in domain.predicates}, {f.name: f for f in domain.functions}, objects)

    if ":init" in sections:
        _parse_init(sections[":init"], scope, init_atoms, init_fluents)

    # typed objects contribute their type-closure atoms
    for obj, type_name in object_types.items():
        for t in domain.type_closure(type_name):
            init_atoms.add(Atom(scope.predicates[t], (obj,)))

    if ":goal" in sections:
        goal_section = sections[":goal"]
        if len(goal_section) != 2:
            raise ParseError(goal_section.span, "goal takes a single condition")
        _parse_condition(goal_section, 1, scope, goal_literals, goal_constraints)

    if ":metric" in sections:
        m = sections[":metric"]
        if len(m) != 3:
            raise ParseError(m.span, "metric takes a direction and an expression")
        direction = _require_token(m[1], "metric direction")
        if direction not in ("minimize", "maximize"):
            raise ParseError(m.at(1), f"unknown metric direction {direction}")
        metric = (direction, _parse_metric_expr(m, 2, scope))

    return Task(
        domain_name=domain.name,
        problem_name=problem_name,
        predicates=domain.predicates,
        functions=domain.functions,
        schemas=domain.schemas,
        objects=tuple(objects.values()),
        init=State(init_atoms, init_fluents),  # Task splits it
        goal_literals=tuple(goal_literals),
        goal_constraints=tuple(goal_constraints),
        metric=metric,
    )


def _parse_init(section: ListNode, scope: _Scope, atoms: set, fluents: dict) -> None:
    """Adds the atoms and fluent values of the (:init ...) section."""
    predicates, functions, objects = scope.predicates, scope.functions, scope.objects
    # looked up by their interning key, (name, arguments), once the arity is
    # checked: a hit skips the constructor's call, and every entry hits while
    # another parse of the same problem is alive
    find_atom, find_term = Atom.find, FunctionTerm.find
    for i in range(1, len(section)):
        entry = section[i]
        if not isinstance(entry, ListNode) or not entry:
            raise ParseError(section.at(i), "expected an init entry")
        # a ground atom or fluent value in one step; on any miss (a name not
        # found, an arity that does not match, a form among the names, a value
        # that is no numeral, overflows or repeats) the routines below read
        # the entry, and report its error if it has one
        head = entry[0]
        sym = predicates.get(head)
        if sym is not None and sym.arity == len(entry) - 1:
            args = tuple(map(objects.get, entry[1:]))
            if None not in args:
                atoms.add(find_atom((head, args)) or Atom(sym, args))
                continue
        elif head == EQUALITY_NAME and len(entry) == 3:
            node, value = entry[1], entry[2]
            sym = functions.get(node[0]) if isinstance(node, ListNode) and node else None
            if (sym is not None and sym.arity == len(node) - 1
                    and isinstance(value, str) and _is_number(value)):
                args = tuple(map(objects.get, node[1:]))
                number = float(value)
                if None not in args and not math.isinf(number):
                    term = find_term((sym.name, args)) or FunctionTerm(sym, args)
                    if term not in fluents:
                        fluents[term] = number
                        continue
        head = _require_token(head, "init entry head")
        if head == EQUALITY_NAME and len(entry) == 3 and isinstance(entry[1], ListNode):
            term = _parse_function_term(entry[1], scope)
            if not _is_number(_require_token(entry[2], "fluent value")):
                raise ParseError(entry.at(2), "initial fluent values must be numeric constants")
            if term in fluents:
                raise ParseError(entry.at(0), f"duplicate initial value for {term!r}")
            fluents[term] = _number(entry, 2)
        else:
            atom = _parse_atom(entry, scope)
            if atom.predicate.name == EQUALITY_NAME:
                raise ParseError(entry.at(0), "built-in equality cannot be asserted in :init")
            atoms.add(atom)


def _parse_metric_expr(parent: ListNode, i: int, scope: _Scope) -> Expr:
    # total-time is accepted as a conventional zero-cost placeholder
    if _head_text(parent[i]) == "total-time" and len(parent[i]) == 1:
        return Constant(0.0)
    return _parse_expr(parent, i, scope)


def parse_task(domain_text: str, problem_text: str,
               domain_file: str = "<domain>", problem_file: str = "<problem>") -> Task:
    return parse_problem(problem_text, parse_domain(domain_text, domain_file), problem_file)


def load_task(domain_path, problem_path) -> Task:
    with open(domain_path) as fh:
        domain_text = fh.read()
    with open(problem_path) as fh:
        problem_text = fh.read()
    return parse_task(domain_text, problem_text, str(domain_path), str(problem_path))


# --- writing; emits the desugared form (no :typing, explicit type atoms) ---


_EFFECT_WORDS = {INCREASE: "increase", DECREASE: "decrease", ASSIGN: "assign",
                 SCALE_UP: "scale-up", SCALE_DOWN: "scale-down"}


def _write_effect(e: NumericEffect) -> str:
    return f"({_EFFECT_WORDS[e.op]} {e.target!r} {e.expr!r})"


def write_domain(task: Task) -> str:
    # the whole object universe is emitted as domain constants so that
    # schema-referenced objects resolve and the object order survives
    lines = [f"(define (domain {task.domain_name})"]
    lines.append("  (:requirements :strips :negative-preconditions :equality :numeric-fluents)")
    if task.objects:
        lines.append("  (:constants " + " ".join(o.name for o in task.objects) + ")")
    for keyword, symbols in ((":predicates", task.predicates), (":functions", task.functions)):
        if symbols:
            decls = " ".join("(" + " ".join([s.name] + [f"?x{i}" for i in range(s.arity)]) + ")"
                             for s in symbols)
            lines.append(f"  ({keyword} {decls})")
    for schema in task.schemas:
        lines.append(f"  (:action {schema.name}")
        lines.append("    :parameters (" + " ".join(v.name for v in schema.params) + ")")
        pres = [repr(e) for e in schema.pre_literals + schema.pre_constraints]
        lines.append("    :precondition (and " + " ".join(pres) + ")" if pres else "    :precondition ()")
        effs = [repr(l) for l in schema.eff_literals]
        effs += [_write_effect(e) for e in schema.eff_numeric]
        lines.append("    :effect (and " + " ".join(effs) + ")" if effs else "    :effect ()")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def write_problem(task: Task) -> str:
    """Problem text of the task, the static part of its initial state
    included; a non-finite initial fluent has no PDDL number and raises
    ValueError."""
    fluents = task.init.fluents
    for term, value in fluents.items():
        if not math.isfinite(value):
            raise ValueError(f"initial fluent {term!r} = {value} is not a finite number")
    lines = [f"(define (problem {task.problem_name})", f"  (:domain {task.domain_name})"]
    init_entries = sorted(repr(a) for a in task.init.atoms)
    init_entries += sorted(f"(= {t!r} {format_number(v)})" for t, v in fluents.items())
    lines.append("  (:init " + " ".join(init_entries) + ")")
    goals = [repr(e) for e in task.goal_literals + task.goal_constraints]
    lines.append("  (:goal (and " + " ".join(goals) + "))" if goals else "  (:goal (and))")
    if task.metric is not None:
        lines.append(f"  (:metric {task.metric[0]} {task.metric[1]!r})")
    lines.append(")")
    return "\n".join(lines) + "\n"

"""Parser and writer for the numeric PDDL fragment.

Supported requirements: :strips, :typing, :negative-preconditions, :equality,
:numeric-fluents. Identifiers are case-insensitive and normalized to lower
case. Types are compiled away at parse time: each declared type becomes a
unary predicate, typed parameters add a positive precondition literal, and
typed objects contribute initial atoms for the type and all its ancestors.
Object equality (= over two bare names) is mapped to the built-in "="
predicate. The :metric section is parsed and recorded but ignored by search.

The text is split into tokens by one regular expression: parentheses, words
(runs of anything but whitespace, parentheses and ';'), ';' comments to the
end of the line, and line ends. A column counts characters, so a tab or a \\r
is one column. Each construct has one routine: the (define (WHAT NAME) ...)
header, (name ?x - t ...) declarations of predicates and functions, and
(name term ...) applications of both.

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

_NUMBER_RE = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

_TOKEN_RE = re.compile(r"([()]|[^ \t\r\n();]+)|(\n)|;[^\n]*")

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

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class TokenNode(NamedTuple):  # one per token, so a plain tuple: cheap to build
    text: str
    span: SourceSpan


class ListNode(list):
    __slots__ = ("span",)

    def __init__(self, items, span):
        super().__init__(items)
        self.span = span


Node = Union[TokenNode, ListNode]


def tokenize(text: str, filename: str) -> list[TokenNode]:
    tokens: list[TokenNode] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 1:
            col = m.start() - line_start + 1
            tokens.append(TokenNode(m.group(1).lower(), SourceSpan(filename, line, col)))
        elif m.lastindex == 2:
            line += 1
            line_start = m.end()
    return tokens


def read_forms(text: str, filename: str) -> list[Node]:
    tokens = tokenize(text, filename)
    forms: list[Node] = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_form(tokens, pos)
        forms.append(form)
    return forms


def _read_form(tokens: list[TokenNode], pos: int) -> tuple[Node, int]:
    # module-level rather than a closure, which would keep the token list in a
    # reference cycle after the parse
    tok = tokens[pos]
    if tok.text == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError(tok.span, "unbalanced parenthesis: missing ')'")
            if tokens[pos].text == ")":
                return ListNode(items, tok.span), pos + 1
            item, pos = _read_form(tokens, pos)
            items.append(item)
    if tok.text == ")":
        raise ParseError(tok.span, "unexpected ')'")
    return tok, pos + 1


def _define(text: str, filename: str, what: str) -> tuple[ListNode, str]:
    """The file's single (define (WHAT NAME) ...) form and its NAME."""
    forms = read_forms(text, filename)
    if not forms:
        raise ParseError(SourceSpan(filename, 1, 1), f"empty {what} file")
    if len(forms) > 1:
        raise ParseError(forms[1].span, f"expected a single {what} definition")
    form = forms[0]
    if not isinstance(form, ListNode):
        raise ParseError(form.span, f"expected a {what} definition list")
    if _head_text(form) != "define":
        raise ParseError(form.span, f"expected (define ({what} ...) ...)")
    if len(form) < 2 or _head_text(form[1]) != what or len(form[1]) != 2:
        raise ParseError(form.span, f"expected ({what} NAME) after define")
    return form, _require_token(form[1][1], f"{what} name").text


def _head_text(node: Node) -> Optional[str]:
    if isinstance(node, ListNode) and node and isinstance(node[0], TokenNode):
        return node[0].text
    return None


def _require_token(node: Node, what: str) -> TokenNode:
    if not isinstance(node, TokenNode):
        raise ParseError(node.span, f"expected {what}")
    return node


def _is_number(text: str) -> bool:
    return bool(_NUMBER_RE.match(text))


def _number(tok: TokenNode) -> float:
    """The numeral's value; one that overflows to +-inf is out of range."""
    value = float(tok.text)
    if math.isinf(value):
        raise ParseError(tok.span, "number out of range")
    return value


def _parse_typed_names(items: list[Node], what: str) -> list[tuple[TokenNode, str]]:
    """Parse a PDDL typed list of names: a b - t c d  ->  [(a,t),(b,t),(c,object),...]."""
    out: list[tuple[TokenNode, str]] = []
    pending: list[TokenNode] = []
    i = 0
    while i < len(items):
        tok = _require_token(items[i], f"{what} name")
        if tok.text == "-":
            if not pending:
                raise ParseError(tok.span, "dangling '-' in typed list")
            if i + 1 >= len(items):
                raise ParseError(tok.span, "missing type name after '-'")
            type_tok = _require_token(items[i + 1], "type name")
            out.extend((p, type_tok.text) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(tok)
            i += 1
    out.extend((p, ROOT_TYPE) for p in pending)
    return out


def _require_type(types: dict, type_name: str, tok: TokenNode) -> None:
    if type_name != ROOT_TYPE and type_name not in types:
        raise ParseError(tok.span, f"unknown type {type_name}")


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


def _declare_predicate(predicates: dict, name: str, arity: int, span: SourceSpan) -> None:
    if name == EQUALITY_NAME:
        raise ParseError(span, "predicate name '=' is reserved for built-in equality")
    sym = predicates.setdefault(name, PredicateSymbol(name, arity))
    if sym.arity != arity:
        raise ParseError(span, f"predicate {name} redeclared with arity {arity}, was {sym.arity}")


def parse_domain(text: str, filename: str = "<domain>") -> Domain:
    form, name = _define(text, filename, "domain")
    types: dict[str, Optional[str]] = {}
    predicates: dict[str, PredicateSymbol] = {}
    functions: dict[str, FunctionSymbol] = {}
    constants: dict[str, Object] = {}
    constant_types: dict[Object, str] = {}
    schemas: dict[str, ActionSchema] = {}

    for section in form[2:]:
        head = _head_text(section)
        if head == ":requirements":
            for req in section[1:]:
                tok = _require_token(req, "requirement")
                if tok.text not in SUPPORTED_REQUIREMENTS:
                    raise ParseError(tok.span, f"unsupported requirement {tok.text}")
        elif head == ":types":
            for name_tok, parent in _parse_typed_names(section[1:], "type"):
                # the hierarchy is acyclic before this entry, so a cycle
                # through it would pass through its own name
                if name_tok.text in _type_closure(types, parent):
                    raise ParseError(name_tok.span, f"type {name_tok.text} is its own ancestor")
                types[name_tok.text] = parent if parent != ROOT_TYPE else None
                if parent != ROOT_TYPE and parent not in types:
                    types[parent] = None
            # every declared type doubles as a unary predicate
            for type_name in types:
                _declare_predicate(predicates, type_name, 1, section.span)
        elif head == ":constants":
            _parse_object_decls(section, types, constants, constant_types)
        elif head == ":predicates":
            for decl in section[1:]:
                name_tok, arity = _declaration(decl, "predicate", types)
                _declare_predicate(predicates, name_tok.text, arity, name_tok.span)
        elif head == ":functions":
            _parse_function_decls(section, types, functions)
        elif head == ":action":
            schema = _parse_action(section, types, predicates, functions, constants)
            if schema.name in schemas:
                raise ParseError(section.span, f"duplicate action name {schema.name}")
            schemas[schema.name] = schema
        elif head is None:
            raise ParseError(section.span, "expected a domain section")
        else:
            raise ParseError(section.span, f"unsupported domain section {head}")

    return Domain(name, tuple(predicates.values()), tuple(functions.values()),
                  tuple(schemas.values()), tuple(constants.values()), constant_types, types)


def _parse_object_decls(section: ListNode, types: dict, objects: dict, object_types: dict) -> None:
    """Adds the section's objects to `objects` (name -> Object) and the typed
    ones to `object_types`."""
    for name_tok, type_name in _parse_typed_names(section[1:], "object"):
        if name_tok.text.startswith("?"):
            raise ParseError(name_tok.span, "object names must not start with '?'")
        _require_type(types, type_name, name_tok)
        if name_tok.text in objects:
            raise ParseError(name_tok.span, f"duplicate object {name_tok.text}")
        obj = objects[name_tok.text] = Object(name_tok.text)
        if type_name != ROOT_TYPE:
            object_types[obj] = type_name


def _declaration(decl: Node, kind: str, types: dict) -> tuple[TokenNode, int]:
    """A (name ?x - t ...) declaration of a predicate or function: its name
    token and its arity."""
    if not isinstance(decl, ListNode) or not decl:
        raise ParseError(decl.span, f"expected a {kind} declaration")
    name_tok = _require_token(decl[0], f"{kind} name")
    args = _parse_typed_names(decl[1:], "parameter")
    for arg_tok, type_name in args:
        if not arg_tok.text.startswith("?"):
            raise ParseError(arg_tok.span, f"{kind} parameters must be variables")
        _require_type(types, type_name, arg_tok)
    return name_tok, len(args)


def _parse_function_decls(section: ListNode, types: dict, functions: dict) -> None:
    i = 1
    while i < len(section):
        decl = section[i]
        if isinstance(decl, TokenNode) and decl.text == "-":
            # trailing "- number" group type; accept and skip
            if i + 1 >= len(section):
                raise ParseError(decl.span, "missing type after '-'")
            type_tok = _require_token(section[i + 1], "type name")
            if type_tok.text != "number":
                raise ParseError(type_tok.span, "functions must map to type 'number'")
            i += 2
            continue
        name_tok, arity = _declaration(decl, "function", types)
        sym = functions.setdefault(name_tok.text, FunctionSymbol(name_tok.text, arity))
        if sym.arity != arity:
            raise ParseError(name_tok.span, f"function {sym.name} redeclared with different arity")
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

    def term(self, tok: TokenNode) -> Term:
        if tok.text.startswith("?"):
            if self.variables is None:
                raise ParseError(tok.span, f"variable {tok.text} not allowed here; element must be ground")
            var = self.variables.get(tok.text)
            if var is None:
                raise ParseError(tok.span, f"variable {tok.text} is not a parameter")
            return var
        obj = self.objects.get(tok.text)
        if obj is None:
            raise ParseError(tok.span, f"unknown object {tok.text}")
        return obj

    def terms(self, nodes: list[Node]) -> tuple[Term, ...]:
        return tuple(self.term(_require_token(t, "term")) for t in nodes)


def _application(node: ListNode, scope: _Scope, symbols: dict, kind: str) -> tuple:
    """A (name term ...) application of a predicate or function: the symbol
    and the resolved terms."""
    name_tok = _require_token(node[0], f"{kind} name")
    sym = symbols.get(name_tok.text)
    if sym is None:
        raise ParseError(name_tok.span, f"unknown {kind} {name_tok.text}")
    args = scope.terms(node[1:])
    if sym.arity != len(args):
        raise ParseError(name_tok.span, f"{kind} {sym.name} expects {sym.arity} arguments, got {len(args)}")
    return sym, args


def _parse_atom(node: ListNode, scope: _Scope) -> Atom:
    if not node:
        raise ParseError(node.span, "expected an atom")
    if _head_text(node) == EQUALITY_NAME:
        args = scope.terms(node[1:])
        if len(args) != 2:
            raise ParseError(node[0].span, "equality takes exactly 2 arguments")
        return Atom(EQUALITY, args)
    return Atom(*_application(node, scope, scope.predicates, "predicate"))


def _parse_function_term(node: ListNode, scope: _Scope) -> FunctionTerm:
    if not node:
        raise ParseError(node.span, "expected a function term")
    return FunctionTerm(*_application(node, scope, scope.functions, "function"))


def _parse_expr(node: Node, scope: _Scope) -> Expr:
    if isinstance(node, TokenNode):
        if _is_number(node.text):
            return Constant(_number(node))
        raise ParseError(node.span, f"expected a number or function term, got {node.text!r}")
    if not node:
        raise ParseError(node.span, "empty expression")
    head = _require_token(node[0], "expression head")
    if head.text in ("+", "*"):
        if len(node) < 3:
            raise ParseError(head.span, f"operator {head.text} needs at least 2 operands")
        expr = _parse_expr(node[1], scope)
        for operand in node[2:]:
            expr = BinaryExpr(head.text, expr, _parse_expr(operand, scope))
        return expr
    if head.text == "-":
        if len(node) == 2:  # unary minus
            return BinaryExpr("-", Constant(0.0), _parse_expr(node[1], scope))
        if len(node) != 3:
            raise ParseError(head.span, "operator - takes 1 or 2 operands")
        return BinaryExpr("-", _parse_expr(node[1], scope), _parse_expr(node[2], scope))
    if head.text == "/":
        if len(node) != 3:
            raise ParseError(head.span, "operator / takes exactly 2 operands")
        return BinaryExpr("/", _parse_expr(node[1], scope), _parse_expr(node[2], scope))
    return _parse_function_term(node, scope)


def _is_constraint(node: ListNode) -> bool:
    """A numeric comparison. (= a b) over two bare non-numeric names is object
    equality instead; any list or number operand makes it a comparison."""
    head = _head_text(node)
    return head in _COMPARISONS and not (
        head == EQUALITY_NAME and len(node) == 3
        and all(isinstance(t, TokenNode) and not _is_number(t.text) for t in node[1:]))


def _parse_condition(node: Node, scope: _Scope, literals: list, constraints: list) -> None:
    if not isinstance(node, ListNode) or not node:
        raise ParseError(node.span, "expected a condition")
    head = _require_token(node[0], "condition head")
    if head.text == "and":
        for sub in node[1:]:
            _parse_condition(sub, scope, literals, constraints)
        return
    if head.text == "not":
        if len(node) != 2 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, "'not' takes a single atom")
        if _is_constraint(node[1]):
            raise ParseError(node[1][0].span, "negated numeric constraints are not supported")
        literals.append(Literal(_parse_atom(node[1], scope), positive=False))
        return
    if _is_constraint(node):
        if len(node) != 3:
            raise ParseError(head.span, f"comparison {head.text} takes exactly 2 operands")
        constraints.append(NumericConstraint(_parse_expr(node[1], scope), head.text,
                                             _parse_expr(node[2], scope)))
        return
    literals.append(Literal(_parse_atom(node, scope), positive=True))


def _parse_effects(node: Node, scope: _Scope, literals: list, numeric: list) -> None:
    if not isinstance(node, ListNode) or not node:
        raise ParseError(node.span, "expected an effect")
    head = _require_token(node[0], "effect head")
    if head.text == "and":
        for sub in node[1:]:
            _parse_effects(sub, scope, literals, numeric)
        return
    if head.text in _EFFECT_HEADS:
        if len(node) != 3 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, f"{head.text} takes a function term and an expression")
        target = _parse_function_term(node[1], scope)
        numeric.append(NumericEffect(target, _EFFECT_HEADS[head.text], _parse_expr(node[2], scope)))
        return
    positive = head.text != "not"
    if not positive:
        if len(node) != 2 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, "'not' takes a single atom")
        node = node[1]
    atom = _parse_atom(node, scope)
    if atom.predicate.name == EQUALITY_NAME:
        raise ParseError(head.span, "built-in equality cannot appear in effects")
    literals.append(Literal(atom, positive))


def _parse_action(section: ListNode, types: dict, predicates: dict, functions: dict,
                  constants: dict) -> ActionSchema:
    if len(section) < 2:
        raise ParseError(section.span, "action needs a name")
    name_tok = _require_token(section[1], "action name")
    fields: dict[str, Node] = {}
    for i in range(2, len(section), 2):
        key = _require_token(section[i], "action keyword")
        if key.text not in (":parameters", ":precondition", ":effect"):
            raise ParseError(key.span, f"unsupported action keyword {key.text}")
        if i + 1 >= len(section):
            raise ParseError(key.span, f"missing value for {key.text}")
        if key.text in fields:
            raise ParseError(key.span, f"duplicate {key.text}")
        fields[key.text] = section[i + 1]

    params_node = fields.get(":parameters")
    if not isinstance(params_node, ListNode):
        raise ParseError(name_tok.span, "action requires a :parameters list")
    params: list[Variable] = []
    pre_literals: list[Literal] = []  # each typed parameter's type literal first
    variables: dict[str, Variable] = {}
    for var_tok, type_name in _parse_typed_names(params_node, "parameter"):
        if not var_tok.text.startswith("?"):
            raise ParseError(var_tok.span, "parameters must be variables starting with '?'")
        if var_tok.text in variables:
            raise ParseError(var_tok.span, f"duplicate parameter {var_tok.text}")
        _require_type(types, type_name, var_tok)
        var = Variable(var_tok.text)
        variables[var_tok.text] = var
        params.append(var)
        if type_name != ROOT_TYPE:
            pre_literals.append(Literal(Atom(predicates[type_name], (var,)), positive=True))

    scope = _Scope(predicates, functions, constants, variables)
    pre_constraints: list[NumericConstraint] = []
    eff_literals: list[Literal] = []
    eff_numeric: list[NumericEffect] = []
    # an empty list () means an empty precondition or effect
    pre, eff = fields.get(":precondition"), fields.get(":effect")
    if pre is not None and not (isinstance(pre, ListNode) and not pre):
        _parse_condition(pre, scope, pre_literals, pre_constraints)
    if eff is not None and not (isinstance(eff, ListNode) and not eff):
        _parse_effects(eff, scope, eff_literals, eff_numeric)

    # the checks above cover ActionSchema's own (repeated and loose variables)
    return ActionSchema(
        name=name_tok.text,
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
    for section in form[2:]:
        head = _head_text(section)
        if head == ":domain":
            if len(section) != 2:
                raise ParseError(section.span, "expected (:domain NAME)")
            name_tok = _require_token(section[1], "domain name")
            if name_tok.text != domain.name:
                raise ParseError(name_tok.span, f"problem requires domain {name_tok.text}, parsed domain is {domain.name}")
            domain_named = True
        elif head == ":objects":
            _parse_object_decls(section, domain.types, objects, object_types)
        elif head in (":init", ":goal", ":metric"):
            if head in sections:
                raise ParseError(section.span, f"duplicate {head} section")
            sections[head] = section  # parsed below, once objects are known
        elif head is None:
            raise ParseError(section.span, "expected a problem section")
        else:
            raise ParseError(section.span, f"unsupported problem section {head}")
    if not domain_named:
        raise ParseError(form.span, "problem is missing a (:domain ...) section")

    scope = _Scope({p.name: p for p in domain.predicates}, {f.name: f for f in domain.functions}, objects)

    if ":init" in sections:
        for entry in sections[":init"][1:]:
            if not isinstance(entry, ListNode) or not entry:
                raise ParseError(entry.span, "expected an init entry")
            head_tok = _require_token(entry[0], "init entry head")
            if head_tok.text == EQUALITY_NAME and len(entry) == 3 and isinstance(entry[1], ListNode):
                term = _parse_function_term(entry[1], scope)
                value_tok = _require_token(entry[2], "fluent value")
                if not _is_number(value_tok.text):
                    raise ParseError(value_tok.span, "initial fluent values must be numeric constants")
                if term in init_fluents:
                    raise ParseError(head_tok.span, f"duplicate initial value for {term!r}")
                init_fluents[term] = _number(value_tok)
            else:
                atom = _parse_atom(entry, scope)
                if atom.predicate.name == EQUALITY_NAME:
                    raise ParseError(head_tok.span, "built-in equality cannot be asserted in :init")
                init_atoms.add(atom)

    # typed objects contribute their type-closure atoms
    for obj, type_name in object_types.items():
        for t in domain.type_closure(type_name):
            init_atoms.add(Atom(scope.predicates[t], (obj,)))

    if ":goal" in sections:
        goal_section = sections[":goal"]
        if len(goal_section) != 2:
            raise ParseError(goal_section.span, "goal takes a single condition")
        _parse_condition(goal_section[1], scope, goal_literals, goal_constraints)

    if ":metric" in sections:
        m = sections[":metric"]
        if len(m) != 3:
            raise ParseError(m.span, "metric takes a direction and an expression")
        direction = _require_token(m[1], "metric direction").text
        if direction not in ("minimize", "maximize"):
            raise ParseError(m[1].span, f"unknown metric direction {direction}")
        metric = (direction, _parse_metric_expr(m[2], scope))

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


def _parse_metric_expr(node: Node, scope: _Scope) -> Expr:
    # total-time is accepted as a conventional zero-cost placeholder
    if isinstance(node, ListNode) and _head_text(node) == "total-time" and len(node) == 1:
        return Constant(0.0)
    return _parse_expr(node, scope)


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

"""Parser and writer for the numeric PDDL fragment.

Supported requirements: :strips, :typing, :negative-preconditions, :equality,
:numeric-fluents. Identifiers are case-insensitive and normalized to lower
case. Types are compiled away at parse time: each declared type becomes a
unary predicate, typed parameters add a positive precondition literal, and
typed objects contribute initial atoms for the type and all its ancestors.
Object equality (= over two bare names) is mapped to the built-in "="
predicate. The :metric section is parsed and recorded but ignored by search.

All errors carry a SourceSpan and format as file:line:col: message.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional, Union

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

_EFFECT_HEADS = {
    "increase": INCREASE,
    "decrease": DECREASE,
    "assign": ASSIGN,
    "scale-up": SCALE_UP,
    "scale-down": SCALE_DOWN,
}

_COMPARISONS = ("=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class SourceSpan:
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


@dataclass(frozen=True)
class TokenNode:
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
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(TokenNode(c, SourceSpan(filename, line, col)))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            word = text[start:i].lower()
            tokens.append(TokenNode(word, SourceSpan(filename, line, start_col)))
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


def _single_form(text: str, filename: str, what: str) -> ListNode:
    forms = read_forms(text, filename)
    if not forms:
        raise ParseError(SourceSpan(filename, 1, 1), f"empty {what} file")
    if len(forms) > 1:
        raise ParseError(forms[1].span, f"expected a single {what} definition")
    form = forms[0]
    if not isinstance(form, ListNode):
        raise ParseError(form.span, f"expected a {what} definition list")
    return form


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
        chain = []
        cur: Optional[str] = type_name
        while cur is not None and cur != ROOT_TYPE:
            chain.append(cur)
            cur = self.types.get(cur)
        return chain


class _DomainBuilder:
    def __init__(self, filename: str):
        self.filename = filename
        self.name = ""
        self.types: dict[str, Optional[str]] = {}
        self.predicates: dict[str, PredicateSymbol] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        self.constants: list[Object] = []
        self.constant_types: dict[Object, str] = {}
        self.schemas: list[ActionSchema] = []

    def declare_predicate(self, name: str, arity: int, span: SourceSpan) -> PredicateSymbol:
        if name == EQUALITY_NAME:
            raise ParseError(span, "predicate name '=' is reserved for built-in equality")
        existing = self.predicates.get(name)
        if existing is not None:
            if existing.arity != arity:
                raise ParseError(span, f"predicate {name} redeclared with arity {arity}, was {existing.arity}")
            return existing
        sym = PredicateSymbol(name, arity)
        self.predicates[name] = sym
        return sym

    def build(self) -> Domain:
        return Domain(
            name=self.name,
            predicates=tuple(self.predicates.values()),
            functions=tuple(self.functions.values()),
            schemas=tuple(self.schemas),
            constants=tuple(self.constants),
            constant_types=self.constant_types,
            types=self.types,
        )


def parse_domain(text: str, filename: str = "<domain>") -> Domain:
    form = _single_form(text, filename, "domain")
    if _head_text(form) != "define":
        raise ParseError(form.span, "expected (define (domain ...) ...)")
    if len(form) < 2 or _head_text(form[1]) != "domain" or len(form[1]) != 2:
        raise ParseError(form.span, "expected (domain NAME) after define")
    b = _DomainBuilder(filename)
    b.name = _require_token(form[1][1], "domain name").text

    for section in form[2:]:
        head = _head_text(section)
        if head == ":requirements":
            for req in section[1:]:
                tok = _require_token(req, "requirement")
                if tok.text not in SUPPORTED_REQUIREMENTS:
                    raise ParseError(tok.span, f"unsupported requirement {tok.text}")
        elif head == ":types":
            for name_tok, parent in _parse_typed_names(list(section[1:]), "type"):
                b.types[name_tok.text] = parent if parent != ROOT_TYPE else None
                if parent != ROOT_TYPE and parent not in b.types:
                    b.types[parent] = None
            # every declared type doubles as a unary predicate
            for type_name in b.types:
                b.declare_predicate(type_name, 1, section.span)
        elif head == ":constants":
            _parse_object_decls(section, b.types, b.constants, b.constant_types, b.filename)
        elif head == ":predicates":
            for decl in section[1:]:
                if not isinstance(decl, ListNode) or not decl:
                    raise ParseError(decl.span, "expected a predicate declaration")
                name_tok = _require_token(decl[0], "predicate name")
                args = _parse_typed_names(list(decl[1:]), "parameter")
                for arg_tok, _ in args:
                    if not arg_tok.text.startswith("?"):
                        raise ParseError(arg_tok.span, "predicate parameters must be variables")
                b.declare_predicate(name_tok.text, len(args), name_tok.span)
        elif head == ":functions":
            _parse_function_decls(section, b)
        elif head == ":action":
            schema = _parse_action(section, b)
            if any(s.name == schema.name for s in b.schemas):
                raise ParseError(section.span, f"duplicate action name {schema.name}")
            b.schemas.append(schema)
        elif head is None:
            raise ParseError(section.span, "expected a domain section")
        else:
            raise ParseError(section.span, f"unsupported domain section {head}")

    return b.build()


def _parse_object_decls(section: ListNode, types: dict, out_objects: list, out_types: dict, filename: str) -> None:
    for name_tok, type_name in _parse_typed_names(list(section[1:]), "object"):
        if name_tok.text.startswith("?"):
            raise ParseError(name_tok.span, "object names must not start with '?'")
        if type_name != ROOT_TYPE and type_name not in types:
            raise ParseError(name_tok.span, f"unknown type {type_name}")
        obj = Object(name_tok.text)
        if obj in out_types or any(o == obj for o in out_objects):
            raise ParseError(name_tok.span, f"duplicate object {name_tok.text}")
        out_objects.append(obj)
        if type_name != ROOT_TYPE:
            out_types[obj] = type_name


def _parse_function_decls(section: ListNode, b: _DomainBuilder) -> None:
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
        if not isinstance(decl, ListNode) or not decl:
            raise ParseError(decl.span, "expected a function declaration")
        name_tok = _require_token(decl[0], "function name")
        args = _parse_typed_names(list(decl[1:]), "parameter")
        for arg_tok, _ in args:
            if not arg_tok.text.startswith("?"):
                raise ParseError(arg_tok.span, "function parameters must be variables")
        name = name_tok.text
        existing = b.functions.get(name)
        if existing is not None and existing.arity != len(args):
            raise ParseError(name_tok.span, f"function {name} redeclared with different arity")
        b.functions.setdefault(name, FunctionSymbol(name, len(args)))
        i += 1


class _Scope:
    """Resolution context for terms inside one action or problem section."""

    def __init__(self, variables: dict[str, Variable], objects: dict[str, Object], allow_vars: bool):
        self.variables = variables
        self.objects = objects
        self.allow_vars = allow_vars

    def term(self, tok: TokenNode) -> Term:
        if tok.text.startswith("?"):
            if not self.allow_vars:
                raise ParseError(tok.span, f"variable {tok.text} not allowed here; element must be ground")
            var = self.variables.get(tok.text)
            if var is None:
                raise ParseError(tok.span, f"variable {tok.text} is not a parameter")
            return var
        obj = self.objects.get(tok.text)
        if obj is None:
            raise ParseError(tok.span, f"unknown object {tok.text}")
        return obj


def _parse_atom(node: ListNode, scope: _Scope, predicates: dict) -> Atom:
    if not node:
        raise ParseError(node.span, "expected an atom")
    name_tok = _require_token(node[0], "predicate name")
    args = tuple(scope.term(_require_token(t, "term")) for t in node[1:])
    if name_tok.text == EQUALITY_NAME:
        if len(args) != 2:
            raise ParseError(name_tok.span, "equality takes exactly 2 arguments")
        return Atom(EQUALITY, args)
    sym = predicates.get(name_tok.text)
    if sym is None:
        raise ParseError(name_tok.span, f"unknown predicate {name_tok.text}")
    if sym.arity != len(args):
        raise ParseError(
            name_tok.span,
            f"predicate {sym.name} expects {sym.arity} arguments, got {len(args)}",
        )
    return Atom(sym, args)


def _parse_function_term(node: ListNode, scope: _Scope, functions: dict) -> FunctionTerm:
    if not node:
        raise ParseError(node.span, "expected a function term")
    name_tok = _require_token(node[0], "function name")
    sym = functions.get(name_tok.text)
    if sym is None:
        raise ParseError(name_tok.span, f"unknown function {name_tok.text}")
    args = tuple(scope.term(_require_token(t, "term")) for t in node[1:])
    if sym.arity != len(args):
        raise ParseError(
            name_tok.span,
            f"function {sym.name} expects {sym.arity} arguments, got {len(args)}",
        )
    return FunctionTerm(sym, args)


def _parse_expr(node: Node, scope: _Scope, functions: dict) -> Expr:
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
        expr = _parse_expr(node[1], scope, functions)
        for operand in node[2:]:
            expr = BinaryExpr(head.text, expr, _parse_expr(operand, scope, functions))
        return expr
    if head.text == "-":
        if len(node) == 2:  # unary minus
            return BinaryExpr("-", Constant(0.0), _parse_expr(node[1], scope, functions))
        if len(node) != 3:
            raise ParseError(head.span, "operator - takes 1 or 2 operands")
        return BinaryExpr("-", _parse_expr(node[1], scope, functions), _parse_expr(node[2], scope, functions))
    if head.text == "/":
        if len(node) != 3:
            raise ParseError(head.span, "operator / takes exactly 2 operands")
        return BinaryExpr("/", _parse_expr(node[1], scope, functions), _parse_expr(node[2], scope, functions))
    return _parse_function_term(node, scope, functions)


def _is_object_equality(node: ListNode) -> bool:
    # (= a b) over two bare non-numeric names is object equality; any list or
    # number operand makes it a numeric comparison
    return (
        len(node) == 3
        and all(isinstance(t, TokenNode) for t in node[1:])
        and not any(_is_number(t.text) for t in node[1:])
    )


def _parse_condition(node: Node, scope: _Scope, predicates: dict, functions: dict,
                     literals: list, constraints: list) -> None:
    if not isinstance(node, ListNode) or not node:
        raise ParseError(node.span, "expected a condition")
    head = _require_token(node[0], "condition head")
    if head.text == "and":
        for sub in node[1:]:
            _parse_condition(sub, scope, predicates, functions, literals, constraints)
        return
    if head.text == "not":
        if len(node) != 2 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, "'not' takes a single atom")
        inner = node[1]
        inner_head = _head_text(inner)
        if inner_head in _COMPARISONS and not (inner_head == EQUALITY_NAME and _is_object_equality(inner)):
            raise ParseError(inner[0].span, "negated numeric constraints are not supported")
        literals.append(Literal(_parse_atom(inner, scope, predicates), positive=False))
        return
    if head.text in _COMPARISONS and not (head.text == EQUALITY_NAME and _is_object_equality(node)):
        if len(node) != 3:
            raise ParseError(head.span, f"comparison {head.text} takes exactly 2 operands")
        constraints.append(
            NumericConstraint(
                _parse_expr(node[1], scope, functions),
                head.text,
                _parse_expr(node[2], scope, functions),
            )
        )
        return
    literals.append(Literal(_parse_atom(node, scope, predicates), positive=True))


def _parse_effects(node: Node, scope: _Scope, predicates: dict, functions: dict,
                   literals: list, numeric: list) -> None:
    if not isinstance(node, ListNode) or not node:
        raise ParseError(node.span, "expected an effect")
    head = _require_token(node[0], "effect head")
    if head.text == "and":
        for sub in node[1:]:
            _parse_effects(sub, scope, predicates, functions, literals, numeric)
        return
    if head.text == "not":
        if len(node) != 2 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, "'not' takes a single atom")
        atom = _parse_atom(node[1], scope, predicates)
        if atom.predicate.name == EQUALITY_NAME:
            raise ParseError(head.span, "built-in equality cannot appear in effects")
        literals.append(Literal(atom, positive=False))
        return
    if head.text in _EFFECT_HEADS:
        if len(node) != 3 or not isinstance(node[1], ListNode):
            raise ParseError(head.span, f"{head.text} takes a function term and an expression")
        target = _parse_function_term(node[1], scope, functions)
        numeric.append(NumericEffect(target, _EFFECT_HEADS[head.text], _parse_expr(node[2], scope, functions)))
        return
    atom = _parse_atom(node, scope, predicates)
    if atom.predicate.name == EQUALITY_NAME:
        raise ParseError(head.span, "built-in equality cannot appear in effects")
    literals.append(Literal(atom, positive=True))


def _parse_action(section: ListNode, b: _DomainBuilder) -> ActionSchema:
    if len(section) < 2:
        raise ParseError(section.span, "action needs a name")
    name_tok = _require_token(section[1], "action name")
    fields: dict[str, Node] = {}
    i = 2
    while i < len(section):
        key = _require_token(section[i], "action keyword")
        if key.text not in (":parameters", ":precondition", ":effect"):
            raise ParseError(key.span, f"unsupported action keyword {key.text}")
        if i + 1 >= len(section):
            raise ParseError(key.span, f"missing value for {key.text}")
        fields[key.text] = section[i + 1]
        i += 2

    params_node = fields.get(":parameters")
    if params_node is None or not isinstance(params_node, ListNode):
        raise ParseError(name_tok.span, "action requires a :parameters list")
    params: list[Variable] = []
    param_types: list[Optional[str]] = []
    variables: dict[str, Variable] = {}
    for var_tok, type_name in _parse_typed_names(list(params_node), "parameter"):
        if not var_tok.text.startswith("?"):
            raise ParseError(var_tok.span, "parameters must be variables starting with '?'")
        if var_tok.text in variables:
            raise ParseError(var_tok.span, f"duplicate parameter {var_tok.text}")
        if type_name != ROOT_TYPE and type_name not in b.types:
            raise ParseError(var_tok.span, f"unknown type {type_name}")
        var = Variable(var_tok.text)
        variables[var_tok.text] = var
        params.append(var)
        param_types.append(type_name if type_name != ROOT_TYPE else None)

    objects = {o.name: o for o in b.constants}
    scope = _Scope(variables, objects, allow_vars=True)

    pre_literals: list[Literal] = []
    pre_constraints: list[NumericConstraint] = []
    for var, type_name in zip(params, param_types):
        if type_name is not None:
            pre_literals.append(Literal(Atom(b.predicates[type_name], (var,)), positive=True))
    if ":precondition" in fields:
        node = fields[":precondition"]
        if not (isinstance(node, ListNode) and not node):  # () means an empty precondition
            _parse_condition(node, scope, b.predicates, b.functions, pre_literals, pre_constraints)

    eff_literals: list[Literal] = []
    eff_numeric: list[NumericEffect] = []
    if ":effect" in fields:
        node = fields[":effect"]
        if not (isinstance(node, ListNode) and not node):
            _parse_effects(node, scope, b.predicates, b.functions, eff_literals, eff_numeric)

    try:
        return ActionSchema(
            name=name_tok.text,
            params=tuple(params),
            pre_literals=tuple(pre_literals),
            pre_constraints=tuple(pre_constraints),
            eff_literals=tuple(eff_literals),
            eff_numeric=tuple(eff_numeric),
            param_types=tuple(param_types),
        )
    except ValueError as exc:
        raise ParseError(name_tok.span, str(exc)) from exc


def parse_problem(text: str, domain: Domain, filename: str = "<problem>") -> Task:
    form = _single_form(text, filename, "problem")
    if _head_text(form) != "define":
        raise ParseError(form.span, "expected (define (problem ...) ...)")
    if len(form) < 2 or _head_text(form[1]) != "problem" or len(form[1]) != 2:
        raise ParseError(form.span, "expected (problem NAME) after define")
    problem_name = _require_token(form[1][1], "problem name").text

    objects: list[Object] = list(domain.constants)
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
            _parse_object_decls(section, domain.types, objects, object_types, filename)
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

    object_map = {o.name: o for o in objects}
    scope = _Scope({}, object_map, allow_vars=False)
    predicates = {p.name: p for p in domain.predicates}
    functions = {f.name: f for f in domain.functions}

    if ":init" in sections:
        for entry in sections[":init"][1:]:
            if not isinstance(entry, ListNode) or not entry:
                raise ParseError(entry.span, "expected an init entry")
            head_tok = _require_token(entry[0], "init entry head")
            if head_tok.text == EQUALITY_NAME and len(entry) == 3 and isinstance(entry[1], ListNode):
                term = _parse_function_term(entry[1], scope, functions)
                value_tok = _require_token(entry[2], "fluent value")
                if not _is_number(value_tok.text):
                    raise ParseError(value_tok.span, "initial fluent values must be numeric constants")
                if term in init_fluents:
                    raise ParseError(head_tok.span, f"duplicate initial value for {term!r}")
                init_fluents[term] = _number(value_tok)
            else:
                atom = _parse_atom(entry, scope, predicates)
                if atom.predicate.name == EQUALITY_NAME:
                    raise ParseError(head_tok.span, "built-in equality cannot be asserted in :init")
                init_atoms.add(atom)

    # typed objects contribute their type-closure atoms
    for obj, type_name in object_types.items():
        for t in domain.type_closure(type_name):
            init_atoms.add(Atom(predicates[t], (obj,)))

    if ":goal" in sections:
        goal_section = sections[":goal"]
        if len(goal_section) != 2:
            raise ParseError(goal_section.span, "goal takes a single condition")
        _parse_condition(goal_section[1], scope, predicates, functions, goal_literals, goal_constraints)

    if ":metric" in sections:
        m = sections[":metric"]
        if len(m) != 3:
            raise ParseError(m.span, "metric takes a direction and an expression")
        direction = _require_token(m[1], "metric direction").text
        if direction not in ("minimize", "maximize"):
            raise ParseError(m.span, f"unknown metric direction {direction}")
        metric = (direction, _parse_metric_expr(m[2], scope, functions))

    return Task(
        domain_name=domain.name,
        problem_name=problem_name,
        predicates=domain.predicates,
        functions=domain.functions,
        schemas=domain.schemas,
        objects=tuple(objects),
        init=State(init_atoms, init_fluents),
        goal_literals=tuple(goal_literals),
        goal_constraints=tuple(goal_constraints),
        metric=metric,
    )


def _parse_metric_expr(node: Node, scope: _Scope, functions: dict) -> Expr:
    # total-time is accepted as a conventional zero-cost placeholder
    if isinstance(node, ListNode) and _head_text(node) == "total-time" and len(node) == 1:
        return Constant(0.0)
    return _parse_expr(node, scope, functions)


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
    if task.predicates:
        decls = " ".join(
            "(" + " ".join([p.name] + [f"?x{i}" for i in range(p.arity)]) + ")"
            for p in task.predicates
        )
        lines.append(f"  (:predicates {decls})")
    if task.functions:
        decls = " ".join(
            "(" + " ".join([f.name] + [f"?x{i}" for i in range(f.arity)]) + ")"
            for f in task.functions
        )
        lines.append(f"  (:functions {decls})")
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
    """Problem text of the task; a non-finite initial fluent has no PDDL
    number and raises ValueError."""
    for term, value in task.init.fluents.items():
        if not math.isfinite(value):
            raise ValueError(f"initial fluent {term!r} = {value} is not a finite number")
    lines = [f"(define (problem {task.problem_name})", f"  (:domain {task.domain_name})"]
    init_entries = sorted(repr(a) for a in task.init.atoms)
    init_entries += sorted(
        f"(= {t!r} {format_number(v)})" for t, v in task.init.fluents.items()
    )
    lines.append("  (:init " + " ".join(init_entries) + ")")
    goals = [repr(e) for e in task.goal_literals + task.goal_constraints]
    lines.append("  (:goal (and " + " ".join(goals) + "))" if goals else "  (:goal (and))")
    if task.metric is not None:
        lines.append(f"  (:metric {task.metric[0]} {task.metric[1]!r})")
    lines.append(")")
    return "\n".join(lines) + "\n"

"""The claim expression language: a small algebra over q-products.

Grammar (precedence low to high: + - then * / then unary - then ^):

    expr  := term { ("+" | "-") term }
    term  := factor { ("*" | "/") factor }
    factor:= "-" factor | atom [ "^" int ]     so -l(1)^2 is -1*(l(1)^2)
    atom  := "l(" nat ")" | "q" ["^" int] | int
           | "mock(" name ")"
           | "f(" sq "," sq ")"            sq := ["-"] "q" ["^" nat]
           | "phi(" sq ")" | "psi(" sq ")" read as f(c, c) and f(c, c^3)
           | "poch(" sq "," nat ")"        (sign q^a ; q^step)_inf
           | "stream(" kind "," nat ")"    kind in pentagonal|jacobi|phi|psi
           | "ruleset(" name ")"
           | "AP(" expr "," nat "," nat ")"
           | "SUB(" expr "," nat ")"
           | "ALT(" expr ")"               q -> -q
           | "(" expr ")"

Evaluation follows an exact demand plan, which ``plan`` builds in two linear
passes, evaluating nothing.  The bottom-up pass builds each node's one
:class:`Plan`, with its valuation and eta factors from its children's.  The
top-down pass folds each node it keeps, completes that node with its order,
and takes every child order from ``_child_orders``, the one place that
decides orders: from each factor's valuation it gives every child the order
it must reach so that its parent is exact below the requested order (``q^k``
is an exact shift, ``AP(e, m, r)`` asks for ``m*(N-1) + r + 1``, ``SUB(e, k)``
for ``ceil(N/k)``, a product asks each factor for N minus the other factor's
valuation).  Each :class:`Plan` node carries its order and valuation, so a
caller can check caps on it (``widest``) before any work; ``run`` evaluates
exactly that tree to a series of exactly the requested order.
No node is answered without evaluation: a child is never asked for less than
its valuation, so a factor that is zero below the order still keeps its
product exact, and every divisor is evaluated past its valuation, so its
leading coefficient is checked.
Products, quotients, powers, integer scalars and ``q^k`` factors of ``l(k)``
and ``poch`` fold into one ``products.eta_quotient`` call, which expands
the factors grid by grid, each ``poch`` factor as a nested Euler or Cauchy
sum and each ``l(k)`` factor as a sparse pentagonal series; see ``_fold``
for the powers left out.

The parser bounds its input: nesting deeper than ``MAX_NESTING``, a tree
deeper than ``MAX_DEPTH`` (a chain of n terms is n deep) and ``^`` exponents
past ``MAX_EXPONENT`` (the 3k of ``psi(q^k)`` too) are parse errors, never a
``RecursionError`` or an unbounded expansion.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import partial
from itertools import starmap

from . import mock as mock_mod
from . import partitions, products
from .products import PochhammerSpec
from .records import FrozenRecord
from .series import SeriesError, TruncatedSeries

MAX_NESTING = 100  # nesting of parentheses, calls and unary minus
MAX_DEPTH = 400  # depth of the tree, which chains of + - * / also grow
MAX_EXPONENT = 1000  # magnitude of a ``^`` exponent


class ParseError(ValueError):
    """Syntax error with a character offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownSymbolError(ParseError):
    pass


# -- AST --------------------------------------------------------------------

class Lit(FrozenRecord):
    value: int


class Mono(FrozenRecord):
    k: int


class Eta(FrozenRecord):
    k: int


class Theta(FrozenRecord):
    sign1: int
    a: int
    sign2: int
    b: int


class Mock(FrozenRecord):
    name: str


class Stream(FrozenRecord):
    kind: str
    scale: int


class RulesetRef(FrozenRecord):
    name: str


class BinOp(FrozenRecord):
    op: str  # one of + - * /; a unary minus -x parses to Lit(-1) * x
    left: Expr
    right: Expr


class Pow(FrozenRecord):
    base: Expr
    exponent: int


class Ap(FrozenRecord):
    child: Expr
    modulus: int
    residue: int


class Subst(FrozenRecord):
    child: Expr
    power: int


class Alt(FrozenRecord):
    child: Expr


# a ``poch`` leaf is the ``PochhammerSpec`` that ``_fold`` puts in an eta quotient
Expr = (
    Lit | Mono | Eta | Theta | PochhammerSpec | Mock | Stream | RulesetRef
    | BinOp | Pow | Ap | Subst | Alt
)


# -- tokenizer / parser ------------------------------------------------------

# a token after optional blanks: an integer, a name, a symbol, or a "bad"
# character, which no token starts with; ASCII, so another script's digit or
# blank is a bad character
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_.]*)|(?P<sym>[()+\-*/^,])|(?P<bad>\S))",
    re.ASCII,
)

_MOCK_NAMES = {m.value for m in mock_mod.MockThetaId}
_STREAM_KINDS = partitions.THETA_STREAMS.keys()


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))
        # every rule that consumes eof raises, so peek never reads past it
        self.tokens.append(("eof", "", len(text)))
        self.i = 0
        self.nesting = 0
        self.depths: dict[int, int] = {}

    # token helpers

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", pos)

    def expect_int(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        return self.to_int(val, pos)

    @staticmethod
    def to_int(digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on int() of a string
            raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None

    def expect_positive(self) -> int:
        pos = self.peek()[2]
        n = self.expect_int()
        if n < 1:
            raise ParseError("expected a positive integer", pos)
        return n

    def expect_exponent(self, signed: bool = False) -> int:
        kind, val, pos = self.peek()
        neg = False
        if signed and kind == "sym" and val == "-":
            self.next()
            neg = True
        n = self.expect_int()
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {n} is beyond the limit {MAX_EXPONENT}", pos)
        return -n if neg else n

    def expect_name(self) -> str:
        kind, val, pos = self.next()
        if kind != "name":
            raise ParseError("expected a name", pos)
        return val

    def arguments(self, *readers: Callable[[], object]) -> tuple[list[object], list[int]]:
        """Read ``(arg, ..., arg)``, one per reader; return the values and where each starts."""
        self.expect_sym("(")
        values, starts = [], []
        for i, read in enumerate(readers):
            if i:
                self.expect_sym(",")
            starts.append(self.peek()[2])
            values.append(read())
        self.expect_sym(")")
        return values, starts

    def grow(self, node: Expr, pos: int, *children: Expr) -> Expr:
        """Record the depth of a new compound node; reject trees past MAX_DEPTH."""
        depth = 1 + max(self.depths.get(id(c), 1) for c in children)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH}", pos)
        self.depths[id(node)] = depth
        return node

    # grammar

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return e

    def expr(self, ops: str = "+-") -> Expr:
        """A left-associative chain of terms joined by ``+ -``, or of factors
        joined by ``* /``."""
        operand = self.factor if ops == "*/" else partial(self.expr, "*/")
        node = operand()
        while True:
            kind, val, pos = self.peek()
            if kind != "sym" or val not in ops:
                return node
            self.next()
            right = operand()
            node = self.grow(BinOp(val, node, right), pos, node, right)

    def factor(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.next()
            child = self.nested(self.factor)
            return self.grow(BinOp("*", Lit(-1), child), pos, child)
        node = self.nested(self.atom)
        kind, val, pos = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            node = self.grow(Pow(node, self.expect_exponent(signed=True)), pos, node)
        return node

    def signed_q_power(self) -> tuple[int, int]:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "sym" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        kind, val, pos = self.next()
        if kind != "name" or val != "q":
            raise ParseError("expected q", pos)
        return sign, self.q_exponent(signed=False)

    def q_exponent(self, signed: bool) -> int:
        """The k of ``q [^k]``, read after the ``q``; 1 when there is no ``^``."""
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            return self.expect_exponent(signed=signed)
        return 1

    def nested(self, parse: Callable[[], Expr]) -> Expr:
        """``parse()`` one level deeper; each atom and unary minus is a level."""
        self.nesting += 1
        try:
            if self.nesting > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING}", self.peek()[2]
                )
            return parse()
        finally:
            self.nesting -= 1

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "int":
            return Lit(self.to_int(val, pos))
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind != "name":
            raise ParseError(f"unexpected {val!r}", pos)
        if val == "q":
            return Mono(self.q_exponent(signed=True))
        if val == "l":
            (k,), _ = self.arguments(self.expect_positive)
            return Eta(k)
        if val == "mock":
            (name,), _ = self.arguments(self.expect_name)
            if name not in _MOCK_NAMES:
                raise UnknownSymbolError(f"unknown mock theta function {name!r}", pos)
            return Mock(name)
        if val == "f":
            ((s1, a), (s2, b)), _ = self.arguments(self.signed_q_power, self.signed_q_power)
            if a == b == 0:
                raise ParseError("f(c, d) with a + b = 0 does not converge", pos)
            return Theta(s1, a, s2, b)
        if val in ("phi", "psi"):
            ((sign, k),), (at,) = self.arguments(self.signed_q_power)
            if k < 1:
                raise ParseError("expected a positive power of q", at)
            # phi(c) = f(c, c) and psi(c) = f(c, c^3), whose c^3 must print and parse back
            b = k if val == "phi" else 3 * k
            if b > MAX_EXPONENT:
                raise ParseError(f"exponent {b} is beyond the limit {MAX_EXPONENT}", at)
            return Theta(sign, k, sign, b)
        if val == "poch":
            ((sign, a), step), _ = self.arguments(self.signed_q_power, self.expect_positive)
            if sign == 1 and a == 0:
                raise ParseError("(1; q^step)_inf is the zero product", pos)
            return PochhammerSpec(sign, a, step)
        if val == "stream":
            (k, scale), _ = self.arguments(self.expect_name, self.expect_positive)
            if k not in _STREAM_KINDS:
                raise UnknownSymbolError(f"unknown stream kind {k!r}", pos)
            return Stream(k, scale)
        if val == "ruleset":
            (name,), _ = self.arguments(self.expect_name)
            if name not in partitions.RULESETS:
                raise UnknownSymbolError(f"unknown ruleset {name!r}", pos)
            return RulesetRef(name)
        if val == "AP":
            (child, m, r), (_, _, at) = self.arguments(
                self.expr, self.expect_positive, self.expect_int
            )
            if r >= m:
                raise ParseError(f"residue {r} out of range for modulus {m}", at)
            return self.grow(Ap(child, m, r), pos, child)
        if val == "SUB":
            (child, k), (_, at) = self.arguments(self.expr, self.expect_exponent)
            if k < 1:
                raise ParseError("expected a positive integer", at)
            return self.grow(Subst(child, k), pos, child)
        if val == "ALT":
            (child,), _ = self.arguments(self.expr)
            return self.grow(Alt(child), pos, child)
        raise UnknownSymbolError(f"unknown symbol {val!r}", pos)


def parse_expr(text: str) -> Expr:
    """Parse claim-language text into an AST; errors carry a character offset."""
    return _Parser(text).parse()


# -- canonical printer -------------------------------------------------------

def _sq(sign: int, k: int) -> str:
    base = "q" if k == 1 else f"q^{k}"
    return base if sign == 1 else f"-{base}"


def to_text(node: Expr) -> str:
    """Canonical rendering; ``parse_expr(to_text(e)) == e`` for every parsed ``e``."""
    return _print(node, 0)


def _print(node: Expr, level: int) -> str:
    # level: 0 sum position, 1 right of +/-, 2 product position,
    # 3 right of * or /, 4 power base
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Mono):
        return "q" if node.k == 1 else f"q^{node.k}"
    if isinstance(node, Eta):
        return f"l({node.k})"
    if isinstance(node, Theta):
        return f"f({_sq(node.sign1, node.a)},{_sq(node.sign2, node.b)})"
    if isinstance(node, PochhammerSpec):
        return f"poch({_sq(node.sign, node.base_exp)},{node.step})"
    if isinstance(node, Mock):
        return f"mock({node.name})"
    if isinstance(node, Stream):
        return f"stream({node.kind},{node.scale})"
    if isinstance(node, RulesetRef):
        return f"ruleset({node.name})"
    if isinstance(node, Ap):
        return f"AP({_print(node.child, 0)},{node.modulus},{node.residue})"
    if isinstance(node, Subst):
        return f"SUB({_print(node.child, 0)},{node.power})"
    if isinstance(node, Alt):
        return f"ALT({_print(node.child, 0)})"
    if isinstance(node, Pow):
        base = _print(node.base, 4)  # parenthesises a sum, product or negation
        # a power or monomial base prints its own ^k, so it needs parens here
        if isinstance(node.base, (Pow, Mono)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        if node.op == "*" and node.left == Lit(-1):  # a unary minus
            text = f"-{_print(node.right, 4)}"
            return f"({text})" if level >= 1 else text
        if node.op in "+-":
            text = f"{_print(node.left, 0)} {node.op} {_print(node.right, 1)}"
            return f"({text})" if level >= 1 else text
        text = f"{_print(node.left, 2)}{node.op}{_print(node.right, 3)}"
        return f"({text})" if level >= 3 else text
    raise TypeError(f"not an expression node: {node!r}")


# -- demand plan and evaluator ---------------------------------------------------

class Plan(FrozenRecord):
    """One node of a demand plan: the folded ``node``, the ``valuation`` its
    series starts at, the ``factors`` ``_fold`` reads, the plans of the
    children ``_apply`` combines and the ``order`` it is evaluated to.
    ``_facts`` builds every node bottom-up without its order, then ``_place``
    folds the nodes it keeps and completes each with its order and placed
    children top-down, each pass one visit per node.  Equal only to itself."""

    node: Expr
    valuation: int
    factors: tuple[int, int, dict[int | PochhammerSpec, int]] | None
    kids: tuple[Plan, ...]
    order: int | None = None

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _facts(node: Expr) -> Plan:
    """The plan of ``node`` and of every node under it, each node visited
    once, without orders: the valuation, the factors and the children.

    The valuation is the exponent at which ``TruncatedSeries`` arithmetic
    starts the node's series, so a divisor or a negative power's base must
    have coefficient +1 or -1 there.  The factors are ``(c, s, {f: e})``
    when ``node`` is ``c * q^s * prod f^e``, each f an index k of ``l(k)``
    or a ``poch`` whose series starts at 1 (``poch(-q^0,m)`` starts at 2),
    else None."""
    v, factors, kids = 0, None, ()  # every constant, product, theta and ruleset leaf starts at 0
    if isinstance(node, Lit):
        factors = node.value, 0, {}
    elif isinstance(node, Mono):
        v, factors = node.k, (1, node.k, {})
    elif isinstance(node, Eta):
        factors = 1, 0, {node.k: 1}
    elif isinstance(node, PochhammerSpec) and node.base_exp:
        factors = 1, 0, {node: 1}
    elif isinstance(node, Mock):  # where term 0 of its sum starts
        v = mock_mod.valuation_schedule(mock_mod.MockThetaId.from_name(node.name), 0)
    elif isinstance(node, (Alt, Ap, Subst)):
        kids = (_facts(node.child),)
        v = kids[0].valuation
        if isinstance(node, Ap):
            v = -(-(v - node.residue) // node.modulus)
        elif isinstance(node, Subst):
            v *= node.power
    elif isinstance(node, Pow) and not node.exponent:  # x^0 is the constant 1
        factors = 1, 0, {}
    elif isinstance(node, Pow):
        kids = (base := _facts(node.base),)
        n, inner = node.exponent, base.factors
        v = n * base.valuation
        if inner is not None and (n >= 0 or inner[0] in (1, -1)):
            scale, shift, exps = inner
            factors = scale ** abs(n), n * shift, {k: n * e for k, e in exps.items()}
    elif isinstance(node, BinOp):
        kids = left, right = _facts(node.left), _facts(node.right)
        if node.op in "+-":
            v = min(left.valuation, right.valuation)
        else:
            sign = 1 if node.op == "*" else -1
            v = left.valuation + sign * right.valuation
            a, b = left.factors, right.factors
            # dividing by +1 or -1 is multiplying by it
            if a is not None and b is not None and (sign == 1 or b[0] in (1, -1)):
                exps = dict(a[2])
                for k, e in b[2].items():
                    exps[k] = exps.get(k, 0) + sign * e
                factors = a[0] * b[0], a[1] + sign * b[1], exps
    return Plan(node, v, factors, kids)


def _child_orders(f: Plan, order: int) -> list[tuple[Plan, int]]:
    """The children ``plan`` plans for the node of ``f``, each with its order.

    Each child order is the least that makes the node exact below ``order``,
    given the valuations of the other factors, and never below the child's
    own valuation: a child that is zero below the order then still starts
    where the plan says, so its parent keeps its precision.  A divisor or a
    negative power's base is always evaluated past its valuation, so that
    its leading coefficient is checked.  This is the only place where orders
    are decided; ``plan`` follows it.
    """
    node, kids = f.node, f.kids
    pairs = [(kid, order) for kid in kids]  # the child of ALT, the terms of a sum
    if isinstance(node, Ap):
        pairs = [(kids[0], node.modulus * (order - 1) + node.residue + 1)]
    elif isinstance(node, Subst):
        pairs = [(kids[0], -(-order // node.power))]
    elif isinstance(node, Pow):
        n, v = node.exponent, kids[0].valuation
        need = order - (n - 1) * v
        pairs = [(kids[0], need if n > 0 else max(need, v + 1))]
    elif isinstance(node, BinOp) and node.op == "*":
        left, right = kids
        # an integer scalar or a q^k factor is applied exactly, not multiplied
        if isinstance(node.left, (Lit, Mono)):
            pairs = [(right, order - left.valuation)]
        elif isinstance(node.right, (Lit, Mono)):
            pairs = [(left, order - right.valuation)]
        else:
            pairs = [(left, order - right.valuation), (right, order - left.valuation)]
    elif isinstance(node, BinOp) and node.op == "/":
        vl, vr = kids[0].valuation, kids[1].valuation
        pairs = [(kids[0], order + vr)]
        if not isinstance(node.right, Mono):  # dividing by q^k is an exact shift
            pairs.append((kids[1], max(order - vl + 2 * vr, vr + 1)))
    return [(kid, max(o, kid.valuation)) for kid, o in pairs]


# A product holding a ``poch`` power with |e| above this is not folded.
# Folded, the power applies its Euler or Cauchy sum |e| times; apart,
# square and multiply makes a few dense products.  At order 1000 (best of
# three to five runs in one process, 2-core VM), folded against apart:
# ``poch(-q,1)^e*l(1)`` 15 against 159 ms at e = 3, 162 against 733 ms at
# e = 30 and 505 against 933 ms at e = 100; ``poch(q,1)^e*l(1)``, whose
# base is the sparse pentagonal series, 12 against 9 ms at e = 3, 16
# against 29 ms at e = 4, 356 against 470 ms at e = 60, and 396 against
# 339 ms at e = 65.  ``l(1)/poch(q,1)^60`` is 385 against 659 ms.  60 is
# the largest power at which the fold won for both products.
_MAX_FOLDED_POCH_POWER = 60


def _fold(f: Plan) -> Plan:
    """``f`` with its product of ``l(k)`` and ``poch`` powers folded, by the
    factors it carries, into ``q^shift * scale * EtaQuotientSpec``.

    The shift and the scale stay ``*`` nodes, which ``_child_orders`` applies
    exactly; the leaf carries only the exponents.  A product with a ``poch``
    power above ``_MAX_FOLDED_POCH_POWER`` is not folded, nor one whose
    nested powers multiply an exponent past ``MAX_EXPONENT``: folded, an
    ``l(k)^e`` costs |e| sparse products, and apart ``^`` squares and
    multiplies.
    """
    if f.factors is None or not isinstance(f.node, (BinOp, Pow)):
        return f
    scale, shift, exps = f.factors
    exps = {k: e for k, e in exps.items() if e}
    pochs = {k: e for k, e in exps.items() if isinstance(k, PochhammerSpec)}
    if any(abs(e) > MAX_EXPONENT for e in exps.values()) or any(
        abs(e) > _MAX_FOLDED_POCH_POWER for e in pochs.values()
    ):
        return f
    folded: Expr = Lit(scale)
    if exps:
        etas = {k: e for k, e in exps.items() if isinstance(k, int)}
        folded = products.EtaQuotientSpec(etas, pochs)
        if scale != 1:
            folded = BinOp("*", Lit(scale), folded)
    return _facts(BinOp("*", Mono(shift), folded) if shift else folded)


def plan(node: Expr, order: int) -> Plan:
    """The demand plan of ``node`` at ``order``; nothing is evaluated."""
    return _place(_facts(node), order)


def _place(p: Plan, order: int) -> Plan:
    """``p`` folded, completed in place with ``order`` and its placed children."""
    p = _fold(p)
    object.__setattr__(p, "kids", tuple(starmap(_place, _child_orders(p, order))))
    object.__setattr__(p, "order", order)
    return p


def widest(p: Plan) -> int:
    """The most coefficients the read ``p`` or a node of it spans: a node's
    order less a negative valuation, and none where it is zero below its order."""

    def span(p: Plan) -> int:
        v = p.valuation
        return max([p.order - min(v, 0) if v < p.order else 0, *map(span, p.kids)])

    return max(p.order, span(p))


def run(p: Plan) -> TruncatedSeries:
    """Evaluate the plan ``p`` to a series of order exactly ``p.order``.

    Raises :class:`NonUnitError` for a divisor whose leading coefficient is
    not +1 or -1, and :class:`SeriesError` if an evaluation delivers less
    than its plan demands.
    """
    result = _apply(p, list(map(run, p.kids)))
    if result.order < p.order:
        raise SeriesError(
            f"{type(p.node).__name__} node delivered order {result.order}, "
            f"below the demanded {p.order}"
        )
    return result.truncate(p.order)


def eval_expr(node: Expr, order: int) -> TruncatedSeries:
    """Evaluate ``node`` to a series exact below ``order``, of order exactly
    ``order``: ``run(plan(node, order))``, with the errors of ``run``."""
    return run(plan(node, order))


def _apply(p: Plan, kids: list[TruncatedSeries]) -> TruncatedSeries:
    """Combine evaluated children (or expand a leaf) at the planned order."""
    node, order = p.node, p.order
    if isinstance(node, Lit):
        return TruncatedSeries.one(order).scale(node.value)
    if isinstance(node, Mono):
        return TruncatedSeries.monomial(node.k, order)
    if isinstance(node, Eta):
        return products.eta(node.k, order)
    if isinstance(node, products.EtaQuotientSpec):
        return products.eta_quotient(node, order)
    if isinstance(node, Theta):
        return products.theta_f(node.sign1, node.a, node.sign2, node.b, order)
    if isinstance(node, PochhammerSpec):
        return products.pochhammer(node, order)
    if isinstance(node, Mock):  # mock_series starts at q^0; the plan at the valuation
        v = p.valuation
        if order <= v:
            return TruncatedSeries.zero(order)
        s = mock_mod.mock_series(node.name, order)
        return TruncatedSeries._trusted(v, s.coeffs[v:], s.order)
    if isinstance(node, Stream):
        return partitions.theta_stream(node.kind, node.scale, order)
    if isinstance(node, RulesetRef):
        if node.name not in partitions.RULESETS:
            raise KeyError(f"unknown ruleset {node.name!r}")
        return partitions.count_dp(partitions.RULESETS[node.name], order)
    if isinstance(node, Alt):
        return kids[0].alternate()
    if isinstance(node, Ap):
        return kids[0].extract_ap(node.modulus, node.residue)
    if isinstance(node, Subst):
        return kids[0].substitute(node.power)
    if isinstance(node, Pow):
        return kids[0] ** node.exponent
    if isinstance(node, BinOp):
        if node.op == "+":
            return kids[0] + kids[1]
        if node.op == "-":
            return kids[0] - kids[1]
        if len(kids) == 1:  # _child_orders applies a scalar or q^k factor exactly
            factor = node.right
            if node.op == "*" and isinstance(node.left, (Lit, Mono)):
                factor = node.left
            if isinstance(factor, Lit):
                return kids[0].scale(factor.value)
            return kids[0].shift(factor.k if node.op == "*" else -factor.k)
        return kids[0] * kids[1] if node.op == "*" else kids[0] / kids[1]
    raise TypeError(f"not an expression node: {node!r}")

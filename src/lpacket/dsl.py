"""Text DSL for base-field data, characters, parameters and epsilon tables.

The grammar is LL(1), whitespace-insensitive, with ``#`` comments:

    base    { omega_minus_one = -1; n = 3; identify_chi = false; }
    char    eta grade omega;
    param   phi1 on U(W,3,+) supercuspidal {
                A dim 1 sign + tempered sl2triv;
                B dim 2 sign + tempered sl2triv;
            }
    param   phi on U(V,4,-) {
                char chi_W;
                C*chi_V^-1*chi*chi_W dim 3 sign - tempered sl2triv;
            }
    epsilon { (A, C; psi2E) = -1; }

``base`` fixes the tower rank n (grades of chi_V / chi_W follow it) and
the sign omega_{E/F}(-1); ``identify_chi = true`` replaces chi_V / chi_W
by the powers chi^(n+2) / chi^n.  An atom's ``sign`` is the duality sign
of its bare base (``none`` for bases that are not conjugate self-dual);
``char EXPR`` declares a one-dimensional character atom and ``pair``
opens a dual-pair block.  An ``epsilon`` member names a declared base, or
the partner label of one without a duality sign (``P~`` for ``P``), and
each entry stands for its canonical oracle key; the printer writes every
key with ``epsilon.key_text``.  Parsing a printed document reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .chars import BaseFieldData, CharE, CharSystem, GRADE_OMEGA, GRADE_TRIVIAL
from .epsilon import PsiTag, RawKey, TableBackend, key_text, term_key
from .errors import DslSemanticError, DslSyntaxError, LPacketError
from .params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    char_atom,
    mk_parameter,
    partner_label,
)

_PUNCT = set("{}(),;=*^+-/")


@dataclass
class Token:
    kind: str  # NAME | NUM | PUNCT | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_~"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass
class Document:
    base: BaseFieldData
    n: int
    identify_chi: bool
    extra_chars: Dict[str, int]
    params: Tuple[Tuple[str, LParameter], ...]
    # canonical oracle key -> sign
    epsilon: Dict[RawKey, int]

    def parameter(self, name: str) -> LParameter:
        for pname, phi in self.params:
            if pname == name:
                return phi
        raise LPacketError(f"document declares no parameter {name!r}")

    def table(self) -> TableBackend:
        return TableBackend(self.epsilon)


def _unexpected(tok: Token, expected: List[str]) -> DslSyntaxError:
    """The syntax error at ``tok``, which names the end of the input as such."""
    what = "end of input" if tok.kind == "EOF" else repr(tok.text)
    return DslSyntaxError(f"unexpected {what}", tok.line, tok.col,
                          expected=expected)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise _unexpected(tok, [text])
        return self.advance()

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            raise _unexpected(tok, ["identifier"])
        return self.advance()

    def expect_num(self) -> int:
        tok = self.peek()
        if tok.kind != "NUM":
            raise _unexpected(tok, ["number"])
        self.advance()
        return int(tok.text)

    def parse_sign(self) -> int:
        tok = self.peek()
        if tok.text not in ("+", "-"):
            raise _unexpected(tok, ["+", "-"])
        self.advance()
        if self.peek().kind == "NUM":
            one = self.advance()
            if one.text != "1":
                raise DslSyntaxError(
                    f"sign must be +1 or -1, got {tok.text}{one.text}",
                    one.line, one.col,
                )
        return +1 if tok.text == "+" else -1

    def semantic(self, message: str, tok: Token):
        raise DslSemanticError(message, tok.line, tok.col)

    # -- document ------------------------------------------------------------

    def parse_document(self) -> Document:
        base_sign: Optional[int] = None
        n: Optional[int] = None
        identify = False
        char_decls: List[Tuple[Token, int]] = []
        raw_params: List[Tuple[Token, dict]] = []
        raw_eps: List[dict] = []

        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.text == "base":
                if base_sign is not None:
                    self.semantic("duplicate base block", tok)
                base_sign, n, identify = self.parse_base()
            elif tok.text == "char":
                char_decls.append(self.parse_char_decl())
            elif tok.text == "param":
                raw_params.append(self.parse_param_raw())
            elif tok.text == "epsilon":
                raw_eps.extend(self.parse_epsilon_raw())
            else:
                raise _unexpected(tok, ["base", "char", "param", "epsilon"])

        first = self.tokens[0]
        if base_sign is None or n is None:
            self.semantic("document needs a base block with omega_minus_one and n",
                          first)
        base = BaseFieldData(base_sign)
        system = CharSystem.standard(n, identify_chi=identify)
        extra_chars: Dict[str, int] = {}
        for name, grade in char_decls:
            if name.text in ("chi", "chi_V", "chi_W"):
                self.semantic(f"character {name.text} is built in", name)
            try:
                system.declare(name.text, grade)
            except LPacketError as exc:
                self.semantic(str(exc), name)
            extra_chars[name.text] = grade

        params, registry = self.build_params(raw_params, system)
        epsilon = self.build_epsilon(raw_eps, system, registry)
        return Document(
            base=base,
            n=n,
            identify_chi=identify,
            extra_chars=extra_chars,
            params=tuple(params),
            epsilon=epsilon,
        )

    def parse_base(self) -> Tuple[int, int, bool]:
        self.expect("base")
        self.expect("{")
        sign: Optional[int] = None
        n: Optional[int] = None
        identify = False
        while self.peek().text != "}":
            key = self.expect_name()
            self.expect("=")
            if key.text == "omega_minus_one":
                sign = self.parse_sign()
            elif key.text == "n":
                n = self.expect_num()
            elif key.text == "identify_chi":
                val = self.expect_name()
                if val.text not in ("true", "false"):
                    self.semantic("identify_chi must be true or false", val)
                identify = val.text == "true"
            else:
                self.semantic(f"unknown base key {key.text!r}", key)
            self.expect(";")
        self.expect("}")
        tok = self.peek()
        if sign is None:
            self.semantic("base block must set omega_minus_one", tok)
        if n is None:
            self.semantic("base block must set n", tok)
        if n < 1:
            self.semantic("tower rank n must be >= 1", tok)
        return sign, n, identify

    def parse_char_decl(self) -> Tuple[Token, int]:
        self.expect("char")
        name = self.expect_name()
        self.expect("grade")
        grade_tok = self.expect_name()
        if grade_tok.text == "trivial":
            grade = GRADE_TRIVIAL
        elif grade_tok.text == "omega":
            grade = GRADE_OMEGA
        else:
            raise _unexpected(grade_tok, ["trivial", "omega"])
        self.expect(";")
        return name, grade

    # params are parsed to raw dicts first: character expressions need the
    # fully declared system before they can be resolved
    def parse_param_raw(self) -> Tuple[Token, dict]:
        self.expect("param")
        name = self.expect_name()
        self.expect("on")
        u = self.expect_name()
        if u.text != "U":
            raise _unexpected(u, ["U"])
        self.expect("(")
        form_tok = self.expect_name()
        if form_tok.text not in ("V", "W"):
            raise _unexpected(form_tok, ["V", "W"])
        self.expect(",")
        rank = self.expect_num()
        self.expect(",")
        sign = self.parse_sign()
        self.expect(")")
        flags = []
        while self.peek().text in ("tempered", "supercuspidal"):
            flags.append(self.advance().text)
        self.expect("{")
        blocks = []
        while self.peek().text != "}":
            blocks.append(self.parse_block_raw())
        self.expect("}")
        return name, {
            "form": HERMITIAN if form_tok.text == "V" else SKEW,
            "rank": rank,
            "sign": sign,
            "flags": flags,
            "blocks": blocks,
        }

    def parse_block_raw(self) -> dict:
        tok = self.peek()
        entry: dict = {"pos": tok, "pair": False}
        if tok.text == "pair":
            self.advance()
            entry["pair"] = True
            tok = self.peek()
        if tok.text == "char":
            self.advance()
            entry["kind"] = "char"
            entry["expr"] = self.parse_charexpr_raw()
        else:
            name = self.expect_name()
            entry["kind"] = "atom"
            entry["name"] = name
            if self.peek().text == "*":
                self.advance()
                entry["expr"] = self.parse_charexpr_raw()
            self.expect("dim")
            entry["dim"] = self.expect_num()
            self.expect("sign")
            if self.peek().text == "none":
                self.advance()
                entry["sign"] = None
            else:
                entry["sign"] = self.parse_sign()
            entry["tempered"] = True
            entry["sl2"] = True
            while self.peek().text in (
                "tempered", "nontempered", "sl2triv", "sl2nontriv"
            ):
                flag = self.advance().text
                if flag == "nontempered":
                    entry["tempered"] = False
                elif flag == "sl2nontriv":
                    entry["sl2"] = False
        if not entry["pair"] and self.peek().text == "mult":
            self.advance()
            entry["mult"] = self.expect_num()
        self.expect(";")
        return entry

    def parse_charexpr_raw(self) -> List[Tuple[Token, object]]:
        factors = [self.parse_factor_raw()]
        while self.peek().text == "*":
            self.advance()
            factors.append(self.parse_factor_raw())
        return factors

    def parse_factor_raw(self) -> Tuple[Token, object]:
        tok = self.peek()
        if tok.kind == "NUM" and tok.text == "1":
            self.advance()
            return (tok, ("one",))
        name = self.expect_name()
        exp: object = 1
        if self.peek().text == "^":
            self.advance()
            neg = False
            if self.peek().text == "-":
                self.advance()
                neg = True
            num = self.expect_num()
            if name.text == "norm" and self.peek().text == "/":
                self.advance()
                den = self.expect_num()
                if den == 0 or 2 * num % den:
                    self.semantic(f"norm exponent {num}/{den} is not a "
                                  "half-integer", name)
                exp = Fraction(num, den) * (-1 if neg else 1)
            else:
                exp = -num if neg else num
        if name.text == "norm":
            return (name, ("norm", Fraction(exp)))
        return (name, ("gen", name.text, exp))

    def parse_epsilon_raw(self) -> List[dict]:
        self.expect("epsilon")
        self.expect("{")
        entries = []
        while self.peek().text != "}":
            pos = self.expect("(")
            member_a = self.parse_member_raw()
            self.expect(",")
            member_b = self.parse_member_raw()
            self.expect(";")
            tag_tok = self.expect_name()
            try:
                tag = PsiTag(tag_tok.text)
            except ValueError:
                raise _unexpected(tag_tok, [t.value for t in PsiTag])
            self.expect(")")
            self.expect("=")
            sign = self.parse_sign()
            self.expect(";")
            entries.append({
                "pos": pos, "a": member_a, "b": member_b,
                "tag": tag, "sign": sign,
            })
        self.expect("}")
        return entries

    def parse_member_raw(self) -> dict:
        tok = self.peek()
        if tok.text == "char":
            self.advance()
            return {"kind": "char", "expr": self.parse_charexpr_raw(),
                    "pos": tok}
        name = self.expect_name()
        member = {"kind": "atom", "name": name, "pos": tok}
        if self.peek().text == "*":
            self.advance()
            member["expr"] = self.parse_charexpr_raw()
        return member

    # -- semantic resolution ----------------------------------------------------

    def resolve_char(self, factors, system: CharSystem) -> CharE:
        mu = CharE.one()
        for tok, spec in factors:
            if spec[0] == "one":
                continue
            if spec[0] == "norm":
                mu = mu * CharE.norm_power(spec[1])
                continue
            _, name, exp = spec
            if not system.known(name):
                self.semantic(f"undeclared character {name!r}", tok)
            mu = mu * (system.gen(name) ** exp)
        return mu

    def build_params(self, raw_params, system):
        params: List[Tuple[str, LParameter]] = []
        registry: Dict[str, Summand] = {}
        names = set()
        for name_tok, raw in raw_params:
            if name_tok.text in names:
                self.semantic(f"duplicate parameter {name_tok.text!r}", name_tok)
            names.add(name_tok.text)
            blocks = []
            pairs = []
            labels_here = set()
            for entry in raw["blocks"]:
                pos = entry["pos"]
                if entry["kind"] == "char":
                    mu = self.resolve_char(entry["expr"], system)
                    atom = char_atom(mu)
                else:
                    label = entry["name"].text
                    if label in ("1",):
                        self.semantic("the label 1 is reserved", entry["name"])
                    tw = (self.resolve_char(entry["expr"], system)
                          if "expr" in entry else CharE.one())
                    base_sign = entry["sign"]
                    try:
                        atom = Summand(
                            label, entry["dim"], base_sign, tw,
                            tempered=entry["tempered"],
                            sl2_trivial=entry["sl2"],
                        )
                    except LPacketError as exc:
                        self.semantic(str(exc), pos)
                    if label in labels_here:
                        self.semantic(f"duplicate summand label {label!r}", pos)
                    labels_here.add(label)
                    bare = Summand(
                        label, entry["dim"], base_sign,
                        tempered=entry["tempered"], sl2_trivial=entry["sl2"],
                    )
                    if label in registry and registry[label] != bare:
                        self.semantic(
                            f"label {label!r} redeclared inconsistently", pos
                        )
                    registry[label] = bare
                if entry["pair"]:
                    pairs.append(atom)
                else:
                    blocks.append((atom, entry.get("mult", 1)))
            group = GroupTag(raw["rank"], raw["form"], raw["sign"])
            flags = raw["flags"]
            try:
                phi = mk_parameter(
                    blocks, group, pairs=pairs,
                    tempered=True if "tempered" in flags else None,
                    supercuspidal_packet="supercuspidal" in flags,
                )
            except LPacketError as exc:
                self.semantic(str(exc), name_tok)
            params.append((name_tok.text, phi))
        return params, registry

    def build_epsilon(self, raw_eps, system, registry) -> Dict[RawKey, int]:
        signs: Dict[RawKey, int] = {}
        first_at: Dict[RawKey, Token] = {}
        # an oracle key may name the partner label of a declared base
        # without a duality sign, so those labels resolve too
        partners: Dict[str, Summand] = {}
        for bare in registry.values():
            if bare.base_duality is None:
                label = partner_label(bare.base)
                partners.setdefault(label, replace(bare, base=label))
        for raw in raw_eps:
            members = []
            for side in ("a", "b"):
                member = raw[side]
                if member["kind"] == "char":
                    atom = char_atom(self.resolve_char(member["expr"], system))
                else:
                    label = member["name"].text
                    atom = registry.get(label) or partners.get(label)
                    if atom is None:
                        self.semantic(
                            f"epsilon entry names unknown atom {label!r}",
                            member["name"],
                        )
                    if "expr" in member:
                        atom = atom.twisted(
                            self.resolve_char(member["expr"], system)
                        )
                members.append(atom)
            key = term_key(members[0], members[1], CharE.one(), raw["tag"])
            if key in first_at:
                first = first_at[key]
                self.semantic(
                    "duplicate epsilon key (first given at line "
                    f"{first.line}, col {first.col})",
                    raw["pos"],
                )
            first_at[key] = raw["pos"]
            signs[key] = raw["sign"]
        return signs


def parse(text: str) -> Document:
    """Parse a document; raises DslSyntaxError / DslSemanticError with
    line and column on bad input."""
    return _Parser(text).parse_document()


# -- canonical printing -----------------------------------------------------------


def _print_atom(s: Summand) -> str:
    if s.is_char_atom:
        return f"char {s.twist}"
    parts = [s.base]
    if not s.twist.is_trivial:
        parts[0] += f"*{s.twist}"
    if s.base_duality is None:
        sign = "none"
    else:
        sign = "+" if s.base_duality > 0 else "-"
    parts.append(f"dim {s.dim}")
    parts.append(f"sign {sign}")
    parts.append("tempered" if s.tempered else "nontempered")
    parts.append("sl2triv" if s.sl2_trivial else "sl2nontriv")
    return " ".join(parts)


def print_document(doc: Document) -> str:
    """Canonical text of a document; parsing it reproduces the document."""
    lines = []
    omega = "+1" if doc.base.omega_at_minus_one > 0 else "-1"
    identify = "true" if doc.identify_chi else "false"
    lines.append(
        f"base {{ omega_minus_one = {omega}; n = {doc.n}; "
        f"identify_chi = {identify}; }}"
    )
    for name, grade in sorted(doc.extra_chars.items()):
        word = "omega" if grade else "trivial"
        lines.append(f"char {name} grade {word};")
    for name, phi in doc.params:
        form = "V" if phi.group.form == HERMITIAN else "W"
        sign = "+" if phi.group.duality_sign > 0 else "-"
        flags = ""
        if phi.tempered:
            flags += " tempered"
        if phi.supercuspidal_packet:
            flags += " supercuspidal"
        lines.append(
            f"param {name} on U({form},{phi.group.n},{sign}){flags} {{"
        )
        for s, m in phi.blocks:
            mult = f" mult {m}" if m > 1 else ""
            lines.append(f"  {_print_atom(s)}{mult};")
        for a, _b in phi.pairs:
            lines.append(f"  pair {_print_atom(a)};")
        lines.append("}")
    if doc.epsilon:
        lines.append("epsilon {")
        lines.extend(sorted(f"  {key_text(key)} = {sign:+d};"
                            for key, sign in doc.epsilon.items()))
        lines.append("}")
    return "\n".join(lines) + "\n"

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
key with ``epsilon.key_texts``.  Parsing a printed document reproduces it.

The parse is one pass: ``base`` comes first, and every character, label
and parameter is declared above its first use.  Each declaration is
resolved where it is read, so the first error in reading order is the
one reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .chars import BaseFieldData, CharE, CharSystem, GRADE_OMEGA, GRADE_TRIVIAL
from .epsilon import PsiTag, RawKey, TableBackend, key_texts, term_key
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
# numbers are ASCII digits only: int() would read any Unicode digit
_DIGITS = set("0123456789")


@dataclass
class Token:
    kind: str  # NAME | NUM | PUNCT | EOF | ERROR (a stray character)
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[Token]:
    """The tokens of ``text``, read as the parser asks for them; a stray
    character ends them with an ERROR token."""
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
            yield Token("NAME", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            yield Token("NUM", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            yield Token("PUNCT", ch, line, start_col)
            i += 1
            col += 1
            continue
        yield Token("ERROR", ch, line, col)
        return
    yield Token("EOF", "", line, col)


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
    """The syntax error at ``tok``, which names the end of the input and a
    stray character as such."""
    if tok.kind == "ERROR":
        return DslSyntaxError(f"unexpected character {tok.text!r}", tok.line,
                              tok.col)
    what = "end of input" if tok.kind == "EOF" else repr(tok.text)
    return DslSyntaxError(f"unexpected {what}", tok.line, tok.col,
                          expected=expected)


class _Parser:
    """One pass over the tokens: each declaration is resolved where it is
    read, so whatever a line names must be declared above it."""

    def __init__(self, text: str, identify_chi: bool):
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)
        self.identify_chi = identify_chi
        # set when the base block closes
        self.system: Optional[CharSystem] = None
        self.base: Optional[BaseFieldData] = None
        self.n = 0
        self.extra_chars: Dict[str, int] = {}
        self.params: List[Tuple[str, LParameter]] = []
        # the bare atom of every declared label
        self.registry: Dict[str, Summand] = {}
        # an oracle key may name the partner label of a declared base
        # without a duality sign, so those labels resolve too
        self.partners: Dict[str, Summand] = {}
        # canonical oracle key -> sign, and the entry that first gave it
        self.epsilon: Dict[RawKey, int] = {}
        self.first_at: Dict[RawKey, Token] = {}

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tok
        if tok.text != text:
            raise _unexpected(tok, [text])
        return self.advance()

    def expect_name(self) -> Token:
        tok = self.tok
        if tok.kind != "NAME":
            raise _unexpected(tok, ["identifier"])
        return self.advance()

    def expect_num(self) -> int:
        tok = self.tok
        if tok.kind != "NUM":
            raise _unexpected(tok, ["number"])
        self.advance()
        return int(tok.text)

    def parse_sign(self) -> int:
        tok = self.tok
        if tok.text not in ("+", "-"):
            raise _unexpected(tok, ["+", "-"])
        self.advance()
        if self.tok.kind == "NUM":
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
        readers = {"base": self.parse_base, "char": self.parse_char_decl,
                   "param": self.parse_param, "epsilon": self.parse_epsilon}
        while self.tok.kind != "EOF":
            tok = self.tok
            if tok.text not in readers:
                raise _unexpected(tok, list(readers))
            if tok.text == "base" and self.system is not None:
                self.semantic("duplicate base block", tok)
            if tok.text != "base" and self.system is None:
                break
            readers[tok.text]()
        if self.system is None:
            self.semantic("document needs a base block with omega_minus_one "
                          "and n", self.tok)
        return Document(
            base=self.base,
            n=self.n,
            identify_chi=self.identify_chi,
            extra_chars=self.extra_chars,
            params=tuple(self.params),
            epsilon=self.epsilon,
        )

    def parse_base(self) -> None:
        self.expect("base")
        self.expect("{")
        sign: Optional[int] = None
        n: Optional[int] = None
        identify = False
        seen: set = set()
        while self.tok.text != "}":
            key = self.expect_name()
            if key.text in seen:
                self.semantic(f"duplicate base key {key.text!r}", key)
            seen.add(key.text)
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
        tok = self.tok
        if sign is None:
            self.semantic("base block must set omega_minus_one", tok)
        if n is None:
            self.semantic("base block must set n", tok)
        if n < 1:
            self.semantic("tower rank n must be >= 1", tok)
        self.base = BaseFieldData(sign)
        self.n = n
        self.identify_chi = self.identify_chi or identify
        self.system = CharSystem.standard(n, identify_chi=self.identify_chi)

    def parse_char_decl(self) -> None:
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
        if name.text in ("chi", "chi_V", "chi_W"):
            self.semantic(f"character {name.text} is built in", name)
        try:
            self.system.declare(name.text, grade)
        except LPacketError as exc:
            self.semantic(str(exc), name)
        self.extra_chars[name.text] = grade

    def parse_param(self) -> None:
        self.expect("param")
        name = self.expect_name()
        if any(pname == name.text for pname, _ in self.params):
            self.semantic(f"duplicate parameter {name.text!r}", name)
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
        while self.tok.text in ("tempered", "supercuspidal"):
            flags.append(self.advance().text)
        self.expect("{")
        blocks = []
        pairs = []
        labels_here: set = set()
        while self.tok.text != "}":
            pair, atom, mult = self.parse_block(labels_here)
            if pair:
                pairs.append(atom)
            else:
                blocks.append((atom, mult))
        self.expect("}")
        form = HERMITIAN if form_tok.text == "V" else SKEW
        try:
            phi = mk_parameter(
                blocks, GroupTag(rank, form, sign), pairs=pairs,
                tempered=True if "tempered" in flags else None,
                supercuspidal_packet="supercuspidal" in flags,
            )
        except LPacketError as exc:
            self.semantic(str(exc), name)
        self.params.append((name.text, phi))

    def parse_block(self, labels_here: set) -> Tuple[bool, Summand, int]:
        """One line of a parameter: whether it is a dual pair, its atom and
        its multiplicity.  The atom is built once its ``;`` is read."""
        pos = self.tok
        pair = pos.text == "pair"
        if pair:
            self.advance()
        label = None
        if self.tok.text == "char":
            self.advance()
            twist = self.parse_charexpr()
        else:
            label = self.expect_name().text
            twist = CharE.one()
            if self.tok.text == "*":
                self.advance()
                twist = self.parse_charexpr()
            self.expect("dim")
            dim = self.expect_num()
            self.expect("sign")
            if self.tok.text == "none":
                self.advance()
                base_sign = None
            else:
                base_sign = self.parse_sign()
            tempered = sl2 = True
            while self.tok.text in (
                "tempered", "nontempered", "sl2triv", "sl2nontriv"
            ):
                flag = self.advance().text
                if flag == "nontempered":
                    tempered = False
                elif flag == "sl2nontriv":
                    sl2 = False
        mult = 1
        if not pair and self.tok.text == "mult":
            self.advance()
            mult = self.expect_num()
        self.expect(";")
        if label is None:
            return pair, char_atom(twist), mult
        try:
            atom = Summand(label, dim, base_sign, twist, tempered=tempered,
                           sl2_trivial=sl2)
        except LPacketError as exc:
            self.semantic(str(exc), pos)
        if label in labels_here:
            self.semantic(f"duplicate summand label {label!r}", pos)
        labels_here.add(label)
        bare = Summand(label, dim, base_sign, tempered=tempered,
                       sl2_trivial=sl2)
        # atom equality ignores the flags, so they are compared apart
        known = self.registry.get(label, bare)
        if (known != bare or known.tempered != tempered
                or known.sl2_trivial != sl2):
            self.semantic(f"label {label!r} redeclared inconsistently", pos)
        self.registry[label] = bare
        if base_sign is None:
            partner = partner_label(label)
            self.partners[partner] = replace(bare, base=partner)
        return pair, atom, mult

    def parse_charexpr(self) -> CharE:
        mu = self.parse_factor()
        while self.tok.text == "*":
            self.advance()
            mu = mu * self.parse_factor()
        return mu

    def parse_factor(self) -> CharE:
        tok = self.tok
        if tok.kind == "NUM" and tok.text == "1":
            self.advance()
            return CharE.one()
        name = self.expect_name()
        if name.text != "norm" and not self.system.known(name.text):
            self.semantic(f"undeclared character {name.text!r}", name)
        exp: object = 1
        if self.tok.text == "^":
            self.advance()
            neg = False
            if self.tok.text == "-":
                self.advance()
                neg = True
            num = self.expect_num()
            if name.text == "norm" and self.tok.text == "/":
                self.advance()
                den = self.expect_num()
                if den == 0 or 2 * num % den:
                    self.semantic(f"norm exponent {num}/{den} is not a "
                                  "half-integer", name)
                exp = Fraction(num, den) * (-1 if neg else 1)
            else:
                exp = -num if neg else num
        if name.text == "norm":
            return CharE.norm_power(Fraction(exp))
        return self.system.gen(name.text) ** exp

    def parse_epsilon(self) -> None:
        self.expect("epsilon")
        self.expect("{")
        while self.tok.text != "}":
            pos = self.expect("(")
            member_a = self.parse_member()
            self.expect(",")
            member_b = self.parse_member()
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
            # labels resolve once the whole entry is read
            a, b = (self.member_atom(*m) for m in (member_a, member_b))
            key = term_key(a, b, CharE.one(), tag)
            if key in self.first_at:
                first = self.first_at[key]
                self.semantic(
                    "duplicate epsilon key (first given at line "
                    f"{first.line}, col {first.col})",
                    pos,
                )
            self.first_at[key] = pos
            self.epsilon[key] = sign
        self.expect("}")

    def parse_member(self) -> Tuple[Optional[Token], Optional[CharE]]:
        """An epsilon member: no label and the character of ``char EXPR``,
        or a label and its twist, if any."""
        if self.tok.text == "char":
            self.advance()
            return None, self.parse_charexpr()
        label = self.expect_name()
        twist = None
        if self.tok.text == "*":
            self.advance()
            twist = self.parse_charexpr()
        return label, twist

    def member_atom(self, label: Optional[Token],
                    twist: Optional[CharE]) -> Summand:
        if label is None:
            return char_atom(twist)
        atom = self.registry.get(label.text) or self.partners.get(label.text)
        if atom is None:
            self.semantic(f"epsilon entry names unknown atom {label.text!r}",
                          label)
        return atom if twist is None else atom.twisted(twist)


def parse(text: str, identify_chi: bool = False) -> Document:
    """Parse a document; raises DslSyntaxError / DslSemanticError with
    line and column on bad input.  ``identify_chi=True`` acts as
    ``identify_chi = true`` in the base block."""
    return _Parser(text, identify_chi).parse_document()


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
        lines.extend(sorted(
            f"  {text} = {sign:+d};"
            for text, sign in zip(key_texts(doc.epsilon),
                                  doc.epsilon.values())))
        lines.append("}")
    return "\n".join(lines) + "\n"

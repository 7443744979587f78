"""Parser and printer for the quiver presentation language (`.kz` files).

Example::

    quiver
      vertices: 1 2 3 4 5 6
      arrows: a: 1->2  b: 2->3  z: 2->4  g: 3->5  e: 4->5  d: 5->6
    relations
      z*a
      d*g
      g*b + e*z

Products compose right to left (``g*b`` traverses b first), coefficients are
integers or fractions p/q written with an explicit ``*``: ``1/2 * g*b``.
Relations are separated by newlines or semicolons; `#` starts a comment.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Presentation
from .linalg import QQ, Subspace
from .quiver import PathEnumerator, Quiver

_KEYWORDS = {"quiver", "vertices", "arrows", "relations"}


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("arrowsym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in ":;*+-/":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("atom", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, skip_newlines=True):
        pos = self.pos
        while skip_newlines and self.tokens[pos].kind == "newline":
            pos += 1
        return self.tokens[pos]

    def next(self, skip_newlines=True):
        while skip_newlines and self.tokens[self.pos].kind == "newline":
            self.pos += 1
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_keyword(self, word):
        tok = self.next()
        if tok.kind != "atom" or tok.text != word:
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)
        return tok


def parse_presentation(text: str, field=QQ, degree_cap: int = 8) -> Presentation:
    """Parse DSL source into a validated quadratic presentation."""
    p = _Parser(_tokenize(text))
    p.expect_keyword("quiver")
    p.expect_keyword("vertices")
    p.expect(":")
    vertices = []
    while True:
        tok = p.peek()
        if tok.kind != "atom" or tok.text in _KEYWORDS:
            break
        vertices.append(p.next().text)
    if not vertices:
        tok = p.peek()
        raise ParseError("empty vertex list", tok.line, tok.col)
    p.expect_keyword("arrows")
    p.expect(":")
    arrows = []
    while True:
        tok = p.peek()
        if tok.kind != "atom" or tok.text in _KEYWORDS:
            break
        name_tok = p.next()
        p.expect(":")
        src = p.expect("atom", "source vertex")
        p.expect("arrowsym", "'->'")
        tgt = p.expect("atom", "target vertex")
        for v, vt in ((src.text, src), (tgt.text, tgt)):
            if v not in vertices:
                raise ParseError(f"unknown vertex {v!r}", vt.line, vt.col)
        arrows.append((name_tok.text, src.text, tgt.text))
    try:
        quiver = Quiver(vertices, arrows)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None

    relations = []
    tok = p.peek()
    if tok.kind == "atom" and tok.text == "relations":
        p.next()
        while True:
            tok = p.peek()
            if tok.kind == "eof":
                break
            if tok.kind == ";":
                p.next()
                continue
            relations.append(_parse_relation(p, quiver, field))
    p.expect("eof", "end of input")
    return build_presentation(quiver, relations, field, degree_cap)


def _parse_relation(p: _Parser, quiver: Quiver, field):
    """One relation: sign/term sequence, ended by newline, ';' or EOF."""
    terms = []
    sign = 1
    first = True
    while True:
        tok = p.peek(skip_newlines=first)
        if not first and tok.kind in ("newline", ";", "eof"):
            break
        if tok.kind in "+-" and not first:
            p.next(skip_newlines=False)
            sign = 1 if tok.kind == "+" else -1
            coeff, word = _parse_term(p, quiver)
        elif first:
            if tok.kind == "-":
                p.next()
                sign = -1
            coeff, word = _parse_term(p, quiver)
        else:
            raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.line, tok.col)
        try:
            terms.append((field.of(sign * coeff), word, tok))
        except ZeroDivisionError as exc:        # a denominator divisible by p
            raise ParseError(str(exc), tok.line, tok.col) from None
        sign = 1
        first = False
    return terms


def _parse_term(p: _Parser, quiver: Quiver):
    """[coefficient '*'] arrow ('*' arrow)*; returns (Fraction, [arrow names])."""
    tok = p.peek()
    coeff = Fraction(1)
    if tok.kind == "atom" and tok.text.isdigit() and tok.text not in {a.name for a in quiver.arrows}:
        p.next()
        num = int(tok.text)
        if p.peek(skip_newlines=False).kind == "/":
            p.next(skip_newlines=False)
            den_tok = p.expect("atom", "denominator")
            if not den_tok.text.isdigit() or int(den_tok.text) == 0:
                raise ParseError("bad fraction denominator", den_tok.line, den_tok.col)
            coeff = Fraction(num, int(den_tok.text))
        else:
            coeff = Fraction(num)
        p.expect("*", "'*' after coefficient")
    word = []
    while True:
        tok = p.expect("atom", "arrow name")
        if tok.text in _KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} in relation", tok.line, tok.col)
        if tok.text not in {a.name for a in quiver.arrows}:
            raise ParseError(f"unknown arrow {tok.text!r}", tok.line, tok.col)
        word.append((tok.text, tok))
        if p.peek(skip_newlines=False).kind == "*":
            p.next(skip_newlines=False)
            continue
        break
    return coeff, word


def build_presentation(quiver: Quiver, parsed_relations, field=QQ,
                       degree_cap: int = 8) -> Presentation:
    """Assemble relation subspaces from parsed (coeff, word) term lists."""
    bases = PathEnumerator(quiver, 2)
    grouped: dict[tuple, list] = {}
    for terms in parsed_relations:
        if not terms:
            continue
        row: dict = {}
        pair = None
        for coeff, word, tok in terms:
            if len(word) != 2:
                raise ParseError("relation not quadratic", tok.line, tok.col)
            arrows = []
            prev_target = None
            for name, atok in reversed(word):  # rightmost arrow traversed first
                arrow = quiver.arrow(name)
                if prev_target is not None and arrow.source != prev_target:
                    raise ParseError(
                        f"non-composable product at {name!r}", atok.line, atok.col)
                prev_target = arrow.target
                arrows.append(quiver.arrow_index(name))
            this_pair = (quiver.arrows[arrows[0]].source, prev_target)
            if pair is None:
                pair = this_pair
            elif pair != this_pair:
                raise ParseError("relation not homogeneous of degree 2 "
                                 "(terms with different endpoints)", tok.line, tok.col)
            pos = bases.basis(2, *pair).index[tuple(arrows)]
            row[pos] = field.of(row.get(pos, field.zero) + coeff)
        row = {c: row[c] for c in sorted(row) if row[c]}
        if not row:
            ref = terms[0][2]
            raise ParseError("relation is identically zero", ref.line, ref.col)
        grouped.setdefault(pair, []).append(row)
    spaces = {pair: Subspace.from_sparse(field, len(bases.basis(2, *pair)), rows)
              for pair, rows in grouped.items()}
    return Presentation(quiver, field, spaces, degree_cap)


def print_presentation(pres: Presentation) -> str:
    """Canonical DSL text: declaration order, canonical relation bases."""
    quiver = pres.quiver
    lines = ["quiver"]
    lines.append("  vertices: " + " ".join(str(v) for v in quiver.vertices))
    arrow_txt = "  ".join(f"{a.name}: {a.source}->{a.target}" for a in quiver.arrows)
    lines.append("  arrows: " + arrow_txt)
    rel_lines = []
    order = {v: i for i, v in enumerate(quiver.vertices)}
    for (x, z) in sorted(pres.relations, key=lambda p: (order[p[0]], order[p[1]])):
        space = pres.relations[(x, z)]
        basis = pres.path_basis(2, x, z)
        for row in space.sparse_rows:
            rel_lines.append("  " + _format_vector(pres, row, basis))
    if rel_lines:
        lines.append("relations")
        lines.extend(rel_lines)
    return "\n".join(lines) + "\n"


def _format_vector(pres: Presentation, row, basis) -> str:
    field = pres.field
    parts = []
    for c, coeff in sorted(row.items()):
        word = pres.quiver.word(basis.words[c])
        if field.characteristic == 0 and coeff < 0:
            sign, mag = "-", -coeff
        else:
            sign, mag = "+", coeff
        txt = word if mag == field.one else f"{field.to_str(mag)} * {word}"
        parts.append((sign, txt))
    out = ""
    for i, (sign, txt) in enumerate(parts):
        if i == 0:
            out = ("- " if sign == "-" else "") + txt
        else:
            out += f" {sign} {txt}"
    return out

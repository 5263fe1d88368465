"""Parser for linear combinations of basis elements.

Grammar, informally:

    expr  := '0' | ['+'|'-'] term (('+'|'-') term)*
    term  := [rational '*'] atom | rational '*' atom
    atom  := basis '[' labels ']' | basis 'S'
    basis := 'x' | 'y' | 'xp'

Labels are the system's own generator names, comma separated (1-based
numbers, plus the primed fork label in the D family). 'xS' abbreviates
the full subset, 'x[]' the empty one. Rationals look like '3' or '5/2'.
A lone '0' is the zero element, as ``str`` prints it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import DescentVector
from .errors import InvalidSubset, ParseError

# each word is its basis tag; "xp" is tried before "x"
_BASIS_WORDS = ("xp", "x", "y")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError("expected '%s'" % ch, self.pos)
        self.pos += 1

    def try_basis(self):
        self.skip_ws()
        for word in _BASIS_WORDS:
            if self.text.startswith(word, self.pos):
                nxt = self.pos + len(word)
                if nxt < len(self.text) and self.text[nxt] in "[S":
                    self.pos = nxt
                    return word
        return None

    def number(self):
        self.skip_ws()
        start = self.pos
        digits = ""
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            digits += self.text[self.pos]
            self.pos += 1
        if not digits:
            raise ParseError("expected a number", start)
        num = int(digits)
        if self.peek() == "/":
            self.pos += 1
            dstart = self.pos
            dens = ""
            while (self.pos < len(self.text)
                   and self.text[self.pos].isdigit()):
                dens += self.text[self.pos]
                self.pos += 1
            if not dens:
                raise ParseError("expected a denominator", dstart)
            den = int(dens)
            if den == 0:
                raise ParseError("zero denominator", dstart)
            return Fraction(num, den)
        return Fraction(num)

    def label(self):
        self.skip_ws()
        start = self.pos
        out = ""
        while (self.pos < len(self.text)
               and (self.text[self.pos].isdigit()
                    or self.text[self.pos] == "p")):
            out += self.text[self.pos]
            self.pos += 1
        if not out:
            raise ParseError("expected a generator label", start)
        return out, start

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def _atom(scanner, system):
    word = scanner.try_basis()
    if word is None:
        raise ParseError("expected a basis element like x[..] or xS",
                         scanner.pos)
    ch = scanner.peek()
    if ch == "S":
        scanner.pos += 1
        return word, system.full_mask
    scanner.expect("[")
    mask = 0
    if scanner.peek() == "]":
        scanner.pos += 1
        return word, 0
    while True:
        name, at = scanner.label()
        try:
            mask |= system.mask_of_labels([name])
        except InvalidSubset:
            raise ParseError("unknown generator label '%s'" % name, at)
        ch = scanner.peek()
        if ch == ",":
            scanner.pos += 1
            continue
        if ch == "]":
            scanner.pos += 1
            return word, mask
        raise ParseError("expected ',' or ']'", scanner.pos)


def _term(scanner, system):
    ch = scanner.peek()
    if ch.isdigit():
        coeff = scanner.number()
        if scanner.peek() == "*":
            scanner.pos += 1
        else:
            raise ParseError("expected '*' after the coefficient",
                             scanner.pos)
    else:
        coeff = Fraction(1)
    tag, mask = _atom(scanner, system)
    nums = [0] * (1 << system.rank)
    nums[mask] = coeff.numerator
    return DescentVector.from_ints(system, nums, coeff.denominator, tag)


def parse_expression(system, text):
    """One linear combination, returned on the basis of its first atom."""
    scanner = _Scanner(text)
    if scanner.done():
        raise ParseError("empty expression", 0)
    if text.strip() == "0":
        return DescentVector.zero(system)
    sign = 1
    ch = scanner.peek()
    if ch in "+-":
        scanner.pos += 1
        sign = -1 if ch == "-" else 1
    total = sign * _term(scanner, system)
    while not scanner.done():
        ch = scanner.peek()
        if ch == "+":
            scanner.pos += 1
            total = total + _term(scanner, system)
        elif ch == "-":
            scanner.pos += 1
            total = total - _term(scanner, system)
        else:
            raise ParseError("expected '+' or '-'", scanner.pos)
    return total

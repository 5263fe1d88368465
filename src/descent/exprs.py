"""Parser for linear combinations of basis elements.

Grammar, informally:

    expr  := '0' | ['+'|'-'] term (('+'|'-') term)*
    term  := [rational '*'] atom | rational '*' atom
    atom  := basis '[' labels ']' | basis 'S'
    basis := 'x' | 'y' | 'xp'

Labels are the system's own generator names, comma separated (1-based
numbers, plus the primed fork label in the D family). 'xS' abbreviates
the full subset, 'x[]' the empty one. Rationals look like '3' or '5/2'.
A lone '0' is the zero element, as ``str`` prints it. The result is on
the basis of the first atom; terms on other bases are changed to it.
"""

from __future__ import annotations

from math import lcm

from .algebra import DescentVector
from .errors import InvalidSubset, ParseError

# each word is its basis tag; "xp" is tried before "x"
_BASIS_WORDS = ("xp", "x", "y")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def run(self, accept):
        """The characters that ``accept`` takes from here on, consumed."""
        start = self.pos
        while self.pos < len(self.text) and accept(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def skip_ws(self):
        self.run(str.isspace)

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
        """(numerator, denominator) of a coefficient like '3' or '5/2'."""
        self.skip_ws()
        start = self.pos
        digits = self.run(str.isdigit)
        if not digits:
            raise ParseError("expected a number", start)
        num = int(digits)
        if self.peek() != "/":
            return num, 1
        self.pos += 1
        dstart = self.pos
        digits = self.run(str.isdigit)
        if not digits:
            raise ParseError("expected a denominator", dstart)
        if int(digits) == 0:
            raise ParseError("zero denominator", dstart)
        return num, int(digits)

    def label(self):
        self.skip_ws()
        start = self.pos
        out = self.run(lambda ch: ch.isdigit() or ch == "p")
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
    if scanner.peek() == "S":
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
    """(basis tag, mask, numerator, denominator) of one term."""
    num, den = 1, 1
    if scanner.peek().isdigit():
        num, den = scanner.number()
        if scanner.peek() == "*":
            scanner.pos += 1
        else:
            raise ParseError("expected '*' after the coefficient",
                             scanner.pos)
    return _atom(scanner, system) + (num, den)


def parse_expression(system, text):
    """One linear combination, returned on the basis of its first atom.

    Each basis collects its terms' integer numerators over one common
    denominator, the lcm of theirs; the vectors of the other bases are
    then added to the first, one change of basis each."""
    scanner = _Scanner(text)
    if scanner.done():
        raise ParseError("empty expression", 0)
    if text.strip() == "0":
        return DescentVector.zero(system)
    terms = {}
    while not terms or not scanner.done():
        ch = scanner.peek()
        sign = -1 if ch == "-" else 1
        if ch in "+-":
            scanner.pos += 1
        elif terms:
            raise ParseError("expected '+' or '-'", scanner.pos)
        tag, mask, num, den = _term(scanner, system)
        terms.setdefault(tag, []).append((mask, sign * num, den))
    vecs = []
    for tag, items in terms.items():
        den = lcm(*(d for _m, _n, d in items))
        nums = [0] * (1 << system.rank)
        for mask, num, d in items:
            nums[mask] += num * (den // d)
        vecs.append(DescentVector.from_ints(system, nums, den, tag))
    return sum(vecs[1:], vecs[0])

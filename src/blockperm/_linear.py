"""Integer linear combinations over hashable, orderable basis keys."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from itertools import chain


class LinearCombination:
    """Finite integer linear combination of basis keys.

    Zero coefficients are never stored.  The constructor is the one place
    that sums repeated keys: every producer hands it ``(key, coeff)`` pairs.
    Instances are treated as immutable; arithmetic returns fresh objects of
    the same subclass.  Printing joins the terms, sorted by basis key, with
    " + ", each term rendered as ``coefficient*key`` via the subclass hook
    ``term_str``.  A subclass may set the hook ``sort_key`` to a key function
    that orders its basis keys as ``<`` does, taken once per term.
    """

    __slots__ = ("terms",)
    sort_key = None

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            c = data.get(key, 0) + coeff
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        self.terms = data

    @classmethod
    def basis(cls, key, coeff: int = 1):
        return cls({key: coeff})

    def coeff(self, key) -> int:
        return self.terms.get(key, 0)

    def sorted_terms(self) -> list[tuple]:
        return [(key, self.terms[key]) for key in sorted(self.terms, key=self.sort_key)]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = type(self).__new__(type(self))
        out.terms = {key: -coeff for key, coeff in self.terms.items()}
        return out

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return type(self)()
        out = type(self).__new__(type(self))
        out.terms = {key: scalar * coeff for key, coeff in self.terms.items()}
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __hash__(self):
        return hash((type(self).__name__, tuple(self.sorted_terms())))

    @staticmethod
    def term_str(key) -> str:
        return str(key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{coeff}*{self.term_str(key)}" for key, coeff in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


def parse_terms(text: str, parse_key: Callable, cls: type) -> LinearCombination:
    """Read the signed-sum text form into an instance of ``cls``.

    The text is "0" or ``coefficient*term`` pieces joined by " + "; a bare
    term has coefficient 1, and ``parse_key`` reads each term.  A valid sum
    that is not canonical (a coefficient not spelled as ``str(int)``, a term
    holding whitespace, a zero coefficient, a repeated term, or terms out of
    order) is rejected with its canonical form in the message.  Whitespace
    around the whole text is accepted.  ``parse_key`` returns a key only for
    text that equals ``cls.term_str(key)`` once its whitespace is removed,
    and ``term_str`` prints none, so a term without whitespace is canonical.
    """
    s = text.strip()
    if s == "0":
        return cls()
    pairs: list[tuple] = []
    problem = None
    for pos, piece in enumerate(s.split(" + ")):
        coeff_text, star, key_text = piece.partition("*")
        if not star:
            coeff_text, key_text = "1", piece
        try:
            coeff = int(coeff_text)
        except ValueError:
            raise ValueError(
                f"term {pos}: bad coefficient {coeff_text!r} in {piece!r}"
            ) from None
        key = parse_key(key_text)
        if problem is None:
            if coeff_text != str(coeff):
                problem = f"term {pos}: coefficient {coeff_text!r} should read {str(coeff)!r}"
            elif key_text.split() != [key_text]:  # whitespace in the term
                problem = f"term {pos}: term {key_text!r} should read {cls.term_str(key)!r}"
            elif not coeff:
                problem = f"term {pos}: zero coefficient"
            elif pairs and not pairs[-1][0] < key:
                order = "repeated term" if key == pairs[-1][0] else "terms out of order"
                problem = f"term {pos}: {order}"
        pairs.append((key, coeff))
    out = cls(pairs)
    if problem:
        raise ValueError(f"non-canonical sum {text!r} ({problem}); canonical form is {out}")
    return out

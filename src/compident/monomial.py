"""Sparse integer-coefficient monomials and polynomials over the model parameters.

Parameter order is fixed everywhere: the n diagonal rate constants a11..ann in
vertex order, followed by one off-diagonal rate per edge in graph edge order.
Monomial strings follow the grammar ``a<i><j>`` joined by ``*``, with integer
exponents written ``^e`` and ``1`` for the empty monomial, e.g.
``a12*a21^-1``.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_monomial(names: Sequence[str], exponents: Sequence[int]) -> str:
    """Render an exponent vector as a monomial string over the given names.

    Factors come out sorted by name, so the text is independent of slot
    order; ``1`` stands for the empty monomial.
    """
    parts = []
    for name, e in sorted(zip(names, exponents)):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial(names: Sequence[str], text: str) -> tuple[int, ...]:
    """Inverse of format_monomial for a known name list."""
    slots = {name: k for k, name in enumerate(names)}
    expo = [0] * len(names)
    text = text.strip()
    if text == "1":
        return tuple(expo)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        if name not in slots:
            raise ValueError(f"unknown parameter {name!r} in monomial {text!r}")
        expo[slots[name]] += int(power) if power else 1
    return tuple(expo)


class MonomialPolynomial:
    """Multivariate polynomial with integer coefficients, stored sparsely.

    Terms map exponent tuples (one slot per parameter) to nonzero integer
    coefficients. Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for expo, coeff in terms.items():
                self.add_term(expo, coeff)

    def add_term(self, exponents: Sequence[int], coeff: int) -> None:
        if coeff == 0:
            return
        key = tuple(exponents)
        if len(key) != self.nvars:
            raise ValueError(f"exponent vector has length {len(key)}, expected {self.nvars}")
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in a fixed order: descending lexicographic on exponents."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def render(self, names: Sequence[str]) -> str:
        """Human-readable form, e.g. ``a11*a22 - a12*a21``."""
        if not self.terms:
            return "0"
        out = []
        for expo, coeff in self.sorted_terms():
            mono = format_monomial(names, expo)
            if mono == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not out:
                out.append(body if coeff > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self):
        return f"MonomialPolynomial(nvars={self.nvars}, terms={len(self.terms)})"


def signed_parts(poly: MonomialPolynomial, names: Sequence[str]) -> tuple[int, str]:
    """Split a polynomial into an overall sign and a rendered magnitude.

    Returns (+1, text) normally; (-1, text) when every coefficient is
    negative, with text rendering the negated polynomial. Used to print
    coefficients like ``- (a11 + a22)`` instead of ``+ (-a11 - a22)``.
    """
    if poly.terms and all(c < 0 for c in poly.terms.values()):
        flipped = MonomialPolynomial(poly.nvars, {e: -c for e, c in poly.terms.items()})
        return -1, flipped.render(names)
    return 1, poly.render(names)

"""Monomials and polynomials over the model parameters, as text.

Parameter order is fixed everywhere: the n diagonal rate constants a11..ann in
vertex order, followed by one off-diagonal rate per edge in graph edge order.
A monomial is an exponent vector over that order, and a polynomial a dict
``{exponents: coefficient}``. Monomial strings join rate names
(`CompartmentGraph.rate_name`) by ``*``, with integer exponents written ``^e``
and ``1`` for the empty monomial, e.g. ``a12*a21^-1``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence


def name_order(names: Sequence[str]) -> list[tuple[int, str]]:
    """The (slot, name) pairs of a name list, sorted by name: the order in
    which `render_monomial` writes the factors of every monomial over it.
    Sort a name list once and render all its monomials with the result."""
    return sorted(enumerate(names), key=itemgetter(1))


def render_monomial(order: Sequence[tuple[int, str]], exponents: Sequence[int]) -> str:
    """Render an exponent vector as a monomial string, factors in the
    `name_order` of its names; ``1`` stands for the empty monomial."""
    parts = []
    for k, name in order:
        e = exponents[k]
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_monomial(names: Sequence[str], exponents: Sequence[int]) -> str:
    """Render an exponent vector as a monomial string over the given names.

    Factors come out sorted by name, so the text is independent of slot
    order; ``1`` stands for the empty monomial. One sort per call: to
    render many monomials over one name list, use `render_monomial`.
    """
    return render_monomial(name_order(names), exponents)


def parse_monomial(names: Sequence[str], text: str) -> tuple[int, ...]:
    """Inverse of format_monomial for a known name list.

    Factors may come in any order, but each must be one that
    `render_monomial` writes: a name of the list that no other factor
    names, alone or followed by ^e, where e is an int other than 0 and 1
    written as str(e) writes it. Anything else raises ValueError naming
    the bad factor and its monomial, so a12^, a12^x, a12^1.5, a12^--1,
    a12^+1, a12^0, a12^1, a12^1_0 and a12*a12 are refused.
    """
    slots = {name: k for k, name in enumerate(names)}
    expo = [0] * len(names)
    text = text.strip()
    if text == "1":
        return tuple(expo)
    for factor in text.split("*"):
        name, caret, power = factor.partition("^")
        # a power other than digits after an optional - reads as 1, which the check refuses
        e = int(power) if caret and power.removeprefix("-").isdecimal() else 1
        if name not in slots or expo[slots[name]] or caret and (str(e) != power or e in (0, 1)):
            raise ValueError(f"bad factor {factor!r} in monomial {text!r}")
        expo[slots[name]] = e
    return tuple(expo)


def format_polynomial(terms: Mapping[tuple[int, ...], int], order: Sequence[tuple[int, str]]) -> str:
    """Render ``{exponents: coefficient}`` as e.g. ``a11*a22 - a12*a21``,
    terms in descending lexicographic order of their exponents, over names
    in `name_order`."""
    out = []
    for expo, coeff in sorted(terms.items(), reverse=True):
        body = render_monomial(order, expo)
        if abs(coeff) != 1:
            body = str(abs(coeff)) if body == "1" else f"{abs(coeff)}*{body}"
        if out:
            out.append(("- " if coeff < 0 else "+ ") + body)
        else:
            out.append("-" + body if coeff < 0 else body)
    return " ".join(out) or "0"


def signed_parts(terms: Mapping[tuple[int, ...], int], order: Sequence[tuple[int, str]]) -> tuple[int, str]:
    """Split a polynomial into an overall sign and a rendered magnitude,
    over names in `name_order`.

    Returns (+1, text) normally; (-1, text) when every coefficient is
    negative, with text rendering the negated polynomial. Used to print
    coefficients like ``- (a11 + a22)`` instead of ``+ (-a11 - a22)``.
    """
    if terms and all(c < 0 for c in terms.values()):
        return -1, format_polynomial({e: -c for e, c in terms.items()}, order)
    return 1, format_polynomial(terms, order)

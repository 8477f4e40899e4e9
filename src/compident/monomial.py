"""Monomials and polynomials over the model parameters, as text.

A monomial is an exponent vector over the parameter order
(`CompartmentGraph.param_names`), and a polynomial a dict
``{exponents: coefficient}``. Monomial strings join rate names by ``*``,
factors sorted by name so the text is independent of slot order, with
integer exponents written ``^e`` and ``1`` for the empty monomial, e.g.
``a12*a21^-1``."""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence


def name_order(names: Sequence[str]) -> list[tuple[int, str]]:
    """The (slot, name) pairs of a name list, sorted by name: the order in
    which `render_monomial` writes the factors of every monomial over it, so
    a name list is sorted once for all its monomials."""
    return sorted(enumerate(names), key=itemgetter(1))


def render_monomial(order: Sequence[tuple[int, str]], exponents: Sequence[int]) -> str:
    """An exponent vector as a monomial string (module docstring) over the
    `name_order` of its names."""
    parts = []
    for k, name in order:
        e = exponents[k]
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_monomial(names: Sequence[str], exponents: Sequence[int]) -> str:
    """`render_monomial` over the given names, at one sort per call."""
    return render_monomial(name_order(names), exponents)


def parse_monomial(names: Sequence[str], text: str) -> tuple[int, ...]:
    """Inverse of format_monomial for a known name list. Factors may come
    in any order, but each must be one that `render_monomial` writes: a name
    of the list that no other factor names, alone or followed by ^e, where e
    is an int other than 0 and 1 written as str(e) writes it. Anything else
    raises ValueError naming the bad factor and its monomial, so a12^, a12^x,
    a12^1.5, a12^--1, a12^+1, a12^0, a12^1, a12^1_0 and a12*a12 are
    refused."""
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


def signed_parts(terms: Mapping[tuple[int, ...], int], order: Sequence[tuple[int, str]]) -> tuple[int, str]:
    """(sign, text) of a nonempty polynomial whose every coefficient is +-1,
    as every polynomial of `charpoly.symbolic_coefficients` is: (-1, the
    negated polynomial's text) when every coefficient is -1, else (+1, its
    text), so a coefficient prints as ``- (a11 + a22)``, not ``+ (-a11 - a22)``.
    Terms come in descending lexicographic order of exponents, over names in
    `name_order`, e.g. ``a11*a22 - a12*a21``."""
    sign = -1 if all(c < 0 for c in terms.values()) else 1
    text = ""
    for expo, coeff in sorted(terms.items(), reverse=True):
        minus = coeff * sign < 0
        if text:
            text += " - " if minus else " + "
        elif minus:
            text += "-"
        text += render_monomial(order, expo)
    return sign, text

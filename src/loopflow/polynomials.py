"""Polynomials on R^n as coefficient maps, with exact gradients.

Terms are stored as {exponent tuple: coefficient}. This is all the
finite-dimensional verifier needs: exact values, exact gradients, and a
serialization that round-trips through configuration files.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Polynomial", "polynomial", "from_term_list"]


@dataclass(frozen=True)
class Polynomial:
    n_vars: int
    terms: tuple  # ((exponents, coefficient), ...) with exponents a tuple of ints

    def value(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for exps, coef in self.terms:
            mono = np.ones(x.shape[:-1])
            for j, e in enumerate(exps):
                if e:
                    mono = mono * x[..., j] ** e
            total = total + coef * mono
        return total if total.shape else float(total)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        grad = np.zeros(x.shape)
        for exps, coef in self.terms:
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                mono = np.full(x.shape[:-1], coef * e)
                for k, ek in enumerate(exps):
                    power = ek - 1 if k == j else ek
                    if power:
                        mono = mono * x[..., k] ** power
                grad[..., j] += mono
        return grad

    def term_list(self):
        return [[list(exps), coef] for exps, coef in self.terms]

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coef in self.terms:
            mono = "".join(
                f"x{j}^{e}" if e > 1 else (f"x{j}" if e == 1 else "")
                for j, e in enumerate(exps)
            )
            pieces.append(f"{coef:g}{mono}" if mono else f"{coef:g}")
        return " + ".join(pieces)


def polynomial(terms, n_vars=None):
    """Build a Polynomial from a {exponents: coefficient} mapping."""
    items = []
    seen_arity = n_vars
    for exps, coef in terms.items():
        if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) for e in exps):
            raise ValueError(f"non-integer exponent in term {exps}")
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in term {exps}")
        if seen_arity is None:
            seen_arity = len(exps)
        elif len(exps) != seen_arity:
            raise ValueError(
                f"term {exps} has arity {len(exps)}, expected {seen_arity}"
            )
        coef = float(coef)
        if not np.isfinite(coef):
            raise ValueError(f"non-finite coefficient for term {exps}")
        if coef != 0.0:
            items.append((exps, coef))
    if seen_arity is None:
        raise ValueError("cannot infer arity of an empty polynomial")
    items.sort()
    return Polynomial(n_vars=seen_arity, terms=tuple(items))


def from_term_list(pairs):
    """Build from [[exponents, coefficient], ...] as found in config files."""
    terms = {}
    for entry in pairs:
        if len(entry) != 2:
            raise ValueError(f"malformed polynomial term {entry!r}")
        exps, coef = entry
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + float(coef)
    return polynomial(terms)

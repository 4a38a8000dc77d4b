"""Affine subscript extraction.

Dependence tests operate on subscripts of the form
``a₁·i₁ + a₂·i₂ + … + c`` with integer coefficients over the enclosing loop
indices.  :func:`affine_of` recognizes that form structurally; anything else
(symbolic scalars, products of indices, intrinsics, array loads inside a
subscript) returns ``None`` and the dependence tester treats the pair
conservatively (dependence assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from repro.ir.expr import BinOp, Const, Expr, Unary, Var


@dataclass(frozen=True)
class AffineForm:
    """``Σ coeffs[v]·v + const`` with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def from_dict(coeffs: dict[str, int], const: int) -> "AffineForm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return AffineForm(items, const)

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def coeff(self, var: str) -> int:
        return self.as_dict().get(var, 0)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AffineForm") -> "AffineForm":
        out = self.as_dict()
        for v, c in other.coeffs:
            out[v] = out.get(v, 0) + c
        return AffineForm.from_dict(out, self.const + other.const)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scale(-1)

    def scale(self, k: int) -> "AffineForm":
        return AffineForm.from_dict(
            {v: c * k for v, c in self.coeffs}, self.const * k
        )

    def evaluate(self, env: dict[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)


def affine_of(expr: Expr, loop_vars: Container[str]) -> AffineForm | None:
    """Extract an affine form over ``loop_vars``, or None if not affine.

    Variables outside ``loop_vars`` (symbolic problem sizes etc.) make the
    subscript non-affine *for dependence purposes* — their runtime value is
    unknown, so no exact test applies.
    """

    def go(e: Expr) -> AffineForm | None:
        if isinstance(e, Const):
            if isinstance(e.value, int):
                return AffineForm((), e.value)
            return None
        if isinstance(e, Var):
            if e.name in loop_vars:
                return AffineForm(((e.name, 1),), 0)
            return None
        if isinstance(e, Unary) and e.op == "-":
            inner = go(e.operand)
            return None if inner is None else inner.scale(-1)
        if isinstance(e, BinOp):
            if e.op == "+":
                a, b = go(e.lhs), go(e.rhs)
                if a is None or b is None:
                    return None
                return a + b
            if e.op == "-":
                a, b = go(e.lhs), go(e.rhs)
                if a is None or b is None:
                    return None
                return a - b
            if e.op == "*":
                a, b = go(e.lhs), go(e.rhs)
                if a is None or b is None:
                    return None
                if a.is_constant:
                    return b.scale(a.const)
                if b.is_constant:
                    return a.scale(b.const)
                return None  # index × index: not affine
            return None
        return None

    return go(expr)

"""Scalar reference for the ring's elements and structure maps.

Element is the scalar element arithmetic that the library does not carry:
+, -, *, ** and negation one element at a time, equality and hashing by
coefficients and ring key, the flat index and is_zero.  Products read the
ring's companion-power table and powers its multiplication matrix;
test_multiplication_matches_reference checks both against schoolbook
division.  Element subclasses the library's RingElement record, so
is_unit, coeff_string, build_graph and the other entry points that take a
gamma take an Element too.  lift turns the library's records (gamma,
ctx.one, ctx.xi) into Elements; element, from_index, zero, x and units
build them from coefficients, a flat index, or the digit rows of G1.

The Teichmuller digit expansion a = sum(b_i p^i) (padic_coords) is read
off the residues mod p through those scalar units.  The Frobenius
automorphism sigma comes from its definition, b_i -> b_i^p on those
digits (frobenius_by_digits), and the trace is the sum of the r
conjugates sigma^k(a).  None of it reads trace_form or trace_gram.

sigma is Z_q-linear, so frobenius_matrix builds its matrix once per ring
from the r images sigma(x^i); frobenius and trace apply that matrix.

unfiltered_modulus is the modulus search without its root pre-filter: it
runs the primitivity test on every candidate in scan order.
"""

import functools
import random
from dataclasses import dataclass

import numpy as np

from grcayley import ModulusPoly
from grcayley.ring import RingElement, _matpow, _multiplication_matrix, _x_is_primitive


class Element(RingElement):
    """Residue class in Z_q[x]/(f) with scalar arithmetic."""

    __slots__ = ()

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError(f"cannot combine Element with {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx.key != other.ctx.key:
            raise ValueError(
                "elements belong to different rings: "
                f"{self.ctx.describe()} vs {other.ctx.describe()}"
            )

    def __add__(self, other):
        self._check(other)
        q = self.ctx.q
        return Element(self.ctx, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        q = self.ctx.q
        return Element(self.ctx, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Element(self.ctx, tuple((-a) % self.ctx.q for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        # row i of the inner product is x^i * other; entries stay below 2^50
        prod = self.coeffs @ (ctx._cpow[: ctx.r] @ other.coeffs) % ctx.q
        return Element(ctx, tuple(prod.tolist()))

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"exponent must be an int >= 0, got {exponent!r}")
        power = _matpow(_multiplication_matrix(self), exponent, self.ctx.q)
        return Element(self.ctx, tuple(power[:, 0].tolist()))

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.ctx.key == other.ctx.key

    def __hash__(self):
        return hash((self.coeffs, self.ctx.key))

    @property
    def is_zero(self):
        return not any(self.coeffs)

    @property
    def index(self):
        """Flat vertex id sum(c_i * q^i)."""
        return sum(c * w for c, w in zip(self.coeffs, self.ctx._weights))

    def __repr__(self):
        return f"Element({self.coeffs!r})"


def lift(a):
    """The Element with a's ring and coefficients, for any RingElement a."""
    return Element(a.ctx, tuple(a.coeffs))


def element(ctx, coeffs):
    """ctx.element(coeffs) as an Element: padded to r, reduced mod q."""
    return lift(ctx.element(coeffs))


def from_index(ctx, index):
    """The element with flat index sum(c_i * q^i) = index."""
    return Element(ctx, tuple(index // w % ctx.q for w in ctx._weights))


def zero(ctx):
    return Element(ctx, (0,) * ctx.r)


def x(ctx):
    return element(ctx, [0, 1])


@functools.lru_cache(maxsize=16)
def units(ctx):
    """xi^0 .. xi^(p^r - 2) as Elements, from the rows of ctx.teich_digits."""
    return tuple(Element(ctx, tuple(row)) for row in ctx.teich_digits.tolist())


def unfiltered_modulus(params):
    """First primitive candidate of find_basic_irreducible's scan, testing
    every candidate; returns (modulus, number of primitivity tests)."""
    p, r = params.p, params.r
    count = p**r
    offset = random.Random(params.seed).randrange(count)
    for step in range(count):
        k = (offset + step) % count
        cand = tuple((k // p**i) % p for i in range(r)) + (1,)
        if _x_is_primitive(cand, p):
            return ModulusPoly(cand), step + 1
    raise AssertionError(f"no primitive degree-{r} polynomial mod {p}")


@dataclass(frozen=True)
class PAdicCoords:
    """Digits (b_0, ..., b_{e-1}) of a = sum b_i p^i, each a Teichmuller
    unit or zero; valuation is the first index with b_i != 0, or e for a = 0."""

    digits: tuple
    valuation: int


def project_residue(a):
    """Coefficient vector of the image of a in the residue field F_(p^r)."""
    return tuple(c % a.ctx.p for c in a.coeffs)


@functools.lru_cache(maxsize=16)
def _unit_over_residue(ctx):
    """Residue vector -> the Teichmuller unit over it, and zero over zero."""
    table = {project_residue(u): u for u in units(ctx)}
    table[project_residue(zero(ctx))] = zero(ctx)
    return table


def padic_coords(a):
    """Teichmuller digit expansion a = sum(b_i p^i), b_i in G1 or zero.

    Each digit is the unit over the residue of what is left; subtracting
    it leaves a multiple of p, divided out coefficientwise mod q/p^(i+1).
    """
    ctx = a.ctx
    table = _unit_over_residue(ctx)
    digits, vec, mod = [], list(a.coeffs), ctx.q
    for _ in range(ctx.e):
        digit = table[tuple(c % ctx.p for c in vec)]
        digits.append(digit)
        vec = [((c - d) % mod) // ctx.p for c, d in zip(vec, digit.coeffs)]
        mod //= ctx.p
    nonzero = [i for i, digit in enumerate(digits) if not digit.is_zero]
    return PAdicCoords(tuple(digits), nonzero[0] if nonzero else ctx.e)


def frobenius_by_digits(a, k=1):
    """sigma^k(a) from the definition: b_i -> b_i^(p^k) on the digits of a."""
    ctx = a.ctx
    out = zero(ctx)
    for i, digit in enumerate(padic_coords(a).digits):
        out = out + digit ** (ctx.p**k) * element(ctx, [ctx.p**i])
    return out


@functools.lru_cache(maxsize=64)
def frobenius_matrix(ctx, k=1):
    """(r, r) matrix of sigma^k on coefficient vectors, read-only: the k-th
    power of the matrix whose column i is frobenius_by_digits(x^i)."""
    if k == 0:
        out = np.eye(ctx.r, dtype=np.int64)
    elif k > 1:
        out = frobenius_matrix(ctx, 1) @ frobenius_matrix(ctx, k - 1) % ctx.q
    else:
        cols = [frobenius_by_digits(x(ctx) ** i).coeffs for i in range(ctx.r)]
        out = np.array(cols, dtype=np.int64).T
    out.flags.writeable = False
    return out


def frobenius(a, k=1):
    """sigma^k(a), k >= 0, through frobenius_matrix."""
    coeffs = frobenius_matrix(a.ctx, k) @ np.array(a.coeffs, dtype=np.int64)
    return element(a.ctx, coeffs.tolist())


@functools.lru_cache(maxsize=16)
def _trace_row(ctx):
    """Row 0 of sum_k sigma^k; the other rows vanish, since T(a) lies in Z_q."""
    total = sum(frobenius_matrix(ctx, k) for k in range(ctx.r)) % ctx.q
    assert not total[1:].any(), "the conjugate sum is not scalar-valued"
    return tuple(total[0].tolist())


def trace(a):
    """Sum of the r Frobenius conjugates, an element of Z_q reported as an int."""
    return sum(t * c for t, c in zip(_trace_row(a.ctx), a.coeffs)) % a.ctx.q

"""Scalar reference for the ring's structure maps.

The Teichmuller digit expansion a = sum(b_i p^i) (padic_coords) is read
off the residues mod p through the scalar units ctx.teichmuller_units.
The Frobenius automorphism sigma comes from its definition, b_i -> b_i^p
on those digits (frobenius_by_digits), and the trace is the sum of the r
conjugates sigma^k(a).  None of it reads trace_form or trace_gram.  Its
products and powers are RingElement's * and **, which
test_multiplication_matches_reference checks against schoolbook division.

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
from grcayley.ring import _x_is_primitive


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
def _lift(ctx):
    """Residue vector -> the Teichmuller unit over it, and zero over zero."""
    table = {project_residue(u): u for u in ctx.teichmuller_units}
    table[project_residue(ctx.zero)] = ctx.zero
    return table


def padic_coords(a):
    """Teichmuller digit expansion a = sum(b_i p^i), b_i in G1 or zero.

    Each digit is the unit over the residue of what is left; subtracting
    it leaves a multiple of p, divided out coefficientwise mod q/p^(i+1).
    """
    ctx = a.ctx
    lift = _lift(ctx)
    digits, vec, mod = [], list(a.coeffs), ctx.q
    for _ in range(ctx.e):
        digit = lift[tuple(c % ctx.p for c in vec)]
        digits.append(digit)
        vec = [((c - d) % mod) // ctx.p for c, d in zip(vec, digit.coeffs)]
        mod //= ctx.p
    nonzero = [i for i, digit in enumerate(digits) if not digit.is_zero]
    return PAdicCoords(tuple(digits), nonzero[0] if nonzero else ctx.e)


def frobenius_by_digits(a, k=1):
    """sigma^k(a) from the definition: b_i -> b_i^(p^k) on the digits of a."""
    ctx = a.ctx
    out = ctx.zero
    for i, digit in enumerate(padic_coords(a).digits):
        out = out + digit ** (ctx.p**k) * ctx.element([ctx.p**i])
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
        cols = [frobenius_by_digits(ctx.x**i).coeffs for i in range(ctx.r)]
        out = np.array(cols, dtype=np.int64).T
    out.flags.writeable = False
    return out


def frobenius(a, k=1):
    """sigma^k(a), k >= 0, through frobenius_matrix."""
    coeffs = frobenius_matrix(a.ctx, k) @ np.array(a.coeffs, dtype=np.int64)
    return a.ctx.element(coeffs.tolist())


@functools.lru_cache(maxsize=16)
def _trace_row(ctx):
    """Row 0 of sum_k sigma^k; the other rows vanish, since T(a) lies in Z_q."""
    total = sum(frobenius_matrix(ctx, k) for k in range(ctx.r)) % ctx.q
    assert not total[1:].any(), "the conjugate sum is not scalar-valued"
    return tuple(total[0].tolist())


def trace(a):
    """Sum of the r Frobenius conjugates, an element of Z_q reported as an int."""
    return sum(t * c for t, c in zip(_trace_row(a.ctx), a.coeffs)) % a.ctx.q

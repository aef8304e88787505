"""Ring construction and structure maps, checked against reference
implementations written directly in this file."""

import random

import numpy as np
import pytest

from grcayley import (
    ContextMismatchError,
    ModulusError,
    ModulusPoly,
    ParameterError,
    RangeError,
    RingParams,
    find_basic_irreducible,
    frobenius,
    is_unit,
    make_ring,
    padic_coords,
    project_residue,
    trace,
    trace_basis_matrix,
)
from grcayley.ring import coeff_string, parse_coeff_string


# ---------------------------------------------------------------------------
# Reference polynomial arithmetic, independent of the package internals.


def ref_mulmod(a, b, f, q):
    """Product in Z_q[x]/(f) by convolution and long division, f monic."""
    deg = len(f) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    for m in range(len(conv) - 1, deg - 1, -1):
        c = conv[m] % q
        if c:
            for i, fc in enumerate(f):
                conv[m - deg + i] -= c * fc
    out = [c % q for c in conv[:deg]]
    out += [0] * (deg - len(out))
    return tuple(out)


def ref_fp_divides(d, f, p):
    """Whether monic d divides f over F_p."""
    rem = list(f)
    dd = len(d) - 1
    for m in range(len(rem) - 1, dd - 1, -1):
        c = rem[m] % p
        if c:
            for i, dc in enumerate(d):
                rem[m - dd + i] = (rem[m - dd + i] - c * dc) % p
    return all(c % p == 0 for c in rem)


def ref_fp_irreducible(f, p):
    """Irreducibility over F_p by trying every monic divisor of low degree."""
    r = len(f) - 1
    for k in range(1, r // 2 + 1):
        for lowbits in range(p**k):
            d = []
            kk = lowbits
            for _ in range(k):
                d.append(kk % p)
                kk //= p
            d.append(1)
            if ref_fp_divides(d, f, p):
                return False
    return True


def ref_fp_powmod_x(exp, f, p):
    """x^exp mod f over F_p, by repeated multiplication."""
    deg = len(f) - 1
    acc = [1] + [0] * (deg - 1)
    for _ in range(exp):
        acc = [0] + acc
        c = acc[deg] % p if len(acc) > deg else 0
        acc = acc[:deg] + [0] * (deg - len(acc))
        if c:
            for i in range(deg):
                acc[i] = (acc[i] - c * f[i]) % p
    return tuple(a % p for a in acc)


# ---------------------------------------------------------------------------
# Parameters and modulus search.


def test_params_validation():
    with pytest.raises(ParameterError):
        RingParams(4, 2, 2)
    with pytest.raises(ParameterError):
        RingParams(2, 1, 2)
    with pytest.raises(ParameterError):
        RingParams(2, 2, 1)
    with pytest.raises(ParameterError):
        RingParams(1, 2, 2)
    with pytest.raises(ParameterError):
        RingParams(2, 2, 17)
    with pytest.raises(ParameterError):
        RingParams(3, 2, 11)
    p = RingParams(2, 2, 16)
    assert p.size == 2**32 and p.q == 4


def test_modulus_structural_validation():
    with pytest.raises(ModulusError):
        ModulusPoly((1, 1))
    with pytest.raises(ModulusError):
        ModulusPoly((1, 1, 2))
    with pytest.raises(ModulusError):
        ModulusPoly((-1, 1, 1))
    m = ModulusPoly.parse("1,1,1")
    assert m.coeffs == (1, 1, 1) and m.degree == 2
    assert m.serialize() == "1,1,1"
    with pytest.raises(ModulusError):
        ModulusPoly.parse("1,a,1")


def test_unique_degree2_modulus_for_p2():
    # x^2 + x + 1 is the only monic quadratic that is irreducible mod 2,
    # so every seed must find it
    for seed in range(6):
        mod = find_basic_irreducible(RingParams(2, 2, 2, seed=seed))
        assert mod.coeffs == (1, 1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ModulusError):
        make_ring(RingParams(2, 2, 2), ModulusPoly((1, 0, 1)))


def test_irreducible_but_imprimitive_modulus_rejected():
    # x^2 + 1 mod 3 is irreducible, but x has order 4 < 8 in its quotient
    assert ref_fp_irreducible((1, 0, 1), 3)
    with pytest.raises(ModulusError):
        make_ring(RingParams(3, 2, 2), ModulusPoly((1, 0, 1)))


def test_supplied_primitive_modulus_accepted():
    ctx = make_ring(RingParams(3, 2, 2), ModulusPoly((2, 1, 1)))
    assert ctx.modulus.coeffs == (2, 1, 1)
    assert len(ctx.teichmuller_units) == 8


def test_wrong_degree_and_range_rejected():
    with pytest.raises(ModulusError):
        make_ring(RingParams(2, 2, 3), ModulusPoly((1, 1, 1)))
    with pytest.raises(ModulusError):
        make_ring(RingParams(2, 2, 2), ModulusPoly((5, 1, 1)))


@pytest.mark.parametrize("p,e,r", [(2, 2, 4), (2, 3, 3), (3, 2, 3), (5, 2, 2)])
def test_found_modulus_is_irreducible_by_reference(p, e, r):
    for seed in (0, 1, 7):
        mod = find_basic_irreducible(RingParams(p, e, r, seed=seed))
        fbar = mod.reduced_mod(p)
        assert ref_fp_irreducible(fbar, p)
        # primitivity: the powers of x must run through all p^r - 1 nonzero
        # residues before returning to 1
        seen = set()
        for k in range(1, p**r):
            seen.add(ref_fp_powmod_x(k, fbar, p))
        assert len(seen) == p**r - 1


def test_seed_determinism_and_variation():
    a = find_basic_irreducible(RingParams(2, 2, 4, seed=3))
    b = find_basic_irreducible(RingParams(2, 2, 4, seed=3))
    assert a.coeffs == b.coeffs
    found = {find_basic_irreducible(RingParams(2, 2, 4, seed=s)).coeffs for s in range(16)}
    assert len(found) >= 2


# ---------------------------------------------------------------------------
# Element arithmetic.


@pytest.fixture(scope="module")
def ctx22():
    return make_ring(RingParams(2, 2, 2))


@pytest.fixture(scope="module")
def ctx33():
    return make_ring(RingParams(3, 3, 2))


@pytest.mark.parametrize("p,e,r", [(2, 2, 2), (2, 3, 3), (3, 2, 2), (5, 2, 2)])
def test_multiplication_matches_reference(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    rng = random.Random(99)
    f = ctx.modulus.coeffs
    for _ in range(200):
        a = tuple(rng.randrange(ctx.q) for _ in range(r))
        b = tuple(rng.randrange(ctx.q) for _ in range(r))
        got = (ctx.element(a) * ctx.element(b)).coeffs
        assert got == ref_mulmod(a, b, f, ctx.q)


def test_add_sub_neg(ctx22):
    a = ctx22.element([3, 2])
    b = ctx22.element([2, 3])
    assert (a + b).coeffs == (1, 1)
    assert (a - b).coeffs == (1, 3)
    assert (-a).coeffs == (1, 2)
    assert (a - a).is_zero


def test_pow(ctx22):
    x = ctx22.x
    assert (x**0).coeffs == ctx22.one.coeffs
    assert (x**3).coeffs == ctx22.one.coeffs  # x has order 3 here
    acc = ctx22.one
    for k in range(8):
        assert (x**k).coeffs == acc.coeffs
        acc = acc * x
    with pytest.raises(ParameterError):
        x ** (-1)


def test_scale(ctx22):
    a = ctx22.element([1, 2])
    assert a.scale(3).coeffs == (3, 2)
    assert a.scale(2).coeffs == (2, 0)


def test_context_mismatch(ctx22):
    other = make_ring(RingParams(2, 3, 2))
    with pytest.raises(ContextMismatchError):
        ctx22.one + other.one
    # equal-keyed contexts interoperate
    twin = make_ring(RingParams(2, 2, 2))
    assert (ctx22.one + twin.one).coeffs == (2, 0)


def test_element_padding_and_validation(ctx22):
    assert ctx22.element([1]).coeffs == (1, 0)
    assert ctx22.element([5, 7]).coeffs == (1, 3)
    with pytest.raises(ParameterError):
        ctx22.element([1, 2, 3])


def test_index_roundtrip(ctx22):
    for i in range(16):
        assert ctx22.from_index(i).index == i
    with pytest.raises(RangeError):
        ctx22.from_index(16)
    with pytest.raises(RangeError):
        ctx22.from_index(-1)


def test_bulk_digit_conversion(ctx33):
    idx = np.arange(ctx33.size, dtype=np.int64)
    digits = ctx33.digits_of(idx)
    assert digits.shape == (ctx33.size, ctx33.r)
    back = ctx33.indices_from_digits(digits)
    assert np.array_equal(back, idx)
    one_by_one = np.array([ctx33.from_index(int(i)).coeffs for i in idx[:100]])
    assert np.array_equal(digits[:100], one_by_one)


def test_coeff_string_roundtrip(ctx22):
    a = ctx22.element([2, 3])
    assert coeff_string(a) == "2,3"
    assert parse_coeff_string(ctx22, "2,3") == a
    with pytest.raises(ParameterError):
        parse_coeff_string(ctx22, "2,zz")


# ---------------------------------------------------------------------------
# Teichmuller structure, frozen values for GR(4, 16).


def test_gr4_frozen_values(ctx22):
    assert ctx22.modulus.coeffs == (1, 1, 1)
    assert ctx22.xi.coeffs == (0, 1)
    assert [u.coeffs for u in ctx22.teichmuller_units] == [(1, 0), (0, 1), (3, 3)]
    assert ctx22.trace_form == (2, 3)
    assert trace(ctx22.one) == 2
    assert trace(ctx22.x) == 3
    assert trace(ctx22.element([3, 3])) == 3
    assert frobenius(ctx22.x).coeffs == (3, 3)


def test_xi_is_lifted_power_of_x():
    for p, e, r in [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)]:
        ctx = make_ring(RingParams(p, e, r))
        assert ctx.xi == ctx.x ** (p ** ((e - 1) * r))


@pytest.mark.parametrize("p,e,r", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2)])
def test_teichmuller_group_structure(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    order = p**r - 1
    units = ctx.teichmuller_units
    assert len(units) == order
    assert len({u.coeffs for u in units}) == order
    assert ctx.xi**order == ctx.one
    # the set is exactly the roots of u^(p^r) = u away from zero
    for u in units:
        assert u ** (p**r) == u
        assert is_unit(u)


def test_residue_projection_of_xi_generates_field():
    for p, e, r in [(2, 2, 4), (3, 2, 2), (5, 2, 2)]:
        ctx = make_ring(RingParams(p, e, r))
        fbar = ctx.modulus.reduced_mod(p)
        seen = set()
        acc = (1,) + (0,) * (r - 1)
        for _ in range(p**r - 1):
            seen.add(acc)
            # multiply by the residue of xi using reference arithmetic
            acc = tuple(
                c % p for c in ref_mulmod(acc, project_residue(ctx.xi), fbar, p)
            )
        assert len(seen) == p**r - 1


# ---------------------------------------------------------------------------
# Frobenius and trace.


@pytest.mark.parametrize("p,e,r", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_frobenius_is_ring_automorphism(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    rng = random.Random(7)
    for _ in range(150):
        a = ctx.from_index(rng.randrange(ctx.size))
        b = ctx.from_index(rng.randrange(ctx.size))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
    for k in range(ctx.q):
        c = ctx.one.scale(k)
        assert frobenius(c) == c
    for _ in range(50):
        a = ctx.from_index(rng.randrange(ctx.size))
        assert frobenius(a, r) == a
        assert frobenius(frobenius(a)) == frobenius(a, 2)
    with pytest.raises(ParameterError):
        frobenius(ctx.one, -1)


def test_frobenius_is_pth_power_on_teichmuller():
    for p, e, r in [(2, 2, 4), (3, 2, 3), (2, 4, 2)]:
        ctx = make_ring(RingParams(p, e, r))
        for u in ctx.teichmuller_units:
            assert frobenius(u) == u**p


@pytest.mark.parametrize("p,e,r", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 2, 2)])
def test_trace_matches_conjugate_sum(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    rng = random.Random(13)
    for _ in range(150):
        a = ctx.from_index(rng.randrange(ctx.size))
        total = ctx.zero
        for k in range(r):
            total = total + frobenius(a, k)
        assert total.coeffs[1:] == (0,) * (r - 1)
        assert trace(a) == total.coeffs[0]


@pytest.mark.parametrize("p,e,r", [(2, 2, 2), (2, 2, 4), (3, 2, 2), (2, 3, 2)])
def test_trace_linear_surjective_balanced(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    rng = random.Random(17)
    for _ in range(150):
        a = ctx.from_index(rng.randrange(ctx.size))
        b = ctx.from_index(rng.randrange(ctx.size))
        assert trace(a + b) == (trace(a) + trace(b)) % ctx.q
        assert trace(frobenius(a)) == trace(a)
    values = [trace(ctx.from_index(i)) for i in range(ctx.size)]
    counts = np.bincount(values, minlength=ctx.q)
    assert counts.min() == counts.max() == ctx.size // ctx.q
    assert trace(ctx.one) == r % ctx.q


def test_trace_table_matches_scalar_form(ctx33):
    # no per-element table is built: column 0 of the trace-basis matrix of
    # every element is the table of traces, and must match the scalar trace
    assert ctx33.trace_table is None
    digits = ctx33.digits_of(np.arange(ctx33.size, dtype=np.int64))
    expected = [trace(ctx33.from_index(i)) for i in range(ctx33.size)]
    assert trace_basis_matrix(ctx33, digits)[:, 0].tolist() == expected


# ---------------------------------------------------------------------------
# p-adic coordinates, units, residue projection.


def test_gr4_padic_frozen(ctx22):
    pc = padic_coords(ctx22.element([3, 0]))
    assert [d.coeffs for d in pc.digits] == [(1, 0), (1, 0)]
    assert pc.valuation == 0
    pc = padic_coords(ctx22.element([0, 2]))
    assert [d.coeffs for d in pc.digits] == [(0, 0), (0, 1)]
    assert pc.valuation == 1
    pc = padic_coords(ctx22.zero)
    assert pc.valuation == ctx22.e


@pytest.mark.parametrize("p,e,r", [(2, 2, 3), (2, 4, 2), (3, 3, 2), (5, 2, 2)])
def test_padic_roundtrip_exhaustive(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    teich = {u.coeffs for u in ctx.teichmuller_units} | {ctx.zero.coeffs}
    for i in range(ctx.size):
        a = ctx.from_index(i)
        pc = padic_coords(a)
        assert len(pc.digits) == e
        total = ctx.zero
        for k, digit in enumerate(pc.digits):
            assert digit.coeffs in teich
            total = total + digit.scale(p**k)
        assert total == a
        nonzero = [k for k, digit in enumerate(pc.digits) if not digit.is_zero]
        assert pc.valuation == (nonzero[0] if nonzero else e)
        assert is_unit(a) == (pc.valuation == 0)


def test_unit_iff_residue_nonzero(ctx22):
    for i in range(ctx22.size):
        a = ctx22.from_index(i)
        assert is_unit(a) == any(project_residue(a))


@pytest.mark.parametrize("p,e,r", [(2, 2, 3), (3, 2, 2)])
def test_project_residue_is_homomorphism(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    fbar = ctx.modulus.reduced_mod(p)
    rng = random.Random(23)
    for _ in range(150):
        a = ctx.from_index(rng.randrange(ctx.size))
        b = ctx.from_index(rng.randrange(ctx.size))
        assert project_residue(a * b) == tuple(
            c % p for c in ref_mulmod(project_residue(a), project_residue(b), fbar, p)
        )
        assert project_residue(a + b) == tuple(
            (x + y) % p for x, y in zip(project_residue(a), project_residue(b))
        )


@pytest.mark.parametrize("p,e,r", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_frobenius_matrix_matches_scalar_map(p, e, r):
    ctx = make_ring(RingParams(p, e, r))
    co = ctx.digits_of(np.arange(ctx.size, dtype=np.int64))
    for k in range(r + 1):
        out = (co @ ctx.frobenius_matrix(k).T) % ctx.q
        for i in (0, 1, ctx.size // 3, ctx.size - 1):
            assert tuple(int(c) for c in out[i]) == frobenius(ctx.from_index(i), k).coeffs


def test_frobenius_matrix_rejects_bad_power(ctx22):
    with pytest.raises(ParameterError):
        ctx22.frobenius_matrix(-1)
    with pytest.raises(ParameterError):
        ctx22.frobenius_matrix(1.5)

"""Exact arithmetic in Galois rings GR(p^e, p^(er)).

A ring context fixes a modulus q = p^e and a monic degree-r polynomial f
over Z_q whose reduction mod p is irreducible and primitive.  Elements are
residue classes in Z_q[x]/(f), stored as coefficient tuples
(c_0, ..., c_{r-1}) with 0 <= c_i < q, ascending powers of x.  Primitivity
of the mod-p reduction makes xi = x^(p^((e-1)r)) a generator of the cyclic
group G1 of Teichmuller units (order p^r - 1).  The context holds G1 as one
digit array, teich_digits, built by matrix doubling; the units are not
enumerated as elements at construction, and teichmuller_units builds them
on first read.

Every element has a flat index sum(c_i * q^i); the graph modules use that
index as the vertex id.  digits_of / indices_from_digits convert whole
index arrays at once for the vectorised kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ContextMismatchError,
    IntegrityError,
    ModulusError,
    ParameterError,
    RangeError,
)

MAX_RING_SIZE = 2**32


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p, used only to vet modulus candidates.  Coefficients
# ascending, trailing zeros trimmed, always nonempty.


def _fp_trim(a: list[int]) -> tuple[int, ...]:
    k = len(a)
    while k > 1 and a[k - 1] == 0:
        k -= 1
    return tuple(a[:k])


def _fp_mod(a: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    """a mod f over F_p; f need not be monic."""
    a = list(a)
    df = len(f) - 1
    inv = pow(f[df], -1, p)
    for m in range(len(a) - 1, df - 1, -1):
        c = a[m] % p
        if c:
            c = (c * inv) % p
            for i in range(df + 1):
                a[m - df + i] = (a[m - df + i] - c * f[i]) % p
    return _fp_trim([c % p for c in a[:df]] or [0])


def _fp_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    return _fp_mod([c % p for c in conv], f, p)


def _fp_powmod(base: Sequence[int], exp: int, f: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    acc = _fp_mod(base, f, p)
    while exp:
        if exp & 1:
            result = _fp_mulmod(result, acc, f, p)
        acc = _fp_mulmod(acc, acc, f, p)
        exp >>= 1
    return result


def _fp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b != (0,):
        a, b = b, _fp_mod(a, b, p)
    return a


def _fp_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's test for a polynomial of degree >= 1 over F_p."""
    r = len(f) - 1
    x = (0, 1)
    xq = _fp_powmod(x, p**r, f, p)
    if xq != _fp_mod(x, f, p):
        return False
    for d in _prime_factors(r):
        h = _fp_powmod(x, p ** (r // d), f, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _fp_gcd(diff, f, p)
        if len(g) > 1:
            return False
    return True


def _fp_x_is_primitive(f: Sequence[int], p: int) -> bool:
    """Whether x generates the multiplicative group of F_p[x]/(f), f irreducible."""
    order = p ** (len(f) - 1) - 1
    if _fp_powmod((0, 1), order, f, p) != (1,):
        return False
    for d in _prime_factors(order):
        if _fp_powmod((0, 1), order // d, f, p) == (1,):
            return False
    return True


# ---------------------------------------------------------------------------
# Parameter and modulus value types.


@dataclass(frozen=True)
class RingParams:
    """Validated parameters (p, e, r) of a ring with p^(er) elements.

    seed steers the deterministic modulus search and nothing else.
    """

    p: int
    e: int
    r: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p", "e", "r", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParameterError(f"{name} must be an int, got {v!r}")
        if not _is_prime(self.p):
            raise ParameterError(f"p must be prime, got {self.p}")
        if self.e < 2:
            raise ParameterError(f"e must be at least 2, got {self.e}")
        if self.r < 2:
            raise ParameterError(f"r must be at least 2, got {self.r}")
        if self.p ** (self.e * self.r) > MAX_RING_SIZE:
            raise ParameterError(
                f"ring with p^(e*r) = {self.p}^{self.e * self.r} elements exceeds "
                f"the supported size 2^32"
            )

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def size(self) -> int:
        return self.p ** (self.e * self.r)


@dataclass(frozen=True)
class ModulusPoly:
    """Monic polynomial over Z_q, ascending coefficients, degree len-1."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 3:
            raise ModulusError("modulus must have degree at least 2")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in self.coeffs):
            raise ModulusError("modulus coefficients must be ints")
        if self.coeffs[-1] != 1:
            raise ModulusError("modulus must be monic with leading coefficient 1")
        if any(c < 0 for c in self.coeffs):
            raise ModulusError("modulus coefficients must be non-negative")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def reduced_mod(self, p: int) -> tuple[int, ...]:
        return tuple(c % p for c in self.coeffs)

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "ModulusPoly":
        try:
            coeffs = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ModulusError(f"cannot parse modulus {text!r}") from exc
        return cls(coeffs)

    def validate_for(self, params: RingParams) -> None:
        """Raise ModulusError unless this is a valid modulus for params."""
        if self.degree != params.r:
            raise ModulusError(
                f"modulus degree {self.degree} does not match r = {params.r}"
            )
        if any(c >= params.q for c in self.coeffs):
            raise ModulusError(f"modulus coefficients must lie in [0, {params.q})")
        fbar = self.reduced_mod(params.p)
        if fbar[-1] != 1:
            raise ModulusError("modulus reduction mod p must stay monic")
        if not _fp_is_irreducible(fbar, params.p):
            raise ModulusError(
                f"modulus {self.serialize()} is reducible mod {params.p}"
            )
        if not _fp_x_is_primitive(fbar, params.p):
            raise ModulusError(
                f"modulus {self.serialize()} is irreducible but x is not a "
                f"multiplicative generator mod {params.p}; a primitive reduction "
                f"is required so that x^(p^((e-1)r)) generates the Teichmuller units"
            )


def find_basic_irreducible(params: RingParams) -> ModulusPoly:
    """Deterministically pick a monic degree-r modulus, primitive mod p.

    Candidates are the p^r lifts with lower coefficients in {0..p-1}; the
    scan starts at a seed-dependent offset and wraps, so every seed
    terminates and different seeds can land on different polynomials.
    """
    p, r = params.p, params.r
    count = p**r
    offset = random.Random(params.seed).randrange(count)
    for step in range(count):
        k = (offset + step) % count
        low = []
        kk = k
        for _ in range(r):
            low.append(kk % p)
            kk //= p
        cand = tuple(low) + (1,)
        if not _fp_is_irreducible(cand, p):
            continue
        if not _fp_x_is_primitive(cand, p):
            continue
        return ModulusPoly(cand)
    raise IntegrityError(f"no primitive degree-{r} polynomial found mod {p}")


# ---------------------------------------------------------------------------
# Elements and contexts.


class RingElement:
    """Residue class in Z_q[x]/(f), immutable coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "RingContext", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"cannot combine RingElement with {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx.key != other.ctx.key:
            raise ContextMismatchError(
                "elements belong to different rings: "
                f"{self.ctx.describe()} vs {other.ctx.describe()}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        q = self.ctx.q
        return RingElement(
            self.ctx, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        q = self.ctx.q
        return RingElement(
            self.ctx, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "RingElement":
        q = self.ctx.q
        return RingElement(self.ctx, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ParameterError(f"exponent must be an int, got {exponent!r}")
        if exponent < 0:
            raise ParameterError("negative exponents are not supported")
        result = self.ctx.one
        acc = self
        while exponent:
            if exponent & 1:
                result = result * acc
            acc = acc * acc
            exponent >>= 1
        return result

    def scale(self, k: int) -> "RingElement":
        """Multiply by the integer k (image of k in the ring)."""
        q = self.ctx.q
        return RingElement(self.ctx, tuple((k * a) % q for a in self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.ctx.key == other.ctx.key

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx.key))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def index(self) -> int:
        """Flat vertex id sum(c_i * q^i)."""
        total = 0
        for c, w in zip(self.coeffs, self.ctx._weights):
            total += c * w
        return total

    def __repr__(self) -> str:
        return f"RingElement({self.coeffs!r})"


@dataclass(frozen=True)
class PAdicCoords:
    """Digits (b_0, ..., b_{e-1}) of a = sum b_i p^i, each a Teichmuller
    unit or zero; valuation is the first index with b_i != 0, or e for a = 0."""

    digits: tuple[RingElement, ...]
    valuation: int


class RingContext:
    """All per-ring derived structure; build through make_ring."""

    def __init__(self, params: RingParams, modulus: ModulusPoly):
        modulus.validate_for(params)
        self.params = params
        self.modulus = modulus
        self.p = params.p
        self.e = params.e
        self.r = params.r
        self.q = params.q
        self.size = params.size
        self.key = (self.p, self.e, self.r, modulus.coeffs)
        self._weights = tuple(self.q**i for i in range(self.r))

        r, q = self.r, self.q
        # rows[m - r] = coefficient vector of x^m mod f, for m = r .. 2r-2
        rows = [tuple((-c) % q for c in modulus.coeffs[:r])]
        for _ in range(r - 2):
            prev = rows[-1]
            top = prev[r - 1]
            rows.append(
                tuple(
                    ((prev[i - 1] if i else 0) + top * rows[0][i]) % q
                    for i in range(r)
                )
            )
        self._redrows = rows

        self.zero = RingElement(self, (0,) * r)
        self.one = self.element([1])
        self.x = self.element([0, 1])

        self.xi = self.x ** (self.p ** ((self.e - 1) * self.r))

        group_order = self.p**self.r - 1
        # a @ by_xi holds the digits of a * xi
        by_xi = _multiplication_matrix(self.xi).T
        # xi^0 .. xi^(p^r - 2) by doubling: rows [k, 2k) are rows [0, k) @ M(xi^k)^T
        teich, step = np.eye(1, r, dtype=np.int64), by_xi
        while len(teich) < group_order:
            teich = np.vstack([teich, (teich @ step) % q])
            step = (step @ step) % q
        teich = teich[:group_order]
        if ((teich[-1] @ by_xi) % q != teich[0]).any():
            raise IntegrityError("Teichmuller generator has wrong order")
        if len(set(self.indices_from_digits(teich).tolist())) != group_order:
            raise IntegrityError("Teichmuller powers collide")
        teich.flags.writeable = False
        self.teich_digits: np.ndarray = teich

        # change of basis between the x-power and xi-power coordinates
        basis_inv = _matinv_mod(teich[:r].T.tolist(), q, self.p)
        image = teich[(self.p * np.arange(r)) % group_order].T.tolist()
        frob = _matmul_mod(image, basis_inv, q)

        mats = [[[int(i == j) for j in range(r)] for i in range(r)]]
        for _ in range(r - 1):
            mats.append(_matmul_mod(frob, mats[-1], q))
        self._frob_mats = [tuple(tuple(row) for row in m) for m in mats]

        total = [[sum(m[i][j] for m in mats) % q for j in range(r)] for i in range(r)]
        if any(v for row in total[1:] for v in row):
            raise IntegrityError("trace is not scalar-valued; modulus is unusable")
        self.trace_form: tuple[int, ...] = tuple(total[0])

        # Always None: trace_form gives every trace, so no per-element table
        # is built; the attribute stays because perfbench/workloads.py reads it.
        self.trace_table: Optional[np.ndarray] = None

    @cached_property
    def teichmuller_units(self) -> tuple[RingElement, ...]:
        """xi^0 .. xi^(p^r - 2) as elements, built from teich_digits on first read."""
        rows = map(tuple, self.teich_digits.tolist())
        return tuple(RingElement(self, row) for row in rows)

    @cached_property
    def _residue_lift(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, lift) indexed by residue index k = sum((c_i mod p) * p^i):
        the Teichmuller unit over residue k is xi^log[k] with digits lift[k].
        At k = 0 log is -1 and lift is zero, the Teichmuller digit of zero."""
        pr = self.p**self.r
        units = self.teich_digits
        residue = (units % self.p) @ (self.p ** np.arange(self.r, dtype=np.int64))
        log = np.full(pr, -1, dtype=np.int64)
        log[residue] = np.arange(pr - 1)
        lift = np.zeros((pr, self.r), dtype=np.int64)
        lift[residue] = units
        return log, lift

    # -- scalar coefficient arithmetic ------------------------------------

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        r, q = self.r, self.q
        conv = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [c % q for c in conv[:r]]
        for m in range(r, 2 * r - 1):
            c = conv[m] % q
            if c:
                row = self._redrows[m - r]
                for i in range(r):
                    out[i] = (out[i] + c * row[i]) % q
        return tuple(out)

    def element(self, coeffs: Iterable[int]) -> RingElement:
        cs = [int(c) for c in coeffs]
        if len(cs) > self.r:
            raise ParameterError(
                f"coefficient vector of length {len(cs)} exceeds r = {self.r}"
            )
        cs += [0] * (self.r - len(cs))
        return RingElement(self, tuple(c % self.q for c in cs))

    def from_index(self, index: int) -> RingElement:
        if not (0 <= index < self.size):
            raise RangeError(f"index {index} outside [0, {self.size})")
        coeffs = []
        for _ in range(self.r):
            index, c = divmod(index, self.q)
            coeffs.append(c)
        return RingElement(self, tuple(coeffs))

    def describe(self) -> str:
        return f"GR({self.q}, {self.q}^{self.r}) mod {self.modulus.serialize()}"

    def __repr__(self) -> str:
        return f"RingContext({self.describe()})"

    # -- bulk index/digit conversion ---------------------------------------

    def digits_of(self, indices: np.ndarray) -> np.ndarray:
        """(m,) int array of vertex ids -> (m, r) array of coefficients."""
        idx = np.asarray(indices, dtype=np.int64)
        weights = np.array(self._weights, dtype=np.int64)
        return (idx[:, None] // weights) % self.q

    def indices_from_digits(self, digits: np.ndarray) -> np.ndarray:
        weights = np.array(self._weights, dtype=np.int64)
        return np.asarray(digits, dtype=np.int64) @ weights

    def frobenius_matrix(self, k: int = 1) -> np.ndarray:
        """(r, r) matrix of the k-th Frobenius power on coefficient vectors:
        frobenius(a, k).coeffs equals matrix @ a.coeffs mod q."""
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParameterError(f"k must be an int, got {k!r}")
        if k < 0:
            raise ParameterError("frobenius power must be non-negative")
        return np.array(self._frob_mats[k % self.r], dtype=np.int64)


def _multiplication_matrix(a: RingElement) -> np.ndarray:
    """(r, r) matrix M with (a*b).coeffs = M @ b.coeffs mod q, from the r
    products a * x^i."""
    ctx = a.ctx
    cols = [(a * ctx.element([0] * i + [1])).coeffs for i in range(ctx.r)]
    return np.array(cols, dtype=np.int64).T


def _matmul_mod(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n)]
        for i in range(n)
    ]


def _matinv_mod(mat: Sequence[Sequence[int]], q: int, p: int) -> list[list[int]]:
    """Inverse of a matrix over Z_q, q = p^e; pivots must be units."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] % p), None)
        if piv is None:
            raise IntegrityError("basis matrix is singular over the ring")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [(v * inv) % q for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(vi - f * vc) % q for vi, vc in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def make_ring(params: RingParams, modulus: Optional[ModulusPoly] = None) -> RingContext:
    """Build a ring context, searching for a modulus when none is given."""
    if modulus is None:
        modulus = find_basic_irreducible(params)
    return RingContext(params, modulus)


# ---------------------------------------------------------------------------
# Structure maps.


def frobenius(a: RingElement, k: int = 1) -> RingElement:
    """k-th power of the coefficient-permuting ring automorphism.

    On the Teichmuller expansion sum(b_i p^i) it acts by b_i -> b_i^p;
    implemented as a cached linear map on x-power coefficients.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParameterError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ParameterError("frobenius power must be non-negative")
    ctx = a.ctx
    mat = ctx._frob_mats[k % ctx.r]
    q = ctx.q
    return RingElement(
        ctx,
        tuple(
            sum(mat[i][j] * a.coeffs[j] for j in range(ctx.r)) % q
            for i in range(ctx.r)
        ),
    )


def trace(a: RingElement) -> int:
    """Sum of the r Frobenius conjugates, an element of Z_q reported as an int."""
    ctx = a.ctx
    return sum(t * c for t, c in zip(ctx.trace_form, a.coeffs)) % ctx.q


def is_unit(a: RingElement) -> bool:
    """True when a is invertible, i.e. its residue-field image is nonzero."""
    return any(c % a.ctx.p for c in a.coeffs)


def project_residue(a: RingElement) -> tuple[int, ...]:
    """Coefficient vector of the image of a in the residue field F_(p^r)."""
    return tuple(c % a.ctx.p for c in a.coeffs)


def padic_coords(a: RingElement) -> PAdicCoords:
    """Teichmuller digit expansion a = sum(b_i p^i), b_i in G1 or zero."""
    ctx = a.ctx
    p = ctx.p
    _, lift = ctx._residue_lift
    digits = []
    valuation = ctx.e
    vec = list(a.coeffs)
    mod = ctx.q
    for i in range(ctx.e):
        k = sum((c % p) * p**j for j, c in enumerate(vec))
        digit = RingElement(ctx, tuple(lift[k].tolist()))
        if not digit.is_zero and valuation == ctx.e:
            valuation = i
        digits.append(digit)
        vec = [((c - d) % mod) // p for c, d in zip(vec, digit.coeffs)]
        mod //= p
    return PAdicCoords(tuple(digits), valuation)


def coeff_string(a: RingElement) -> str:
    """Comma-joined coefficient form, matching ModulusPoly.serialize."""
    return ",".join(str(c) for c in a.coeffs)


def parse_coeff_string(ctx: RingContext, text: str) -> RingElement:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse element {text!r}") from exc
    return ctx.element(coeffs)

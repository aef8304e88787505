"""Exact arithmetic in Galois rings GR(p^e, p^(er)).

A ring context fixes a modulus q = p^e and a monic degree-r polynomial f
over Z_q whose reduction mod p is primitive: x has order p^r - 1 mod p.
That is one test, on the companion matrix C of f, and it also makes the
reduction irreducible, since F_p[x]/(f) has p^r - 1 units only when it is
a field.  Elements are residue classes in Z_q[x]/(f), stored as
coefficient tuples (c_0, ..., c_{r-1}) with 0 <= c_i < q, ascending
powers of x.  Primitivity makes xi = x^(p^((e-1)r)) a generator of the
cyclic group G1 of Teichmuller units (order p^r - 1); its multiplication
matrix is C^(p^((e-1)r)) mod q.  The context holds G1 as one digit array,
teich_digits, built by matrix doubling; the units are not enumerated as
elements at construction, and teichmuller_units builds them on first read.

Every ring map reads one table, C^0, ..., C^(2r-2) mod q, built per context:
a = sum a_i x^i multiplies by M(a) = sum a_i C^i, and a^k is the first
column of M(a)^k.  In a Galois ring the trace is T(a) = tr M(a), so T(x^k) =
tr C^k: trace_form holds T(x^0), ..., T(x^(r-1)), and trace_gram[i, j] =
T(x^(i+j)) is the trace form's Gram matrix, T(a*b) = a @ trace_gram @ b.

Every element has a flat index sum(c_i * q^i); the graph modules use that
index as the vertex id.  digits_of / indices_from_digits convert whole
index arrays for the vectorised kernels.

Every (m, r) digit array the package holds or returns is int32: G1
(teich_digits), the connection set, the rows of _matmul_mod, digits_of and
orbit_digits.  Digits lie below q <= 2^16, so int32 holds each digit and
any sum of two.  Flat indices stay wide, in int64 or exact float64;
digit-row products run in float32 where every sum stays below 2^24
(r*(q - 1)^2 < 2^24) and in float64 otherwise, exact either way
(_matmul_mod).  Both are formed one block of BLOCK_PAIRS digits at a
time, so no (m, r) int64 or float array is made beyond one block.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ContextMismatchError,
    IntegrityError,
    ModulusError,
    ParameterError,
    RangeError,
)

MAX_RING_SIZE = 2**32
# digits per block of every digit sweep (_row_blocks, the orbit map, the
# BFS); export_edges forms this many neighbours per block
BLOCK_PAIRS = 1 << 16

log = logging.getLogger("grcayley")


def _is_prime(n: int) -> bool:
    """Primality by trial division; callers bound n by 2^32 first."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _require_prime(p: int) -> None:
    """Raise ParameterError unless p is prime; p > 2^32 fails before trial division."""
    if p > MAX_RING_SIZE:
        raise ParameterError(f"p = {p} exceeds 2^32; no ring with e, r >= 2 fits 2^32")
    if not _is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")


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


def _matpow(m: np.ndarray, k: int, mod: int) -> np.ndarray:
    """m^k mod `mod` for a square int64 matrix, by repeated squaring.

    Entries stay below mod <= 2^16, so every product fits in int64."""
    out = np.eye(len(m), dtype=np.int64)
    m = np.asarray(m, dtype=np.int64) % mod
    while k:
        if k & 1:
            out = out @ m % mod
        m = m @ m % mod
        k >>= 1
    return out


def _companion(coeffs: Sequence[int], mod: int) -> np.ndarray:
    """Matrix of multiplication by x on the basis 1, x, ..., x^(r-1) of
    Z_mod[x]/(f), f monic with ascending coefficients; its column j is
    x^(j+1) mod f, and column j of its k-th power is x^(k+j) mod f."""
    r = len(coeffs) - 1
    c = np.eye(r, k=-1, dtype=np.int64)
    c[:, -1] = [(-a) % mod for a in coeffs[:r]]
    return c


@cache
def _x_is_primitive(f: tuple[int, ...], p: int) -> bool:
    """Whether x has order p^r - 1 in F_p[x]/(f), f monic of degree r, as
    the order of the companion matrix of f mod p.

    That also makes f irreducible mod p: for a reducible f the quotient is
    not a field and has fewer than p^r - 1 units.  Cached; both callers pass
    f reduced mod p, so the modulus the search finds is not tested again
    by validate_for."""
    c = _companion(f, p)
    eye = np.eye(len(c), dtype=np.int64)
    order = p ** len(c) - 1
    if not (_matpow(c, order, p) == eye).all():
        return False
    return not any((_matpow(c, order // d, p) == eye).all() for d in _prime_factors(order))


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
        if self.p < 2:
            raise ParameterError(f"p must be prime, got {self.p}")
        if self.e < 2:
            raise ParameterError(f"e must be at least 2, got {self.e}")
        if self.r < 2:
            raise ParameterError(f"r must be at least 2, got {self.r}")
        # before primality, and p^(e*r) only once p <= 2^16 and e*r <= 32
        er = self.e * self.r
        if self.p > 2**16 or er > 32 or self.p**er > MAX_RING_SIZE:
            raise ParameterError(
                f"ring with p^(e*r) = {self.p}^{er} elements exceeds "
                f"the supported size 2^32"
            )
        _require_prime(self.p)

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
        if not _x_is_primitive(self.reduced_mod(params.p), params.p):
            raise ModulusError(
                f"modulus {self.serialize()} is not primitive mod {params.p}: x must "
                f"have order p^r - 1 mod p, so that the reduction is irreducible and "
                f"x^(p^((e-1)r)) generates the Teichmuller units"
            )


def find_basic_irreducible(params: RingParams) -> ModulusPoly:
    """Deterministically pick a monic degree-r modulus, primitive mod p.

    Candidates are the p^r lifts with lower coefficients in {0..p-1}; the
    scan starts at a seed-dependent offset and wraps, so every seed
    terminates and different seeds can land on different polynomials.  A
    candidate with f(0) or f(1) = 0 mod p has a root in F_p, so for r >= 2
    it is reducible and never primitive; it is skipped before the
    matrix-power test.
    """
    p, r = params.p, params.r
    count = p**r
    offset = random.Random(params.seed).randrange(count)
    for step in range(count):
        k = (offset + step) % count
        cand = tuple((k // p**i) % p for i in range(r)) + (1,)
        if cand[0] and sum(cand) % p and _x_is_primitive(cand, p):
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
        ctx = self.ctx
        # row i of the inner product is x^i * other; entries stay below 2^50
        prod = self.coeffs @ (ctx._cpow[: ctx.r] @ other.coeffs) % ctx.q
        return RingElement(ctx, tuple(prod.tolist()))

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ParameterError(f"exponent must be an int, got {exponent!r}")
        if exponent < 0:
            raise ParameterError("negative exponents are not supported")
        power = _matpow(_multiplication_matrix(self), exponent, self.ctx.q)
        return RingElement(self.ctx, tuple(power[:, 0].tolist()))

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
        return sum(c * w for c, w in zip(self.coeffs, self.ctx._weights))

    def __repr__(self) -> str:
        return f"RingElement({self.coeffs!r})"


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

        p, e, r, q = self.p, self.e, self.r, self.q
        comp = _companion(modulus.coeffs, q)
        # C^0 .. C^(2r-2): C^k multiplies by x^k, and tr C^k = T(x^k)
        cpow = [np.eye(r, dtype=np.int64)]
        for _ in range(2 * r - 2):
            cpow.append(cpow[-1] @ comp % q)
        self._cpow = np.array(cpow)
        traces = [sum(m.diagonal().tolist()) % q for m in cpow]
        self.trace_gram: np.ndarray = np.array([traces[i : i + r] for i in range(r)])
        self.trace_gram.flags.writeable = False
        self.trace_form: tuple[int, ...] = tuple(traces[:r])

        self.zero = RingElement(self, (0,) * r)
        self.one = self.element([1])
        self.x = self.element([0, 1])
        self.xi = self.x ** (p ** ((e - 1) * r))

        group_order = p**r - 1
        by_xi = _multiplication_matrix(self.xi).T  # a @ by_xi: the digits of a * xi
        # xi^0 .. xi^(p^r - 2) by doubling, in place: rows [k, 2k) are
        # rows [0, k) @ M(xi^k)^T
        teich = np.zeros((group_order, r), dtype=np.int32)
        teich[0, 0] = 1
        k, step = 1, by_xi
        while k < group_order:
            m = min(k, group_order - k)
            _matmul_mod(teich[:m], step, q, out=teich[k : k + m])
            step = (step @ step) % q
            k += m
        if (_matmul_mod(teich[-1:], by_xi, q) != teich[:1]).any():
            raise IntegrityError("Teichmuller generator has wrong order")
        ordered = np.sort(self.indices_from_digits(teich))
        if (ordered[1:] == ordered[:-1]).any():
            raise IntegrityError("Teichmuller powers collide")
        teich.flags.writeable = False
        self.teich_digits: np.ndarray = teich

        # Always None: trace_form gives every trace, so no per-element table
        # is built; the attribute stays because perfbench/workloads.py reads it.
        self.trace_table: Optional[np.ndarray] = None

    @cached_property
    def teichmuller_units(self) -> tuple[RingElement, ...]:
        """xi^0 .. xi^(p^r - 2) as elements, built from teich_digits on first read."""
        rows = map(tuple, self.teich_digits.tolist())
        return tuple(RingElement(self, row) for row in rows)

    @cached_property
    def _orbit_slots(self) -> np.ndarray:
        """(e - 1, r, p^r) uint16: column [i - 1, :, j] holds the digits of
        p^i * b mod q for b = 0 at j = 0 and b = xi^(j-1) otherwise, the
        terms spectrum.orbit_digits adds up.  Digits are below q <= 2^16,
        so uint16 holds them (2 MiB on GR(4, 4^16)); p^i * t is formed in
        int32 one block of rows at a time."""
        p, q, r = self.p, self.q, self.r
        units = self.teich_digits
        slots = np.zeros((self.e - 1, r, p**r), dtype=np.uint16)
        for i in range(1, self.e):
            for block in _row_blocks(len(units), r):
                term = units[block] * p**i  # p^i * t < q^2 / p <= 2^31
                term %= q
                slots[i - 1, :, 1:][:, block] = term.T
        return slots

    @cached_property
    def _residue_lift(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, adj), int32 and uint16, indexed by residue index k = sum(c_i * p^i),
        c_i in [0, p): the Teichmuller digit t over residue k is xi^log[k] (log -1
        and t = 0 at k = 0), and adj[:, k] = (c + q - t)/p <= q/p <= 2^15, so that
        x // p + adj[:, k] = (x - t)/p + q/p for any x with residues c."""
        p, q, r = self.p, self.q, self.r
        units = self.teich_digits
        log = np.full(p**r, -1, dtype=np.int32)
        adj = np.full((r, p**r), q // p, dtype=np.uint16)
        powers = p ** np.arange(r)
        for block in _row_blocks(len(units), r):
            t = units[block]
            residue = t % p
            k = residue @ powers
            log[k] = np.arange(block.start, block.start + len(t))
            adj[:, k] = ((residue + q - t) // p).T
        return log, adj

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
        return RingElement(self, tuple(index // w % self.q for w in self._weights))

    def describe(self) -> str:
        return f"GR({self.q}, {self.q}^{self.r}) mod {self.modulus.serialize()}"

    def __repr__(self) -> str:
        return f"RingContext({self.describe()})"

    # -- bulk index/digit conversion ---------------------------------------

    def digits_of(self, indices: np.ndarray) -> np.ndarray:
        """(m,) int array of vertex ids -> (m, r) int32 array of coefficients."""
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty((len(idx), self.r), dtype=np.int32)
        for i, w in enumerate(self._weights):
            out[:, i] = idx // w % self.q
        return out

    def indices_from_digits(self, digits: np.ndarray) -> np.ndarray:
        """(..., r) digit rows -> int64 flat indices of shape (...), one block
        of BLOCK_PAIRS digits at a time.  The product with the weights runs
        in float64, in BLAS, and is exact: every index is below 2^32 < 2^53."""
        digits = np.asarray(digits)
        rows = digits.reshape(-1, self.r)
        weights = np.array(self._weights, dtype=np.float64)
        out = np.empty(len(rows), dtype=np.int64)
        for block in _row_blocks(len(rows), self.r):
            out[block] = rows[block].astype(np.float64) @ weights
        return out.reshape(digits.shape[:-1])


def _multiplication_matrix(a: RingElement) -> np.ndarray:
    """(r, r) matrix M(a) = sum a_i C^i mod q, so that (a*b).coeffs =
    M(a) @ b.coeffs mod q."""
    ctx = a.ctx
    # axes (k, i, j) reversed to (j, i, k): the product is M(a)^T
    return (ctx._cpow[: ctx.r].T @ a.coeffs).T % ctx.q


def _row_blocks(count: int, r: int) -> Iterator[slice]:
    """Slices of `count` digit rows of width r, BLOCK_PAIRS digits per slice."""
    step = max(1, BLOCK_PAIRS // r)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _matmul_mod(
    rows: np.ndarray, m: np.ndarray, q: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """rows @ m mod q as int32, for (k, r) digit rows and an (r, r) matrix
    below q, written into `out` when given.

    The product runs in BLAS (int64 would not), one block of BLOCK_PAIRS
    digits at a time, in float32 when r*(q - 1)^2 < 2^24 and in float64
    otherwise, and is reduced as prod - floor(prod / q) * q.  Two (block, r)
    buffers serve every block: the cast rows, then the quotient, in one;
    the product in the other.  Both steps are exact in either precision,
    whose significand holds every integer below 2^t (t = 24 or 53):
    - every partial sum of the product is an integer <= r*(q - 1)^2 < 2^t
      (below 2^37 in float64, as q <= 2^16 and r <= 16), so it is exact
      whatever the BLAS summation order or FMA;
    - prod / q < 2^t / q, so its correctly rounded value errs by at most
      2^-t * prod / q < 1/q, while the next integer above the true
      quotient is at least 1/q away: the floor is the true quotient, and
      quotient * q <= prod and the difference are exact.
    (prod * (1/q) is not exact: 1/q rounds, and a multiple of q can floor
    one below its quotient.)  float64 is kept for r = 2 rings with
    q >= 2898, such as (2, 12, 2) and (251, 2, 2); every ring within 2^32
    with r >= 3 stays in float32."""
    r = len(m)
    dtype = np.float32 if r * (q - 1) ** 2 < 1 << 24 else np.float64
    m = m.astype(dtype)
    if out is None:
        out = np.empty(rows.shape, dtype=np.int32)
    step = max(1, BLOCK_PAIRS // r)  # as in _row_blocks
    quot_buf = np.empty((min(len(rows), step), r), dtype=dtype)
    prod_buf = np.empty_like(quot_buf)
    for lo in range(0, len(rows), step):
        dst = out[lo : lo + step]
        quot, prod = quot_buf[: len(dst)], prod_buf[: len(dst)]
        quot[...] = rows[lo : lo + step]  # the cast rows
        np.matmul(quot, m, out=prod)
        np.divide(prod, q, out=quot)
        np.floor(quot, out=quot)
        quot *= q
        prod -= quot
        dst[...] = prod
    return out


def make_ring(params: RingParams, modulus: Optional[ModulusPoly] = None) -> RingContext:
    """Build a ring context, searching for a modulus when none is given."""
    start = time.perf_counter()
    if modulus is None:
        modulus = find_basic_irreducible(params)
    ctx = RingContext(params, modulus)
    log.debug("make_ring %r: %.4f s", ctx, time.perf_counter() - start)
    return ctx


# ---------------------------------------------------------------------------
# Element helpers.


def is_unit(a: RingElement) -> bool:
    """True when a is invertible, i.e. its residue-field image is nonzero."""
    return any(c % a.ctx.p for c in a.coeffs)


def coeff_string(a: RingElement) -> str:
    """Comma-joined coefficient form, matching ModulusPoly.serialize."""
    return ",".join(str(c) for c in a.coeffs)


def parse_coeff_string(ctx: RingContext, text: str) -> RingElement:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse element {text!r}") from exc
    return ctx.element(coeffs)

"""Checks for the structural and spectral properties of the graphs.

Each check returns a ClaimReport carrying the observed quantity, the bound
it was compared against, and a witness when the comparison fails.  Reports
also carry `asserted`: whether the property is guaranteed for the instance
at hand (for example the Ramanujan property is only guaranteed when
p^e = 4 and r >= 4), so callers can distinguish a falsified guarantee from
an informational measurement.  Exact spectra are compared in integer
arithmetic throughout; bounds of the form c*sqrt(p^r) + k are tested by
squaring rather than through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .cayley import GraphSpec, spectral_interval_bound
from .errors import IntegrityError, ParameterError
from .ring import RingContext, RingElement, _multiplication_matrix, coeff_string, is_unit
from .spectrum import (
    MERGE_TOL,
    Spectrum,
    _orbit_sums,
    _require_xi_stable,
    full_spectrum,
    orbit_representatives,
    orbit_row_map,
)

BFS_BLOCK_ROWS = 1 << 16

DEFAULT_CHECKS = (
    "bhk",
    "connectivity",
    "energy",
    "girth",
    "interval",
    "ramanujan",
    "residue",
    "wcu",
)


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one check: observed value, bound, witness on failure."""

    claim_id: str
    holds: bool
    bound_value: Optional[Union[int, float]]
    observed_value: Optional[Union[int, float]]
    witness: Optional[object] = None
    asserted: bool = True

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None:
            raise IntegrityError(
                f"failing claim {self.claim_id!r} must carry a witness"
            )

    def to_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "holds": self.holds,
            "bound_value": self.bound_value,
            "observed_value": self.observed_value,
            "asserted": self.asserted,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _abs_le_sqrt_bound(value: int, c: int, k: int, pr: int) -> bool:
    """Exact test of |value| <= c*sqrt(pr) + k for integers."""
    lhs = abs(value) - k
    return lhs <= 0 or lhs * lhs <= c * c * pr


def check_interval(spec: GraphSpec, spectrum: Spectrum) -> ClaimReport:
    """All non-principal eigenvalues lie in [-(c*sqrt(p^r)+k), c*sqrt(p^r)+k]."""
    ctx = spec.ctx
    c, k, pr, bound = spectral_interval_bound(ctx.p, ctx.e, ctx.r)
    d = spec.d
    worst: Union[int, float] = 0
    witness = None
    ok_all = True
    for v, _ in spectrum.entries:
        if spectrum.exact:
            if v == d:
                continue
            ok = _abs_le_sqrt_bound(int(v), c, k, pr)
        else:
            if abs(v - d) <= MERGE_TOL:
                continue
            ok = abs(v) <= bound + MERGE_TOL
        worst = max(worst, abs(v))
        if not ok:
            ok_all = False
            if witness is None:
                witness = v
    return ClaimReport("interval", ok_all, bound, worst, witness)


def _wcu_norm_within_bound(
    normsq: np.ndarray, val: np.ndarray, p: int, e: int, r: int
) -> np.ndarray:
    """Exact elementwise test of sqrt(normsq) <= (N-1)*sqrt(p^r) + 1 with
    N = p^(e-1-val), for integer norms |zeta|^2.

    Squaring once leaves lhs = normsq - (N-1)^2 p^r - 1 <= 2(N-1)sqrt(p^r).
    For an integer lhs >= 0 that holds exactly when lhs <= isqrt(4(N-1)^2 p^r),
    and for lhs < 0 it always holds, so lhs is never squared and the test
    cannot overflow int64 for any supported ring.
    """
    pr = p**r
    caps = [p ** (e - 1 - v) for v in range(e)]
    offset = np.array([(c - 1) ** 2 * pr + 1 for c in caps], dtype=np.int64)
    limit = np.array([math.isqrt(4 * (c - 1) ** 2 * pr) for c in caps], dtype=np.int64)
    return normsq - offset[val] <= limit[val]


def check_wcu_summary(ctx: RingContext) -> ClaimReport:
    """Character sums over the Teichmuller units obey
    |zeta(gamma)| <= (N-1)*sqrt(p^r) + 1, N = p^(e-1-valuation(gamma)),
    for every nonzero gamma; one report for the whole ring.

    zeta and the valuation are constant on G1-orbits, so one gamma per
    orbit decides the claim, and a failure's witness is the coefficient
    string of the first failing orbit representative.  observed_value is
    the largest float excess |zeta| - bound across the ring (at most
    ~1e-16 noise above zero when the claim holds); for p^e = 4 the verdict
    itself comes from exact integer comparisons.
    """
    p, e, r = ctx.p, ctx.e, ctx.r
    sums = _orbit_sums(ctx, ctx.teich_digits)
    digits, val, re, im = (a[1:] for a in sums)  # row 0 is zero
    bounds = (np.power(p, e - 1 - val) - 1) * math.sqrt(p**r) + 1.0
    mags = np.hypot(re, im)
    if ctx.q == 4:
        ok = _wcu_norm_within_bound(re * re + im * im, val, p, e, r)
    else:
        ok = mags <= bounds + MERGE_TOL
    bad = np.flatnonzero(~ok)
    witness = coeff_string(ctx.element(digits[bad[0]])) if bad.size else None
    return ClaimReport("wcu", witness is None, 0.0, float((mags - bounds).max()), witness)


def check_bhk(ctx: RingContext) -> ClaimReport:
    """For p^e = 4: |1 + zeta(gamma)|^2 = 2^r for units, zeta(gamma) = -1
    for nonzero non-units, and zeta(0) = 2^r - 1; checked exhaustively.

    zeta is constant on G1-orbits, so one gamma per orbit covers the ring,
    and a failure's witness is the coefficient string of the first failing
    orbit representative.
    """
    if ctx.q != 4:
        raise ParameterError("the character sum identity requires p^e = 4")
    pr = 2**ctx.r
    digits, val, re, im = _orbit_sums(ctx, ctx.teich_digits)
    dev = np.where(
        val == 0,
        np.abs((re + 1) ** 2 + im**2 - pr),
        np.abs(re + 1) + np.abs(im),
    )
    dev[0] = abs(re[0] - (pr - 1)) + abs(im[0])  # row 0 is zero
    bad = np.flatnonzero(dev)
    witness = coeff_string(ctx.element(digits[bad[0]])) if bad.size else None
    return ClaimReport("bhk", witness is None, 0, int(dev.max()), witness)


def check_residue_partition(
    ctx: RingContext, gamma: Optional[RingElement] = None
) -> ClaimReport:
    """For p^e = 4 and unit gamma, the cosets gamma*G1, -gamma*G1 and
    (1 - xi^t)*gamma*G1 (t = 1..2^r-2) partition the units, and
    2*gamma*G1 with 0 adjoined exhausts the non-units.

    Each coset is the G1-orbit of its representative, and G1 acts freely
    on the nonzero elements.  So the 2^r unit cosets partition the
    2^r (2^r - 1) units exactly when their representatives are units in
    pairwise distinct orbits, and 2*gamma*G1 with 0 is the set of 2^r
    non-units exactly when 2*gamma lies in the one orbit of valuation 1;
    one orbit_row_map call on the 2^r + 1 representatives decides both.
    observed_value counts the units in the distinct unit orbits reached;
    a failure's witness is the flat index of the first representative
    that is a non-unit or repeats an earlier orbit, or of 2*gamma when it
    misses the valuation-1 orbit.
    """
    if ctx.q != 4:
        raise ParameterError("the residue decomposition requires p^e = 4")
    if gamma is None:
        gamma = ctx.one
    if gamma.ctx.key != ctx.key:
        raise ParameterError("gamma belongs to a different ring")
    if not is_unit(gamma):
        raise ParameterError("the residue decomposition requires a unit gamma")

    q, pr = ctx.q, 2**ctx.r
    g1 = ctx.teich_digits
    one = g1[:1]
    # rows gamma, -gamma, (1 - xi^t)*gamma for t = 1..2^r-2, then 2*gamma
    base = np.vstack([one, (-one) % q, (one - g1[1:]) % q, 2 * one])
    reps = (base @ _multiplication_matrix(gamma).T) % q
    # orbit rows: 0 is zero, 1..2^r the units, 2^r + 1 the nonzero non-units
    rows = orbit_row_map(ctx)(reps)
    unit_rows = rows[:-1]
    # the first representative to reach each unit orbit
    fresh = np.zeros(pr, dtype=bool)
    fresh[np.unique(unit_rows, return_index=True)[1]] = True
    fresh &= (unit_rows > 0) & (unit_rows <= pr)
    bad = np.flatnonzero(~np.append(fresh, rows[-1] == pr + 1))
    return ClaimReport(
        "residue",
        bad.size == 0,
        ctx.size - pr,
        int(fresh.sum()) * (pr - 1),
        int(ctx.indices_from_digits(reps[bad[0]])) if bad.size else None,
    )


def is_ramanujan(spectrum: Spectrum) -> ClaimReport:
    """lambda(G)^2 <= 4(d-1), in integers when the spectrum is exact."""
    d = spectrum.d
    lam = spectrum.lambda_g()
    bound = 2.0 * math.sqrt(d - 1)
    if spectrum.exact:
        ok = lam * lam <= 4 * (d - 1)
    else:
        ok = lam <= bound + MERGE_TOL
    return ClaimReport("ramanujan", ok, bound, lam, None if ok else lam)


def girth(spec: GraphSpec) -> int:
    """Length of a shortest cycle: 3 when the graph has a triangle, else 4.

    For a, b in S with b != +-a an abelian Cayley graph has the square
    0, a, a + b, b.  Such a pair exists once d >= 3, since S = -S, so the
    girth is never above 4.  With d <= 2 the pair sums need not close any
    cycle of length 3 or 4, and IntegrityError is raised.
    """
    if spec.d <= 2:
        raise IntegrityError(
            f"with d = {spec.d} the pair sums need not close a cycle of length 3 or 4"
        )
    return 3 if triangle_count(spec) else 4


def triangle_count(spec: GraphSpec) -> int:
    """Number of triangles, from the ordered pairs (s_i, s_j) whose sum lies
    in S.

    The triangles through vertex 0, as ordered pairs (a, b) of adjacent
    neighbours, are the pairs with b - a in S; a = s_i and b = s_i + s_j
    match them one to one with those pair sums.  G1 acts freely on the
    ordered pairs by multiplying both entries and keeps their sum in S, and
    each orbit of pairs has one pair whose first entry is the head of its
    G1-orbit of S.  So the pairs number p^r - 1 times those (h, s_j) over
    one head h per orbit of S: two for p = 2 (gamma and -gamma), one for
    odd p.  Each triangle has 3 vertices and 2 orders, hence n * count / 6.
    Raises IntegrityError when S is not closed under multiplication by xi.
    """
    ctx = spec.ctx
    _require_xi_stable(spec)
    _, heads = np.unique(orbit_row_map(ctx)(spec.s_digits), return_index=True)
    sums = spec.s_digits[heads, None, :] + spec.s_digits
    sums %= ctx.q
    hits = int(np.isin(ctx.indices_from_digits(sums), spec.s_indices).sum())
    total = spec.n * (ctx.p**ctx.r - 1) * hits
    if total % 6:
        raise IntegrityError(f"triangle count {total} is not divisible by 6")
    return total // 6


def bfs_distances(spec: GraphSpec) -> np.ndarray:
    """Distance from vertex 0 to each G1-orbit, one per row of
    orbit_representatives(spec.ctx), -1 where unreachable.

    Multiplication by a Teichmuller unit maps S to itself and fixes 0, so it
    is a graph automorphism and the distance is constant on each orbit;
    translation gives the distances from any other root.  Each level maps
    the neighbours of one representative per frontier orbit, or per
    unreached orbit when those are fewer, to their orbit rows in blocks of
    about BFS_BLOCK_ROWS neighbours, and the search stops once the reached
    orbits hold all n vertices.  Raises IntegrityError when S is not
    closed under multiplication by xi.
    """
    ctx = spec.ctx
    _require_xi_stable(spec)
    digits, _ = orbit_representatives(ctx)
    orbit_of = orbit_row_map(ctx)
    dist = np.full(len(digits), -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    reached, level = 1, 0
    block = max(1, BFS_BLOCK_ROWS // spec.d)
    while frontier.size and reached < spec.n:
        level += 1
        unseen = np.flatnonzero(dist < 0)
        # search from whichever side holds fewer orbits: an unseen orbit is
        # at this level exactly when a neighbour is at the previous one
        upward = unseen.size < frontier.size
        source = unseen if upward else frontier
        for lo in range(0, source.size, block):
            part = source[lo : lo + block]
            nb = digits[part, None, :] + spec.s_digits
            nb %= ctx.q
            rows = orbit_of(nb.reshape(-1, ctx.r))
            if upward:
                near = (dist[rows] == level - 1).reshape(part.size, spec.d)
                dist[part[near.any(axis=1)]] = level
            else:
                dist[rows[dist[rows] < 0]] = level
        frontier = np.flatnonzero(dist == level)
        reached += frontier.size * (ctx.p**ctx.r - 1)
    return dist


def connectivity(spec: GraphSpec, spectrum: Optional[Spectrum] = None) -> dict:
    """Component count, diameter, and the spectral diameter bound
    log(n-1)/log(d/lambda); also flags the sufficient condition e < r/2 + 1."""
    ctx = spec.ctx
    dist = bfs_distances(spec)
    # orbit weights: 1 for zero (row 0), p^r - 1 for every other orbit
    reached = 1 + int((dist[1:] >= 0).sum()) * (ctx.p**ctx.r - 1)
    if spec.n % reached:
        raise IntegrityError(
            f"component of size {reached} does not divide the vertex count"
        )
    components = spec.n // reached
    connected = components == 1
    condition = 2 * ctx.e < ctx.r + 2
    record: dict = {
        "components": components,
        "connected": connected,
        "diameter": int(dist.max()) if connected else None,
        "condition_e_below_half_r_plus_one": condition,
        "consistent_with_condition": (not condition) or connected,
    }
    if spectrum is not None:
        lam = spectrum.lambda_g()
        record["lambda_G"] = lam
        mult = spectrum.multiplicity_of(spec.d, 0 if spectrum.exact else MERGE_TOL)
        record["degree_multiplicity"] = mult
        record["degree_multiplicity_matches_components"] = mult == components
        if connected and 0 < lam < spec.d:
            chung = math.log(spec.n - 1) / math.log(spec.d / lam)
            record["chung_bound"] = chung
            record["diameter_within_chung"] = record["diameter"] <= chung + 1e-9
    return record


def energy_report(spectrum: Spectrum) -> dict:
    """Graph energy, integrality, and the hyperenergetic comparison.

    For exact spectra the report also names the principal eigenvalue d and
    the value d/2 next to it: the two are easy to conflate when
    cross-checking energy lower bounds by hand, so both appear explicitly.
    """
    n, d = spectrum.n, spectrum.d
    energy = spectrum.energy()
    threshold = 2 * (n - 1)
    if spectrum.exact:
        integral = True
        hyper = energy > threshold
    else:
        integral = all(abs(v - round(v)) <= MERGE_TOL for v, _ in spectrum.entries)
        hyper = energy > threshold
    record = {
        "n": n,
        "d": d,
        "energy": energy,
        "integral": integral,
        "hyperenergetic": hyper,
        "threshold": threshold,
    }
    if spectrum.exact:
        record["principal_eigenvalue"] = spectrum.max_value
        record["principal_multiplicity"] = spectrum.multiplicity_of(d, 0)
        record["reference_principal_term"] = d // 2
    return record


def verify_graph(
    spec: GraphSpec,
    checks: Optional[Sequence[str]] = None,
) -> dict:
    """Run the selected checks and assemble the JSON-ready report."""
    ctx = spec.ctx
    if checks is None:
        selected = set(DEFAULT_CHECKS)
    else:
        selected = set(checks)
        unknown = selected - set(DEFAULT_CHECKS)
        if unknown:
            raise ParameterError(f"unknown checks: {sorted(unknown)}")

    char4 = ctx.q == 4
    spectrum = full_spectrum(spec)
    claims: list[ClaimReport] = []
    skipped: list[str] = []

    if "interval" in selected:
        claims.append(check_interval(spec, spectrum))
    if "wcu" in selected:
        claims.append(check_wcu_summary(ctx))
    if "bhk" in selected:
        if char4:
            claims.append(check_bhk(ctx))
        else:
            skipped.append("bhk")
    if "residue" in selected:
        if char4:
            claims.append(check_residue_partition(ctx, spec.gamma))
        else:
            skipped.append("residue")
    if "ramanujan" in selected:
        rep = is_ramanujan(spectrum)
        claims.append(replace(rep, asserted=char4 and ctx.r >= 4))
    if "girth" in selected:
        g = girth(spec)
        if ctx.p == 2 and ctx.r % 2 == 1:
            expected_exact = ctx.e == 2
            ok = g == 4 if expected_exact else g >= 4
            claims.append(
                ClaimReport(
                    "girth", ok, 4, g, None if ok else g, asserted=True
                )
            )
        else:
            claims.append(ClaimReport("girth", True, None, g, asserted=False))
    if "connectivity" in selected:
        rec = connectivity(spec, spectrum)
        ok = (
            rec["consistent_with_condition"]
            and rec.get("degree_multiplicity_matches_components", True)
            and rec.get("diameter_within_chung", True)
        )
        claims.append(
            ClaimReport(
                "connectivity",
                ok,
                rec.get("chung_bound"),
                rec["diameter"] if rec["diameter"] is not None else rec["components"],
                None if ok else rec,
            )
        )
    if "energy" in selected:
        rec = energy_report(spectrum)
        if char4:
            ok = rec["integral"] and rec["hyperenergetic"]
            claims.append(
                ClaimReport(
                    "energy",
                    ok,
                    rec["threshold"],
                    rec["energy"],
                    None if ok else rec,
                    asserted=True,
                )
            )
        else:
            claims.append(
                ClaimReport(
                    "energy", True, rec["threshold"], rec["energy"], asserted=False
                )
            )

    claims.sort(key=lambda c: c.claim_id)
    lam = spectrum.lambda_g()
    return {
        "graph": {
            "p": ctx.p,
            "e": ctx.e,
            "r": ctx.r,
            "gamma": coeff_string(spec.gamma),
            "n": spec.n,
            "d": spec.d,
        },
        "claims": [c.to_dict() for c in claims],
        "skipped": sorted(skipped),
        "spectrum_summary": {
            "distinct": spectrum.distinct,
            "min": spectrum.min_value,
            "max": spectrum.max_value,
            "lambda_G": lam,
        },
    }

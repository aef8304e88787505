"""Checks for the structural and spectral properties of the graphs.

Each check returns a ClaimReport carrying the observed quantity, the bound
it was compared against, and a witness when the comparison fails.  Reports
also carry `asserted`: whether the property is guaranteed for the instance
at hand (for example the Ramanujan property is only guaranteed when
p^e = 4 and r >= 4), so callers can distinguish a falsified guarantee from
an informational measurement.  Spectral comparisons read Spectrum.tol, 0
for exact spectra, which are thus compared in integers; bounds of the form
c*sqrt(p^r) + k are tested by squaring rather than through floats.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cayley import BLOCK_PAIRS, GraphSpec, spectral_interval_bound
from .errors import IntegrityError, ParameterError, SizeError
from .ring import (
    RingContext, RingElement, _matmul_mod, _multiplication_matrix, _row_blocks, coeff_string,
    is_unit, log,
)
from . import spectrum as _spectrum
from .spectrum import (
    MERGE_TOL,
    Spectrum,
    ZetaSums,
    _require_spectrum_size,
    frobenius_cycles,
    full_spectrum,
    orbit_digits,
    orbit_row_map,
    zeta_beta,
    zeta_sums,
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


def _abs_le_sqrt_bound(value, c: int, k: int, pr: int, tol: float = 0):
    """Test of |value| <= c*sqrt(pr) + k + tol, elementwise, exact for integers at tol 0."""
    lhs = abs(value) - k - tol
    return (lhs <= 0) | (lhs * lhs <= c * c * pr)


def check_interval(spec: GraphSpec, spectrum: Spectrum) -> ClaimReport:
    """All non-principal eigenvalues lie in [-(c*sqrt(p^r)+k), c*sqrt(p^r)+k]."""
    ctx = spec.ctx
    c, k, pr, bound = spectral_interval_bound(ctx.p, ctx.e, ctx.r)
    values = spectrum.values[abs(spectrum.values - spec.d) > spectrum.tol]
    bad = values[~_abs_le_sqrt_bound(values, c, k, pr, spectrum.tol)]
    worst = abs(values).max(initial=0).item()
    return ClaimReport("interval", not bad.size, bound, worst, bad[0].item() if bad.size else None)


def _wcu_norm_within_bound(normsq: np.ndarray, n: int, pr: int) -> np.ndarray:
    """Exact elementwise test of sqrt(normsq) <= (n-1)*sqrt(pr) + 1, for
    integer norms |zeta|^2.

    Squaring once leaves lhs = normsq - (n-1)^2 pr - 1 <= 2(n-1)sqrt(pr).
    For an integer lhs >= 0 that holds exactly when lhs <= isqrt(4(n-1)^2 pr),
    and for lhs < 0 it always holds, so lhs is never squared and the test
    cannot overflow int64 for any supported ring.
    """
    return normsq - ((n - 1) ** 2 * pr + 1) <= math.isqrt(4 * (n - 1) ** 2 * pr)


def _witness(ctx: RingContext, v: int, bad: np.ndarray) -> str:
    """Coefficient string of the beta at the first True of bad, entry k of
    block v of the zeta sums: p^v (1 + p*c), c the flat index k (zeta_beta)."""
    return coeff_string(ctx.element(zeta_beta(ctx, v, int(bad.argmax()))))


def check_wcu_summary(ctx: RingContext, zeta: Optional[ZetaSums] = None) -> ClaimReport:
    """Character sums over the Teichmuller units obey
    |zeta(gamma)| <= (N-1)*sqrt(p^r) + 1, N = p^(e-1-valuation(gamma)),
    for every nonzero gamma; one report for the whole ring.

    zeta and the valuation are constant on G1-orbits, so one gamma per
    orbit decides the claim: block v of the transform, under one bound.  A
    failure's witness is the coefficient string of p^v (1 + p*c), read off
    the first failing entry c of the first failing block (zeta_beta).
    observed_value is the largest float excess |zeta| - bound across the
    ring: rounding noise around zero when the claim holds, measured up to
    7.1e-15 on (7,2,3) and 1.2e-14 on (3,2,8); for p^e = 4 the verdict
    itself comes from exact integer comparisons.
    """
    p, e, pr = ctx.p, ctx.e, ctx.p**ctx.r
    witness, worst = None, -math.inf
    for v, (re, im) in enumerate(zeta_sums(ctx) if zeta is None else zeta):
        n = p ** (e - 1 - v)
        bound = (n - 1) * math.sqrt(pr) + 1.0
        mags = np.hypot(re, im)
        # the rounding of x - bound rises with x, so the largest excess is at max |zeta|
        worst = max(worst, float(mags.max() - bound))
        if ctx.q == 4:
            ok = _wcu_norm_within_bound(re * re + im * im, n, pr)
        else:
            ok = mags <= bound + MERGE_TOL
        if witness is None and not ok.all():
            witness = _witness(ctx, v, ~ok)
        del mags, ok  # before the next block's are formed
    return ClaimReport("wcu", witness is None, 0.0, worst, witness)


def check_bhk(ctx: RingContext, zeta: Optional[ZetaSums] = None) -> ClaimReport:
    """For p^e = 4: |1 + zeta(gamma)|^2 = 2^r for units and zeta(gamma) = -1
    for nonzero non-units; checked exhaustively.

    zeta is constant on G1-orbits, so one gamma per orbit covers the ring:
    the two blocks of the transform, the units and the one orbit of nonzero
    non-units.  A failure's witness is the coefficient string of
    p^v (1 + p*c) for the first failing entry c, units first (zeta_beta).
    """
    if ctx.q != 4:
        raise ParameterError("the character sum identity requires p^e = 4")
    (re, im), (re1, im1) = zeta_sums(ctx) if zeta is None else zeta
    devs = (np.abs((re + 1) ** 2 + im**2 - 2**ctx.r), np.abs(re1 + 1) + np.abs(im1))
    bad = [v for v, dev in enumerate(devs) if dev.any()]
    witness = _witness(ctx, bad[0], devs[bad[0]] != 0) if bad else None
    return ClaimReport("bhk", witness is None, 0, int(max(dev.max() for dev in devs)), witness)


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
    reps = _matmul_mod(base, _multiplication_matrix(gamma).T, q)
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
    """lambda(G) <= 2 sqrt(d-1) + tol, in integers when the spectrum is exact."""
    d = spectrum.d
    lam = spectrum.lambda_g()
    bound = 2.0 * math.sqrt(d - 1)
    ok = _abs_le_sqrt_bound(lam, 2, 0, d - 1, spectrum.tol)
    return ClaimReport("ramanujan", ok, bound, lam, None if ok else lam)


def girth(spec: GraphSpec) -> int:
    """Length of a shortest cycle: 3 when the graph has a triangle, else 4.

    For a, b in S with b != +-a an abelian Cayley graph has the square
    0, a, a + b, b.  Such a pair exists once d >= 3, since S = -S, and
    r >= 2 makes d at least 6, so the girth is never above 4.
    """
    return 3 if triangle_count(spec) else 4


def _heads(ctx: RingContext) -> np.ndarray:
    """Digit rows of 1 and, for p = 2, -1: one per G1-orbit of S1 = +-G1."""
    heads = np.zeros((2 if ctx.p == 2 else 1, ctx.r), dtype=np.int32)
    heads[:, 0] = (1, ctx.q - 1)[: len(heads)]
    return heads


def triangle_count(spec: GraphSpec) -> int:
    """Number of triangles, counted on Cay(R, S1), S1 = +-G1 (G1 for odd p),
    onto which x -> gamma^-1 x maps the graph (GraphSpec).

    The triangles through 0, as ordered pairs (a, b) of adjacent neighbours,
    match the pairs (s, t) of S1 with s + t in S1: a = s, b = s + t.  G1
    acts freely on those pairs and each orbit has one pair headed by 1 or,
    for p = 2, -1; negation maps the pairs headed by 1 onto those headed by
    -1.  So they number p^r - 1 times the heads times #{t in S1 : 1 + t in
    S1}, a sum being in S1 when orbit_row_map gives it a head's row.  The
    unreduced sums 1 + t, t in G1, are mapped one block of rows at a time.
    A triangle has 3 vertices and 2 orders, hence n * count / 6.

    For p = 2 no t in -G1 counts: 1 - t is never +-s for t, s in G1.  Reduce
    mod 4, which maps G1 onto the G1 of GR(4, 4^r).  There each element is
    a + 2b for unique Teichmuller a, b, and a + b = tau(a' + b') +
    2 tau(sqrt(a'b')) for a, b in G1, tau lifting residues.  So 1 = t + s and
    t = 1 + s fail on the second digit, 0 on the left and nonzero on the right.
    """
    ctx = spec.ctx
    g1, orbit = ctx.teich_digits, ctx.p**ctx.r - 1
    orbit_of = orbit_row_map(ctx)
    heads = _heads(ctx)
    one, head_rows = heads[0], orbit_of(heads)
    hits = 0
    for block in _row_blocks(orbit, ctx.r):
        rows = orbit_of(g1[block] + one)
        hits += sum(int(np.count_nonzero(rows == h)) for h in head_rows)
    total = spec.n * orbit * len(heads) * hits
    if total % 6:
        raise IntegrityError(f"triangle count {total} is not divisible by 6")
    return total // 6


def bfs_distances(spec: GraphSpec) -> np.ndarray:
    """Distance from vertex 0 to gamma*O_k for each G1-orbit O_k, one int32
    per orbit row k in orbit_row_map's numbering, -1 where unreachable; for
    gamma = 1 that is the distance to O_k.

    The search runs on Cay(R, S1), S1 = +-G1 (G1 for odd p), onto which
    x -> gamma^-1 x maps the graph, fixing 0 (GraphSpec).
    Multiplication by a Teichmuller unit and the Frobenius sigma both fix 0
    and map S1 onto itself, so the distance is constant on each sigma-cycle
    of orbits, and the search holds one row per cycle, its least row
    (frobenius_cycles): the frontier and the pending rows are such rows,
    every mapped neighbour goes through the table before its distance is
    read, and a found row weighs its cycle length times p^r - 1 vertices.
    Level 1 is S1 itself, the rows of 1 and -1, each fixed by sigma.

    Each further level maps neighbours to their rows from whichever side
    costs fewer maps, in blocks of at most BLOCK_PAIRS digits, r per
    neighbour, split by columns of S1 where one row's d*r digits exceed
    that.  A row's element comes from orbit_digits, u + t over G1 and
    u + q - t over -G1 go to the map unreduced, and no table of S1 beyond
    ctx.teich_digits is built.
    Top-down maps all d neighbours of one element per frontier row.
    Bottom-up maps neighbours of the unseen rows, expected to take
    min(d, n / f) tries each before one lands in the f frontier vertices.
    It takes the unseen rows from one block of BLOCK_PAIRS rows of the
    distances at a time, decodes them once, goes through S1 in column
    chunks of width 1, 2, 4, ... and drops a row from the search at its
    first neighbour on the previous level.  That early exit is exact: an
    unseen row is at least this level away, so one such neighbour fixes its
    distance, and a row with none among all d stays unseen; and a level
    reads no distance but those of the previous level, so the blocks give
    the same distances in any order.  The search stops once the reached
    rows hold all n vertices, and each row then takes the distance of its
    cycle's least row.  Raises SizeError before allocating when the orbit
    rows exceed spectrum.ORBIT_CUTOFF.
    """
    ctx = spec.ctx
    d, r, q, orbit = spec.d, ctx.r, ctx.q, ctx.p**ctx.r - 1
    count = (ctx.size - 1) // orbit + 1
    if count > _spectrum.ORBIT_CUTOFF:
        raise SizeError(f"{count} orbit rows exceed the cutoff {_spectrum.ORBIT_CUTOFF}")
    orbit_of = orbit_row_map(ctx)
    canon, lengths = frobenius_cycles(ctx)
    # -1 on the unseen least rows of their cycles, -2 on every other row,
    # whose distance is read off its least row at the end
    dist = np.empty(count, dtype=np.int32)
    unseen = 0
    for block in _row_blocks(count, 1):
        own = canon[block]
        least = own == np.arange(block.start, block.start + own.size)
        dist[block] = np.where(least, -1, -2)
        unseen += int(np.count_nonzero(least))
    dist[0] = 0
    g1 = ctx.teich_digits.T
    widest = max(1, BLOCK_PAIRS // r)  # columns of S1 in one block

    def neighbour_rows(u_cols: np.ndarray, lo: int, hi: int):
        # least rows of u + s over the columns u_cols and s in S1[lo:hi],
        # in (rows, columns) blocks of at most BLOCK_PAIRS digits, row blocks
        # in order within each chunk of `widest` columns, summed in the map's
        # layout, r contiguous int32 columns
        for c_lo in range(lo, hi, widest):
            c_hi = min(c_lo + widest, hi)
            mid = min(max(c_lo, orbit), c_hi)
            # S1 is G1 and then, for p = 2, -G1, read as q - t >= 0
            s_cols = np.concatenate([g1[:, c_lo:mid], q - g1[:, mid - orbit : c_hi - orbit]], axis=1)
            step = max(1, BLOCK_PAIRS // (r * s_cols.shape[1]))
            for i in range(0, u_cols.shape[1], step):
                nb = u_cols[:, i : i + step, None] + s_cols[:, None, :]
                rows = canon.take(orbit_of(nb.reshape(r, -1).T))
                del nb  # before the next block's sums are formed
                yield rows.reshape(-1, s_cols.shape[1])

    def vertices(rows: np.ndarray) -> int:
        return orbit * int(lengths.take(rows).sum())

    # level 1 is S1: the orbit of 1 and, for p = 2, that of -1
    frontier = canon.take(orbit_of(_heads(ctx)))
    dist[frontier] = level = 1
    unseen -= 1 + frontier.size
    frontier_vertices = vertices(frontier)
    reached = 1 + frontier_vertices
    while frontier.size and reached < spec.n:
        level += 1
        found = []
        if unseen * min(d, spec.n / frontier_vertices) < frontier.size * d:
            for block in _row_blocks(count, 1):
                pending = np.flatnonzero(dist[block] == -1).astype(np.int32) + block.start
                u_cols = orbit_digits(ctx, pending).T
                lo, width = 0, 1
                while pending.size and lo < d:
                    hi = min(lo + width, d)
                    blocks = neighbour_rows(u_cols, lo, hi)
                    near = np.concatenate([(dist.take(nb) == level - 1).any(axis=1) for nb in blocks])
                    found.append(pending[near])
                    dist[found[-1]] = level
                    pending, u_cols = pending[~near], u_cols[:, ~near]
                    lo, width = hi, min(2 * width, widest)
        else:
            for part in _row_blocks(frontier.size, r):
                for nb in neighbour_rows(orbit_digits(ctx, frontier[part]).T, 0, d):
                    new = np.sort(nb[dist.take(nb) == -1])
                    found.append(new[np.diff(new, prepend=-1) != 0])  # rows are >= 0
                    dist[found[-1]] = level
        frontier = np.concatenate(found)
        unseen -= frontier.size
        frontier_vertices = vertices(frontier)
        reached += frontier_vertices
    for block in _row_blocks(count, 1):
        dist[block] = dist.take(canon[block])  # least rows keep their own
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
        mult = spectrum.multiplicity_of(spec.d)
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
    integral = bool((abs(spectrum.values - np.round(spectrum.values)) <= spectrum.tol).all())
    record = {
        "n": n,
        "d": d,
        "energy": energy,
        "integral": integral,
        "hyperenergetic": energy > threshold,
        "threshold": threshold,
    }
    if spectrum.exact:
        record["principal_eigenvalue"] = spectrum.max_value
        record["principal_multiplicity"] = spectrum.multiplicity_of(d)
        record["reference_principal_term"] = d // 2
    return record


def _girth_claim(spec: GraphSpec, spectrum: Spectrum) -> ClaimReport:
    """Girth 4 is asserted for p = 2 and odd r; elsewhere it is reported."""
    g = girth(spec)
    if spec.ctx.p == 2 and spec.ctx.r % 2 == 1:
        return ClaimReport("girth", g == 4, 4, g, None if g == 4 else g)
    return ClaimReport("girth", True, None, g, asserted=False)


def _connectivity_claim(spec: GraphSpec, spectrum: Spectrum) -> ClaimReport:
    """BFS agrees with e < r/2 + 1, the multiplicity of d and Chung's bound."""
    rec = connectivity(spec, spectrum)
    ok = (
        rec["consistent_with_condition"]
        and rec["degree_multiplicity_matches_components"]
        and rec.get("diameter_within_chung", True)
    )
    observed = rec["components"] if rec["diameter"] is None else rec["diameter"]
    return ClaimReport(
        "connectivity", ok, rec.get("chung_bound"), observed, None if ok else rec
    )


def _energy_claim(spec: GraphSpec, spectrum: Spectrum) -> ClaimReport:
    """Integral and hyperenergetic, asserted for p^e = 4 only."""
    rec = energy_report(spectrum)
    if spec.ctx.q != 4:
        return ClaimReport(
            "energy", True, rec["threshold"], rec["energy"], asserted=False
        )
    ok = rec["integral"] and rec["hyperenergetic"]
    return ClaimReport(
        "energy", ok, rec["threshold"], rec["energy"], None if ok else rec
    )


# Claim id -> check on (spec, spectrum, zeta sums); None skips a claim that
# needs p^e = 4.  The lambdas look each check up in this module when called,
# so a wrapper set on the module attribute sees every call.  The spectrum is
# None unless a claim of SPECTRUM_CLAIMS is selected, and the zeta sums are
# None unless one of ZETA_CLAIMS is (bhk only counts when p^e = 4, as it
# is skipped otherwise).
CLAIMS: dict[
    str, Callable[[GraphSpec, Optional[Spectrum], Optional[ZetaSums]], Optional[ClaimReport]]
] = {
    "bhk": lambda spec, sp, z: check_bhk(spec.ctx, z) if spec.ctx.q == 4 else None,
    "connectivity": lambda spec, sp, z: _connectivity_claim(spec, sp),
    "energy": lambda spec, sp, z: _energy_claim(spec, sp),
    "girth": lambda spec, sp, z: _girth_claim(spec, sp),
    "interval": lambda spec, sp, z: check_interval(spec, sp),
    "ramanujan": lambda spec, sp, z: replace(
        is_ramanujan(sp), asserted=spec.ctx.q == 4 and spec.ctx.r >= 4
    ),
    "residue": lambda spec, sp, z: (
        check_residue_partition(spec.ctx, spec.gamma) if spec.ctx.q == 4 else None
    ),
    "wcu": lambda spec, sp, z: check_wcu_summary(spec.ctx, z),
}
DEFAULT_CHECKS = tuple(CLAIMS)
SPECTRUM_CLAIMS = frozenset({"connectivity", "energy", "interval", "ramanujan"})
ZETA_CLAIMS = SPECTRUM_CLAIMS | {"bhk", "wcu"}


def verify_graph(
    spec: GraphSpec,
    checks: Optional[Sequence[str]] = None,
) -> dict:
    """Run the selected claims of CLAIMS, all by default, and assemble the
    JSON-ready report; an empty selection raises ParameterError.  One
    zeta_sums transform serves the spectrum, wcu and bhk; it runs only when
    one of them is selected, and the spectrum is built, and summarised,
    only for a claim of SPECTRUM_CLAIMS."""
    ctx = spec.ctx
    selected = sorted(set(DEFAULT_CHECKS if checks is None else checks))
    if not selected:
        raise ParameterError("no checks selected: a report would claim nothing")
    unknown = [c for c in selected if c not in CLAIMS]
    if unknown:
        raise ParameterError(f"unknown checks: {unknown}")

    spectral = SPECTRUM_CLAIMS.intersection(selected)
    if spectral:
        _require_spectrum_size(spec)  # before the transform allocates
    reads_zeta = ZETA_CLAIMS if ctx.q == 4 else ZETA_CLAIMS - {"bhk"}
    zeta = zeta_sums(ctx) if reads_zeta.intersection(selected) else None
    spectrum = full_spectrum(spec, zeta) if spectral else None
    reports = {}
    for c in selected:
        start = time.perf_counter()
        reports[c] = CLAIMS[c](spec, spectrum, zeta)
        log.debug("claim %s: %.4f s", c, time.perf_counter() - start)
    return {
        "graph": {
            "p": ctx.p,
            "e": ctx.e,
            "r": ctx.r,
            "gamma": coeff_string(spec.gamma),
            "n": spec.n,
            "d": spec.d,
        },
        "claims": [rep.to_dict() for rep in reports.values() if rep is not None],
        "skipped": [c for c, rep in reports.items() if rep is None],
        "spectrum_summary": None
        if spectrum is None
        else {
            "distinct": spectrum.distinct,
            "min": spectrum.min_value,
            "max": spectrum.max_value,
            "lambda_G": spectrum.lambda_g(),
        },
    }

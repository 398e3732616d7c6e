"""Weighted string tests and growth-rate exponents, all exact.

A test here is a leveled array of strings whose level-k weight under the
scaling s, the sum of 2^(-s*|string|), stays strictly below 2^-k. For
rational s = p/q these weights live in Z[2^(-1/q)], so comparisons against
dyadic bounds are decided exactly: group the terms by exponent residue
mod q and bracket the single irrational 2^(-1/q) by dyadic intervals until
the sign is forced. No floats anywhere.

A half-scaled test compiles into a pair of single-parity betting
strategies, one per parity, that reach capital 1 on the cone above every
test string while starting from the test's small total mass. Growth-rate
exponents of a strategy along a prefix are reported exactly when the value
is a power of two and as arbitrarily tight dyadic brackets otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bits
from .blocktest import TestArray
from .errors import PreconditionError
from .programs import Component, StageApprox, at_stage, follow_program
from .strategy import Kind, Parity, Sided, StrategyTable


# compare_scaled_weight holds q coefficients and raises its bracket to
# powers below q, for s = p/q
_MAX_SCALE_DENOMINATOR = 10**4


def _check_rational_scale(s) -> Fraction:
    s = Fraction(s)
    if not 0 < s <= 1:
        raise PreconditionError(f"scale must lie in (0, 1], got {s}")
    if s.denominator > _MAX_SCALE_DENOMINATOR:
        raise PreconditionError(
            f"scale denominator {s.denominator} is above {_MAX_SCALE_DENOMINATOR}"
        )
    return s


# log2_bracket squares a (precision + 16)-bit integer once per digit, so
# the cost of a sample grows faster than precision squared
_MAX_PRECISION = 1000


def compare_scaled_weight(lengths: list[int], s, k: int) -> int:
    """Sign of (sum over lengths of 2^(-s*L)) minus 2^(-k), exactly.

    With s = p/q every term is a power of t = 2^(-1/q). Collecting powers
    by residue mod q leaves a polynomial D of degree below q with rational
    coefficients; D(t) = 0 forces D to vanish identically because t has
    algebraic degree exactly q (x^q - 2 is irreducible). Otherwise the
    sign of D(t) is obtained by shrinking a dyadic bracket around t until
    the interval evaluation of D excludes zero, which the nonvanishing
    guarantees will happen; with q = 1 the first bracket decides it.
    """
    s = _check_rational_scale(s)
    p, q = s.numerator, s.denominator
    coeffs = [Fraction(0)] * q  # index r holds the coefficient of t^r
    for length in lengths:
        if length < 0:
            raise PreconditionError("negative string length")
        e = p * length
        coeffs[e % q] += Fraction(1, 2 ** (e // q))
    coeffs[0] -= Fraction(1, 2**k) if k >= 0 else Fraction(2 ** (-k))
    if all(c == 0 for c in coeffs):
        return 0
    lo, hi = Fraction(1, 2), Fraction(1)  # bracket of t = 2^(-1/q)
    while True:
        low_val = sum(
            c * (lo**r if c > 0 else hi**r) for r, c in enumerate(coeffs) if c
        )
        high_val = sum(
            c * (hi**r if c > 0 else lo**r) for r, c in enumerate(coeffs) if c
        )
        if low_val > 0:
            return 1
        if high_val < 0:
            return -1
        mid = (lo + hi) / 2
        if mid**q > Fraction(1, 2):
            hi = mid
        else:
            lo = mid


@dataclass(frozen=True)
class LevelVerdict:
    """Outcome of the weight bound at one level of a scaled test."""

    level: int
    count: int
    sign: int  # sign of (level weight - 2^-level)
    strict: bool
    min_length: int


def validate_s_test(array: TestArray, s) -> list[LevelVerdict]:
    """Check the strict level-weight bounds of a scaled test.

    Level k passes when sum(2^(-s*|sigma|) for sigma in level k) < 2^-k.
    Equality fails: the bound is strict. Returns one verdict per level;
    never raises on a failing level.
    """
    s = _check_rational_scale(s)
    verdicts = []
    for k, members in enumerate(array.levels):
        lengths = [len(m) for m in members]
        sign = compare_scaled_weight(lengths, s, k)
        verdicts.append(
            LevelVerdict(
                level=k,
                count=len(members),
                sign=sign,
                strict=sign < 0,
                min_length=min(lengths) if lengths else 0,
            )
        )
    return verdicts


def strategies_from_test(array: TestArray) -> tuple[StageApprox, StageApprox]:
    """Compile a half-scaled test into a pair of single-parity strategies.

    For each member sigma the even-betting component starts at
    2^-ceil(|sigma|/2) and doubles toward sigma at even positions, the
    odd-betting one starts at 2^-floor(|sigma|/2) and doubles at odd
    positions; both hold capital exactly 1 on the whole cone above sigma.
    Components of level k activate at stage k, so finite-stage
    approximations cover exactly the levels seen so far.

    The total starting mass of each side is below 2: each component's
    start is at most 2^(-|sigma|/2), level k sums to below 2^-k by the
    test bound, and the levels sum geometrically.
    """
    for verdict in validate_s_test(array, Fraction(1, 2)):
        if not verdict.strict:
            raise PreconditionError(
                f"level {verdict.level} breaks the half-scaled weight bound"
            )
    members = [(k, sigma) for k, level in enumerate(array.levels) for sigma in level]
    if not members:
        raise PreconditionError("test has no members to compile")
    sides = []
    # the even side rounds |sigma|/2 up, the odd side down
    for parity, up in ((Parity.BETS_ON_EVEN, 1), (Parity.BETS_ON_ODD, 0)):
        parts = tuple(
            Component(stage=k, weight=Fraction(1), program=follow_program(
                sigma, parity, Fraction(1, 2 ** ((len(sigma) + up) // 2))))
            for k, sigma in members
        )
        sides.append(StageApprox(parts, Kind.MARTINGALE, parity, Sided.NONE))
    return sides[0], sides[1]


def _power_of_two_log(v: Fraction) -> int | None:
    # exact log2 when v is an integer power of two, else None
    num, den = v.numerator, v.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return num.bit_length() - den.bit_length()
    return None


def _log2_digits(num: int, den: int, m: int, precision: int, guard: int):
    # binary-digit extraction of log2(num/den) - m with interval squaring;
    # operands are rounded outward to guard bits each step so integer sizes
    # stay bounded. Returns None when a digit straddles the rounding slack.
    scale = 1 << guard
    lo_i = (num << guard) // den
    hi_i = -((-num << guard) // den)
    digits = 0
    for _ in range(precision):
        lo_i = (lo_i * lo_i) >> guard
        hi_i = (hi_i * hi_i + scale - 1) >> guard
        digits <<= 1
        if lo_i >= 2 * scale:
            lo_i >>= 1
            hi_i = (hi_i + 1) >> 1
            digits |= 1
        elif hi_i >= 2 * scale:
            return None
    low = (m << precision) + digits
    return Fraction(low, 1 << precision), Fraction(low + 1, 1 << precision)


def log2_bracket(v: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width 2^-precision containing log2(v), v > 0."""
    if v <= 0:
        raise PreconditionError("log2 needs a positive value")
    if precision < 0:
        raise PreconditionError(f"precision must be nonnegative, got {precision}")
    exact = _power_of_two_log(v)
    if exact is not None:
        return Fraction(exact), Fraction(exact)
    # scale by 2^-m into 1 <= num/den < 2, so log2(v) = m + log2(num/den);
    # v is not a power of two so no squaring ever lands exactly on a
    # digit boundary and some guard width always resolves every digit
    num, den = v.numerator, v.denominator
    m = num.bit_length() - den.bit_length()
    if m >= 0:
        den <<= m
    else:
        num <<= -m
    if num < den:
        num <<= 1
        m -= 1
    guard = precision + 16
    while True:
        got = _log2_digits(num, den, m, precision, guard)
        if got is not None:
            return got
        guard *= 2


@dataclass(frozen=True)
class ExponentSample:
    """Growth exponent 1 - log2(value)/n at one prefix length n.

    Exactly one of three shapes: infinite (value 0), exact (value a power
    of two, exponent a Fraction), or bracketed (a dyadic interval trapping
    the irrational exponent).
    """

    n: int
    value: Fraction
    exact: Fraction | None
    bracket: tuple[Fraction, Fraction] | None
    infinite: bool

    def low(self) -> Fraction | None:
        if self.infinite:
            return None
        return self.exact if self.exact is not None else self.bracket[0]

    def high(self) -> Fraction | None:
        if self.infinite:
            return None
        return self.exact if self.exact is not None else self.bracket[1]

    def matches_half_log2(self, base: int) -> bool:
        """True when the exponent equals log2(base)/2 exactly.

        1 - log2(v)/n = log2(base)/2 rearranges to v^2 * base^n = 4^n,
        a pure integer identity, so irrational exponents are confirmed
        symbolically instead of numerically.
        """
        if self.infinite:
            return False
        v = self.value
        return v * v * base**self.n == Fraction(4) ** self.n


@dataclass(frozen=True)
class DimReport:
    """Exponent samples along a prefix plus running envelope bounds."""

    x: str
    samples: tuple[ExponentSample, ...]
    lower: Fraction | None  # min of sample lows, None if all infinite
    upper: Fraction | None  # max of sample highs, None if any infinite

    def even_samples(self) -> tuple[ExponentSample, ...]:
        return tuple(s for s in self.samples if s.n % 2 == 0)

    def half_log2_base(self) -> int | None:
        """Smallest base b in 2..8 matching every even sample, if any."""
        pool = self.even_samples()
        if not pool:
            return None
        for base in range(2, 9):
            if all(s.matches_half_log2(base) for s in pool):
                return base
        return None


def empirical_dim_bound(
    strategy, x: str, stage: int | None = None, precision: int = 20
) -> DimReport:
    """Sample the exponent 1 - log2(M(x[:n]))/n for every n up to |x|.

    strategy is anything at_stage reads: a table, a program, a packing
    certificate, or a staged mixture, read at stage (default: its last
    activation stage).
    Zero values give an infinite sample (the strategy ruled the prefix
    out entirely); values that are powers of two give exact rational
    exponents; everything else is trapped in a dyadic bracket of width
    2^-precision scaled by 1/n.
    """
    if precision < 0:
        raise PreconditionError(f"precision must be nonnegative, got {precision}")
    if precision > _MAX_PRECISION:
        raise PreconditionError(f"precision {precision} is above {_MAX_PRECISION}")
    bits.check_bits(x)
    if not x:
        raise PreconditionError("need a nonempty prefix to sample")
    if isinstance(strategy, StrategyTable) and len(x) > strategy.depth:
        raise PreconditionError(
            f"prefix length {len(x)} exceeds table depth {strategy.depth}"
        )
    evaluate = at_stage(strategy, stage).value
    samples = []
    for n in range(1, len(x) + 1):
        v = evaluate(x[:n])
        if v == 0:
            samples.append(
                ExponentSample(n=n, value=v, exact=None, bracket=None, infinite=True)
            )
            continue
        log_lo, log_hi = log2_bracket(v, precision)
        exact = log_lo == log_hi  # v is a power of two
        samples.append(
            ExponentSample(
                n=n,
                value=v,
                exact=Fraction(n - log_lo, n) if exact else None,
                bracket=None if exact else (1 - log_hi / n, 1 - log_lo / n),
                infinite=False,
            )
        )
    lows = [s.low() for s in samples]
    highs = [s.high() for s in samples]
    return DimReport(
        x=x,
        samples=tuple(samples),
        lower=None if all(l is None for l in lows) else min(l for l in lows if l is not None),
        upper=None if any(h is None for h in highs) else max(highs),
    )

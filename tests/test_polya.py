import hashlib
import math
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from coreperim.families import FamilySpec, count_family
from coreperim.polya import (
    PFSequence,
    RealRootednessError,
    RootCertificate,
    _FILTER_BITS,
    _Plan,
    _exact_sign,
    _fixed_sign,
    _float_sign,
    _sign,
    bernoulli_decomposition,
    pf_real_roots,
    pf_tail_bound,
    residual,
    u_distribution,
    u_mean_bounds,
    u_polynomial,
    u_variance_deviations,
    u_weights,
)


def horner(coeffs, q):
    """Exact p(q) over Fraction, the oracle for brackets and signs."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def exact_sign(coeffs, q):
    v = horner(coeffs, q)
    return (v > 0) - (v < 0)


def times_linear(coeffs, num, den):
    """Coefficients of (den z - num) * p(z), which vanishes at num/den."""
    out = [0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] -= num * c
        out[k + 1] += den * c
    return out


def closed_roots(n, d):
    """Known root formula for the nonzero-count polynomial of the strict family."""
    deg = n // 2
    return sorted(
        -1 / (4 * d * math.cos(j * math.pi / (n + 1)) ** 2) for j in range(1, deg + 1)
    )


def test_pf_sequence_validation():
    s = PFSequence((1, 4, 3))
    assert s.degree == 2
    assert horner(s.coefficients, Fraction(-1)) == 0
    assert horner(s.coefficients, 2) == 21
    with pytest.raises(ValueError):
        PFSequence((1, -2, 1))
    with pytest.raises(ValueError):
        PFSequence((1, 2, 0))
    with pytest.raises(ValueError):
        PFSequence(())


def test_real_rootedness_error_cases():
    with pytest.raises(RealRootednessError):
        pf_real_roots([1, 1, 1])  # conjugate pair
    with pytest.raises(RealRootednessError):
        pf_real_roots([2, 1, 2])
    # only simple roots are certified
    with pytest.raises(RealRootednessError, match="multiple root"):
        pf_real_roots([1, 2, 1])
    assert issubclass(RealRootednessError, ValueError)


def test_zero_leading_coefficient_is_refused():
    for coeffs in ([1, 2, 0], [0, 0], [3, 0, 0]):
        with pytest.raises(ValueError, match="need a nonzero leading coefficient"):
            pf_real_roots(coeffs)


def test_zero_polynomial_is_refused():
    for coeffs in ([], [0], (0,)):
        with pytest.raises(ValueError, match="need a nonzero leading coefficient"):
            pf_real_roots(coeffs)
    # a nonzero constant has no roots, and degree 0
    for coeffs in ([5], [-2]):
        assert pf_real_roots(coeffs) == ([], RootCertificate(degree=0, brackets=()))


def test_hand_polynomials():
    roots, cert = pf_real_roots([1, 3, 1])
    assert cert.degree == 2
    expect = sorted(((-3 - math.sqrt(5)) / 2, (-3 + math.sqrt(5)) / 2))
    for r, e in zip(roots, expect):
        assert abs(r - e) < 1e-12
    # rational roots of 1 + 4z + 3z^2
    roots, _ = pf_real_roots([1, 4, 3])
    assert abs(roots[0] + 1) < 1e-12
    assert abs(roots[1] + Fraction(1, 3)) < 1e-12
    # linear and cubic
    roots, _ = pf_real_roots([2, 4])
    assert roots == [pytest.approx(-0.5)]
    # a negative leading coefficient: 1 - 2z has the exact root 1/2
    assert pf_real_roots([1, -2]) == ([0.5], RootCertificate(1, ((Fraction(1, 2),) * 2,)))
    roots, _ = pf_real_roots([6, 11, 6, 1])  # (1+z)(2+z)(3+z)
    assert roots == pytest.approx([-3, -2, -1], abs=1e-11)


def test_refinement_stops_on_an_exact_root():
    # (z - 1)(z - 2)(z - 3): bisecting the middle bracket lands on 2 exactly
    _, cert = pf_real_roots([-6, 11, -6, 1])
    assert cert.brackets[1] == (2, 2)
    lo, hi = cert.brackets[0]
    assert lo < 1 < hi
    # z^3 - 3z + 1: bisecting the critical bracket [-2, 0] lands on the
    # critical point -1, so p's cached end signs must be taken again there
    roots, cert = pf_real_roots([1, -3, 0, 1])
    assert roots == pytest.approx(sorted(2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4)))
    for lo, hi in cert.brackets:
        assert horner((1, -3, 0, 1), lo) * horner((1, -3, 0, 1), hi) < 0


def test_certificate_brackets_are_exact_and_tight():
    roots, cert = pf_real_roots([1, 3, 1])
    assert len(cert.brackets) == cert.degree
    for root, (lo, hi) in zip(roots, cert.brackets):
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo <= Fraction(root) <= hi
        # sign change across the bracket, evaluated in exact arithmetic
        assert horner((1, 3, 1), lo) * horner((1, 3, 1), hi) <= 0
        assert hi - lo <= abs(lo) * Fraction(1, 10**12)
    assert cert.all_negative
    assert cert.all_at_most(Fraction(-1, 4))
    assert not cert.all_at_most(Fraction(-1, 2))


# every C08-grid bracket exactly as plain Fraction bisection gives it
C08_BRACKETS_SHA256 = "b5737b21e6e739cfab3c8f9bce422eca4b15c3e89773c52f44efd8bb582695d0"


def test_certificate_brackets_are_pinned():
    joined = ";".join(
        f"{lo}:{hi}"
        for n, d in product(range(2, 41), (1, 2, 3))
        for lo, hi in pf_real_roots(u_polynomial(n, d))[1].brackets
    )
    assert hashlib.sha256(joined.encode()).hexdigest() == C08_BRACKETS_SHA256
    roots, cert = pf_real_roots(u_polynomial(4, 1))
    assert cert.brackets == (
        (Fraction(-23028470500347, 8796093022208), Fraction(-92113882001383, 35184372088832)),
        (Fraction(-53756937060447, 140737488355328), Fraction(-13439234265109, 35184372088832)),
    )
    assert roots == [-2.6180339887499002, -0.3819660112500962]


# coefficients past 2^53 as well, where the float tier must step aside
polys = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.integers(-2**70, 2**70)), min_size=1, max_size=7
)
rationals = st.one_of(
    st.tuples(st.integers(-10**4, 10**4), st.integers(1, 10**4)),
    # denominators of 2^800 and more
    st.tuples(st.integers(-2**830, 2**830), st.integers(2**800, 2**820)),
    # |num/den| past the float range
    st.tuples(st.integers(10**400, 10**420) | st.integers(-10**420, -10**400), st.integers(1, 10**6)),
    # 0 < |num/den| < 2^-1000
    st.tuples(st.integers(-2**20, 2**20).filter(bool), st.integers(2**1030, 2**1040)),
)


def tier_signs(coeffs, num, den):
    """Each tier's answer at num/den: float, fixed at P = 160, fixed at the wide P, exact."""
    plan = _Plan(coeffs)
    fixed, error = plan.bounds(abs(num) // den + 2)
    wide = den.bit_length() + fixed.bit_length()
    return (
        _float_sign(plan, num, den, error),
        _fixed_sign(plan, num, den, _FILTER_BITS, fixed),
        _fixed_sign(plan, num, den, wide, fixed),
        _exact_sign(coeffs, num, den),
    )


def check_oracle(coeffs, num, den):
    """Every tier is undecided or right, and `_sign` is the Fraction Horner sign."""
    expect = exact_sign(coeffs, Fraction(num, den))
    *filters, exact = tier_signs(coeffs, num, den)
    assert all(s in (None, expect) for s in filters)
    assert exact == expect
    assert _sign(_Plan(coeffs), num, den) == expect
    return expect


@given(polys, rationals, st.integers(1, 50))
def test_sign_filter_matches_exact_horner(coeffs, point, scale):
    num, den = point
    expect = check_oracle(coeffs, num, den)
    # an unreduced fraction names the same point
    assert check_oracle(coeffs, scale * num, scale * den) == expect


@given(polys.filter(any), rationals, st.integers(-3, 3), st.integers(0, 2**64))
def test_sign_filter_at_and_near_rational_roots(cofactor, root, side, salt):
    num, den = root
    coeffs = times_linear(cofactor, num, den)
    assert tier_signs(coeffs, num, den) == (None, None, None, 0)
    assert _sign(_Plan(coeffs), num, den) == 0
    # within 2^-200 of the root, and near it with large odd denominators
    tiny = 2**200
    for big in (tiny, 2**300 + 2 * salt + 1, 2**800 + 2 * salt + 1):
        check_oracle(coeffs, num * big + side * den, den * big)


def test_each_tier_decides_its_own_case():
    # (3z - 1)(z + 2): doubles settle z = 1, and nothing settles the root but integers
    coeffs = [-2, 5, 3]
    assert tier_signs(coeffs, 1, 1) == (1, 1, 1, 1)
    assert tier_signs(coeffs, 1, 3) == (None, None, None, 0)
    # 2^-300 from the root: past P = 160, within P = bits(den) + bits(B)
    assert tier_signs(coeffs, 2**300 + 3, 3 * 2**300) == (None, None, 1, 1)
    # a coefficient past 2^53 keeps the doubles out, and P = 160 decides
    assert tier_signs([2**60, 1], -1, 3) == (None, 1, 1, 1)
    # the float tier steps aside past the float range and below 2^-1000
    assert tier_signs([1, 3, 1], 10**400, 1)[0] is None
    assert tier_signs([1, 3, 1], 1, 2**1100)[0] is None
    assert tier_signs([1, 3, 1], 1, 2**900) == (1, 1, 1, 1)


def separators(n, d):
    """n // 2 + 1 rationals interleaving the closed-form roots, -1/(4d) last."""
    roots = closed_roots(n, d)
    inner = [Fraction((lo + hi) / 2) for lo, hi in zip(roots, roots[1:])]
    return [Fraction(2 * roots[0])] + inner + [Fraction(-1, 4 * d)]


def separator_signs(n, d):
    """Exact signs of the match-count polynomial at `separators(n, d)`.

    n // 2 sign changes at n // 2 + 1 points prove all n // 2 roots real and
    simple, one in each gap, and every root below -1/(4d).
    """
    plan = _Plan(u_weights(n, d))
    return [_sign(plan, q.numerator, q.denominator) for q in separators(n, d)]


@pytest.mark.parametrize("n", [60, 100, 200])
@pytest.mark.parametrize("d", [1, 3])
def test_separator_certificate(n, d):
    signs = separator_signs(n, d)
    assert len(signs) == n // 2 + 1
    assert all(s != 0 and s == -t for s, t in zip(signs, signs[1:]))


def test_brackets_lie_in_separator_gaps():
    for n, d in product(range(2, 41), (1, 3)):
        signs = separator_signs(n, d)
        assert all(s != 0 and s == -t for s, t in zip(signs, signs[1:]))
        pts = separators(n, d)
        _, cert = pf_real_roots(u_polynomial(n, d))
        assert len(cert.brackets) == len(pts) - 1
        for (lo, hi), left, right in zip(cert.brackets, pts, pts[1:]):
            assert left < lo <= hi < right


def test_u_weights_and_polynomial():
    assert u_weights(6, 2) == [1, 10, 24, 8]
    assert u_weights(4, 1) == [1, 3, 1]
    for n in range(2, 12):
        for d in (1, 2, 3):
            w = u_weights(n, d)
            assert w == [comb(n - k, k) * d**k for k in range(n // 2 + 1)]
            assert sum(w) == count_family(FamilySpec("strict", n, d))
            assert u_polynomial(n, d).coefficients == tuple(w)
            assert u_distribution(n, d).atoms == {k: wk for k, wk in enumerate(w)}
    with pytest.raises(ValueError):
        u_weights(1, 1)
    with pytest.raises(ValueError):
        u_weights(4, 0)


def test_roots_match_closed_form():
    for n in range(2, 16):
        for d in (1, 2, 3):
            roots, cert = pf_real_roots(u_polynomial(n, d))
            expect = closed_roots(n, d)
            assert len(roots) == len(expect) == n // 2
            for r, e in zip(roots, expect):
                assert abs(r - e) <= 1e-9 * abs(e)
                assert residual(u_weights(n, d), r) < 1e-9
            assert cert.all_negative
            assert cert.all_at_most(Fraction(-1, 4 * d))


def test_bernoulli_decomposition():
    b = bernoulli_decomposition(4, 1)
    # success probabilities (5 +- sqrt 5)/10, descending
    assert b.probabilities == pytest.approx(((5 + 5**0.5) / 10, (5 - 5**0.5) / 10))
    assert b.reconstruction_error < 1e-12
    assert b.roots[0] < b.roots[1] < 0
    for n in (7, 10, 13):
        for d in (1, 2):
            b = bernoulli_decomposition(n, d)
            assert all(0 < p < 1 for p in b.probabilities)
            assert list(b.probabilities) == sorted(b.probabilities, reverse=True)
            assert b.reconstruction_error < 1e-9
            u = u_distribution(n, d)
            mean = sum(b.probabilities)
            var = sum(p * (1 - p) for p in b.probabilities)
            assert abs(mean - float(u.mean())) < 1e-9
            assert abs(var - float(u.variance())) < 1e-9


def test_mean_bounds():
    m = u_mean_bounds(5, 1)
    assert m.mean == Fraction(5, 4)
    assert m.upper == Fraction(5, 2)
    assert m.meets_upper
    assert m.linear_slack == pytest.approx(1.25 - (5 - 5**0.5) / 10 * 5)
    for n in range(2, 60):
        for d in (1, 2, 3):
            m = u_mean_bounds(n, d)
            assert m.meets_upper and m.mean <= Fraction(n, 2)
            assert m.linear_slack > -0.2


def test_lower_tail_bound():
    t = pf_tail_bound(8, 1, 1)
    assert t.mean == Fraction(71, 34)
    assert t.tail == Fraction(4, 17)  # P(U <= mean - 1) = P(U <= 1) = 16/68
    assert t.holds and float(t.tail) <= t.bound
    with pytest.raises(ValueError, match="^need r > 0$"):
        pf_tail_bound(10, 1, 0)
    for n in (6, 9, 12, 15):
        for d in (1, 2):
            mean = u_mean_bounds(n, d).mean
            for r in (Fraction(1), Fraction(3, 2), mean / 2):
                chk = pf_tail_bound(n, d, r)
                assert chk.holds
                assert chk.bound == pytest.approx(math.exp(-float(r * r / (2 * mean))))


def test_variance_deviations():
    rows = u_variance_deviations(range(5, 40))
    assert [r[0] for r in rows] == list(range(5, 40))
    target = math.sqrt(5) / 25
    for n, var, dev in rows:
        assert isinstance(var, Fraction)
        assert dev == pytest.approx(abs(float(var) - target * n))
        assert dev < 0.08

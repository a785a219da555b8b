import copy
import decimal
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from timelimit import within

import conic_nf.fields
from conic_nf.errors import InvalidD, NotEuclidean, NotSquarefree, ParseError
from conic_nf.fields import (
    FieldElement,
    IntSurd,
    Surd,
    elem_size,
    elem_sqrt,
    euclid_divmod,
    divides,
    format_element,
    gcd_elems,
    integer_ring,
    is_unit,
    make_field,
    nearest_integer,
    normalize_associate,
    parse_element,
    size_lt_size_minus_one,
    size_sq,
)

Q = make_field()
QI = make_field(-1)
Q7 = make_field(-7)
Q6 = make_field(-6)
Q14 = make_field(14)


def test_make_field_descriptors():
    assert Q6.disc == -24
    assert Q6.omega_kind == "sqrt_d"
    assert Q7.disc == -7
    assert Q7.omega_kind == "half_one_plus_sqrt_d"
    assert Q7.sqrt_gen() == Q7.element(-1, 2)
    assert Q14.totally_imaginary is False
    assert Q7.totally_imaginary is True


def test_make_field_rejects():
    with pytest.raises(NotSquarefree):
        make_field(12)
    with pytest.raises(InvalidD):
        make_field(0)
    with pytest.raises(InvalidD):
        make_field(1)


def test_squarefree_d_is_decided_quickly_and_by_the_definition():
    # Trial division to the cube root of |d|, with a square test of the
    # cofactor: these d took 2.7 s and 27 s when every k^2 up to |d| was
    # tried.  The verdict is the definition's: on every |d| <= 10^5 (a sieve
    # of the squares k^2), on a few hundred p^2*m, p up to 3,000 and so below
    # or above the cube root, and on numbers up to 10^12 against factor_int.
    from conic_nf.fields import _squarefree
    from conic_nf.ideals import factor_int

    for d in (100000000000031, 10000000000000061):
        assert within(1, make_field, d).d == d
        assert within(1, _squarefree, -d)
    limit = 10**5
    sieve = [True] * (limit + 1)
    for k in range(2, math.isqrt(limit) + 1):
        sieve[k * k :: k * k] = [False] * len(sieve[k * k :: k * k])
    assert [_squarefree(n) for n in range(limit + 1)] == sieve
    assert [_squarefree(-n) for n in range(limit + 1)] == sieve
    rng = random.Random(31)
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for _ in range(300):
        p, m = rng.choice(primes), rng.randint(1, 10**5)
        assert not _squarefree(p * p * m) and not _squarefree(-p * p * m), (p, m)
        n = rng.randint(limit, 10**12)
        assert _squarefree(n) == all(e == 1 for _, e in factor_int(n)), n


def test_make_field_keeps_one_descriptor_per_d():
    K = make_field(-7)
    assert make_field("-7") is K and make_field(-7) is K
    assert make_field("Q") is make_field(None) is make_field() is Q
    for F in (K, Q, Q14):
        assert copy.copy(F) is F
        assert copy.deepcopy(F) is F
        assert pickle.loads(pickle.dumps(F)) is F
    # Elements of two separately parsed equations compare and hash alike,
    # also in a set or dict keyed by them.
    x, y = (parse_element(make_field(str(-7)), "3-2s") for _ in range(2))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert pickle.loads(pickle.dumps(x)) == x
    # An invalid d raises on every call: no failure is cached as a field.
    for _ in range(3):
        with pytest.raises(NotSquarefree):
            make_field(4)
        with pytest.raises(NotSquarefree):
            make_field("4")
        with pytest.raises(InvalidD):
            make_field(1)


def test_norm_examples():
    # (1+sqrt(-7))/2 is omega in Q(sqrt(-7)); its norm is 2.
    assert Q7.omega().norm() == 2
    x = Q6.element(643, 723)
    assert x.norm() == 643**2 + 6 * 723**2 == 3549823
    assert Q.one().norm() == 1


def test_size_examples():
    w = Q6.element(643, 723)
    assert elem_size(w) == pytest.approx(1884.1, abs=0.1)
    assert size_lt_size_minus_one(w, Q6.element(1929))
    s14 = Q14.sqrt_gen()
    assert elem_size(s14) == pytest.approx(14**0.5, abs=1e-12)
    assert elem_size(Q6.zero()) == 0.0


def test_size_minus_one_real_case():
    # |sqrt(14)| = 3.74 is not < 3 - 1 = 2.
    assert not size_lt_size_minus_one(Q14.sqrt_gen(), Q14.element(3))


def test_is_unit():
    assert is_unit(Q.element(-1))
    assert not is_unit(Q7.omega())
    assert not is_unit(Q.element(3))
    assert is_unit(QI.omega())


def test_euclid_divmod_examples():
    q, r = euclid_divmod(Q.element(7), Q.element(3))
    assert (q, r) == (Q.element(2), Q.element(1))
    a = QI.element(5, 3)
    q, r = euclid_divmod(a, QI.element(2))
    assert a == q * QI.element(2) + r
    assert abs(r.norm()) < 4
    with pytest.raises(NotEuclidean):
        euclid_divmod(Q6.element(5), Q6.element(2))
    with pytest.raises(ValueError):
        euclid_divmod(QI.element(5), Q7.element(2))


def test_gcd_examples():
    g = gcd_elems([QI.element(1, 1), QI.element(2)])
    assert abs(g.norm()) == 2  # associate of 1+i
    assert divides(g, QI.element(1, 1)) and divides(g, QI.element(2))
    g = gcd_elems([Q.zero(), Q.element(-5)])
    assert g == Q.element(5)
    assert gcd_elems([Q.element(6), Q.element(15)]) == Q.element(3)


def test_nearest_integer_examples():
    assert nearest_integer(Q.element(Fraction(3, 4))) == Q.element(1)
    x = Q6.element(Fraction(1, 3), Fraction(1, 2))
    z = nearest_integer(x)
    assert z == Q6.zero()  # tie with sqrt(-6), broken lexicographically
    assert size_sq(x - z) == Surd(Fraction(1, 9) + Fraction(3, 2))
    y = Q7.element(4, -9)
    assert nearest_integer(y) == y


def test_nearest_integer_certified_minimality():
    rng = random.Random(7)
    for field in (Q, QI, Q7, Q6, Q14, make_field(-11), make_field(5)):
        for _ in range(150):
            x = field.element(
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                0
                if field.is_rational
                else Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            )
            z = nearest_integer(x)
            d = size_sq(x - z)
            # Exhaustive window check around the coordinates.
            for m in range(int(x.u) - 4, int(x.u) + 5):
                if field.is_rational:
                    assert d <= size_sq(x - field.element(m))
                    continue
                for n in range(int(x.v) - 4, int(x.v) + 5):
                    assert d <= size_sq(x - field.element(m, n))


def test_nearest_integer_real_window_needs_no_floats():
    # The real-field window is bounded in integers, so coordinates far
    # beyond float range round as small ones do: rounding commutes with
    # translation by an integer, ties included.
    big = Q14.element(10**400, 3 * 10**399)
    for u, v in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(-7, 5), Fraction(9, 4)), (0, Fraction(1, 2))):
        x = Q14.element(u, v)
        assert nearest_integer(x + big) == nearest_integer(x) + big


def test_nearest_integer_translation_invariance():
    rng = random.Random(11)
    for _ in range(100):
        x = Q7.element(
            Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 7)
        )
        z = Q7.element(rng.randint(-5, 5), rng.randint(-5, 5))
        a = nearest_integer(x + z)
        b = nearest_integer(x) + z
        assert size_sq(x + z - a) == size_sq(x + z - b)


def _brute_force_nearest(x):
    """Minimise (N(x - z), u, v) over a window around x's coordinates."""
    field = x.field
    us = range(math.floor(x.u) - 3, math.floor(x.u) + 5)
    vs = [0] if field.is_rational else range(math.floor(x.v) - 3, math.floor(x.v) + 5)
    key = min(((x - field.element(m, n)).norm(), m, n) for m in us for n in vs)
    return field.element(key[1], key[2])


@pytest.mark.parametrize("d", [None, -1, -2, -3, -5, -6, -7, -11, -15, -19])
def test_nearest_integer_closed_form_matches_brute_force(d):
    field = make_field(d)
    rng = random.Random(f"nearest:{d}")
    for i in range(200):
        # Denominators 1 and 2 put x on lattice points and on exact ties.
        den = (1, 2, 2, 3, 4, 6, rng.randint(1, 10**4))[i % 7]
        u = Fraction(rng.randint(-60 * den, 60 * den), den)
        v = 0 if field.is_rational else Fraction(rng.randint(-60 * den, 60 * den), den)
        x = field.element(u, v)
        assert nearest_integer(x) == _brute_force_nearest(x)


def test_nearest_integer_ties_go_to_smallest_pair():
    assert nearest_integer(Q.element(Fraction(5, 2))) == Q.element(2)
    assert nearest_integer(Q.element(Fraction(-5, 2))) == Q.element(-3)
    assert nearest_integer(QI.element(Fraction(1, 2), Fraction(-1, 2))) == QI.element(0, -1)
    # Q(sqrt(-3)): (1 + w)/2 lies at norm distance 1/4 from both 1 and w.
    K3 = make_field(-3)
    assert nearest_integer(K3.element(Fraction(1, 2), Fraction(1, 2))) == K3.omega()


def test_integer_ring_is_cached_and_rejects_real_fields():
    # The kernel exists over a real field, but rounding and everything
    # built on it (division with remainder, gcds) is Euclidean-only.
    assert integer_ring(make_field(-7)) is integer_ring(Q7)
    ring = integer_ring(Q14)
    assert ring is integer_ring(make_field(14))
    with pytest.raises(ValueError):
        ring.round((7, 3), 2)
    with pytest.raises(ValueError):
        ring.divmod((7, 3), (2, 1))
    with pytest.raises(ValueError):
        ring.xgcd((7, 3), (2, 1))
    with pytest.raises(ValueError):
        ring.gcd([(7, 3), (2, 1)])


# -- an independent reference: p + q*sqrt(d) on Fractions ---------------------
#
# Nothing below calls into conic_nf's arithmetic: an element is the pair
# (p, q) of rationals with value p + q*sqrt(d) (q = 0 over Q), converted from
# the coordinates (u, v) over {1, omega} by the definition of omega.


def _ref_d(field):
    return 0 if field.is_rational else field.d


def _ref(field, u, v=0):
    """(p, q) with u + v*omega = p + q*sqrt(d)."""
    u, v = Fraction(u), Fraction(v)
    if field.is_rational or field.d % 4 != 1:
        return u, v
    return u + v / 2, v / 2


def _ref_of(x):
    return _ref(x.field, x.u, x.v)


def _ref_mul(d, x, y):
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_conj(x):
    return x[0], -x[1]


def _ref_norm(d, x):
    return x[0] * x[0] - d * x[1] * x[1]


def _ref_div(d, x, y):
    n = _ref_norm(d, y)
    p, q = _ref_mul(d, x, _ref_conj(y))
    return p / n, q / n


def _ref_pow(d, x, k):
    if k < 0:
        x, k = _ref_div(d, (Fraction(1), Fraction(0)), x), -k
    r = (Fraction(1), Fraction(0))
    for _ in range(k):
        r = _ref_mul(d, r, x)
    return r


@pytest.mark.parametrize("d", [2, 5, 6, 14, -1, -3, -7, None])
def test_integer_ring_matches_field_elements(d):
    # mul, conj, norm, trace and the trace form on kernel pairs, and the same
    # operations on FieldElements, agree with the s-coordinate reference,
    # real fields included.
    field = make_field(d)
    ring = integer_ring(field)
    rd = _ref_d(field)
    rng = random.Random(29)
    for _ in range(300):
        px, py = (
            (rng.randint(-99, 99), 0 if field.is_rational else rng.randint(-99, 99))
            for _ in range(2)
        )
        x, y = field.element(*px), field.element(*py)
        rx, ry = _ref(field, *px), _ref(field, *py)
        assert _ref(field, *ring.mul(px, py)) == _ref_mul(rd, rx, ry) == _ref_of(x * y)
        assert _ref(field, *ring.conj(px)) == _ref_conj(rx) == _ref_of(x.conj())
        assert ring.norm(px) == _ref_norm(rd, rx) == x.norm()
        assert ring.trace(px) == 2 * rx[0] == x.trace()
        # The trace form: tr(x * conj(y)) over an imaginary field, tr(x * y)
        # otherwise.
        other = _ref_conj(ry) if field.totally_imaginary else ry
        assert ring.dot(px, py) == 2 * _ref_mul(rd, rx, other)[0]


@pytest.mark.parametrize("d", [2, 5, 6, 14, -6, -7, None])
def test_integer_ring_sizes_order_like_surds(d):
    # size_sq is twice the exact squared size; over a real field an IntSurd,
    # ordered by an integer sign test exactly as the Surd of size_sq.
    from conic_nf.fields import IntSurd

    field = make_field(d)
    ring = integer_ring(field)
    rng = random.Random(31)
    elems = [
        field.element(rng.randint(-30, 30), 0 if field.is_rational else rng.randint(-30, 30))
        for _ in range(60)
    ]
    # Equal sizes: a real element and its conjugate, negatives.
    elems += [x.conj() for x in elems[:10]] + [-x for x in elems[:10]]
    keys = [ring.size_sq(ring.pair(x)) for x in elems]
    assert all(isinstance(k, IntSurd) == bool(d and d > 0) for k in keys)
    for x, kx in zip(elems, keys):
        assert math.isclose(float(kx), 2 * float(size_sq(x)), rel_tol=1e-12, abs_tol=1e-12)
        assert math.ceil(kx) - 1 < float(kx) <= math.ceil(kx)
        for y, ky in zip(elems, keys):
            assert (kx < ky) == (size_sq(x) < size_sq(y))
            assert (kx == ky) == (size_sq(x) == size_sq(y))


def test_round_quotient_is_fraction_rounding():
    from conic_nf.fields import round_quotient

    for n in range(-40, 41):
        for d in (-8, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 8):
            assert round_quotient(n, d) == round(Fraction(n, d))


def test_norm_multiplicativity_and_trace_additivity():
    rng = random.Random(3)
    for field in (QI, Q7, Q6, Q14):
        for _ in range(200):
            x = field.element(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            y = field.element(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()
            assert x.conj().conj() == x
            assert (x * x.conj()).v == 0


def test_euclid_divmod_random_property():
    rng = random.Random(5)
    for d in (None, -1, -2, -3, -7, -11):
        field = make_field(d)
        for _ in range(1000):
            a = field.element(
                rng.randint(-50, 50), 0 if field.is_rational else rng.randint(-50, 50)
            )
            b = field.element(
                rng.randint(-50, 50), 0 if field.is_rational else rng.randint(-50, 50)
            )
            if b.is_zero:
                continue
            q, r = euclid_divmod(a, b)
            assert a == q * b + r
            assert abs(r.norm()) < abs(b.norm())


def test_rational_kernel_matches_the_gaussian_pair_path():
    # Over Q the kernel's xgcd, exact_div and gcd run on plain ints.  On
    # (a, 0) and (b, 0) the pair path of Q(sqrt(-1)) takes the same
    # nearest-integer quotients, so it is the reference: the same Bezout
    # coefficients, which the lattice step of holzer feeds to LLL.  Its
    # normalised gcd is the negative associate.
    ring, ref = integer_ring(Q), integer_ring(QI)
    rng = random.Random(23)

    def draw():
        n = rng.choice((0, 1, 2, 8, 64, 200, rng.randint(0, 200)))
        return rng.choice((-1, 1)) * rng.getrandbits(n)

    for i in range(10_000):
        a, b = draw(), draw()
        if i % 3 == 0:
            a = b * draw()
        pa, pb = (a, 0), (b, 0)
        assert ring.xgcd(pa, pb) == ref.xgcd(pa, pb), (a, b)
        g, h = ring.gcd([pa, pb]), ref.gcd([pa, pb])
        assert g[0] >= 0 and g == (abs(h[0]), h[1]) == (math.gcd(a, b), 0), (a, b)
        if b:
            assert ring.exact_div(pa, pb) == ref.exact_div(pa, pb), (a, b)
        else:
            with pytest.raises(ZeroDivisionError):
                ring.exact_div(pa, pb)


def test_gcd_divides_and_maximal():
    rng = random.Random(9)
    for d in (-1, -3, -7, -11, -2):
        field = make_field(d)
        for _ in range(50):
            g0 = field.element(rng.randint(-4, 4), rng.randint(-4, 4))
            if g0.is_zero:
                continue
            xs = [
                g0 * field.element(rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(3)
            ]
            if all(x.is_zero for x in xs):
                continue
            g = gcd_elems(xs)
            for x in xs:
                assert divides(g, x)
            assert divides(g0, g)


def test_elem_sqrt():
    assert elem_sqrt(Q.element(Fraction(9, 4))) == Q.element(Fraction(3, 2))
    assert elem_sqrt(Q.element(2)) is None
    s = elem_sqrt(Q14.element(14))
    assert s is not None and s * s == Q14.element(14)
    x = Q6.element(2, 3)
    s = elem_sqrt(x * x)
    assert s is not None and s * s == x * x
    assert elem_sqrt(Q6.element(0, 1)) is None


def test_surd_comparisons():
    a = Surd(1, 1, 2)  # 1 + sqrt(2)
    b = Surd(Fraction(5, 2))
    assert a < b
    assert Surd(0, 1, 2) > Surd(Fraction(7, 5))
    assert Surd(2, -1, 2) > 0
    assert Surd(1, -1, 2) < Surd(1, 0, 2)
    assert Surd(3) == 3


def test_parse_and_format_roundtrip():
    cases = [
        (Q6, "643+723s"),
        (Q6, "-7-1s"),
        (Q7, "1/2+3/2s"),
        (Q, "-13"),
        (Q14, "s"),
    ]
    for field, text in cases:
        x = parse_element(field, text)
        assert parse_element(field, format_element(x)) == x
    # omega symbol
    assert parse_element(Q7, "w") == Q7.omega()
    assert parse_element(Q7, "1+2w") == Q7.element(1, 2)


def test_parse_rejects():
    from conic_nf.errors import ParseError

    with pytest.raises(ParseError):
        parse_element(Q, "1+2s")
    with pytest.raises(ParseError):
        parse_element(Q6, "")
    with pytest.raises(ParseError):
        parse_element(Q6, "3 4")


# The parser before it summed in integers: three Fraction parts, the s part
# mapped through s-coordinates and the w part added as a second element.
_REF_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*\*?\s*(?P<sym1>[sw])?
          | (?P<sym2>[sw])
        )\s*""",
    re.VERBOSE,
)


def _ref_from_s_coords(field, p, q):
    if field.is_rational or field.omega_kind == "sqrt_d":
        return FieldElement(field, p, q)
    return FieldElement(field, p - q, 2 * q)


def _ref_parse_element(field, text):
    text = text.strip()
    if not text:
        raise ParseError("empty element")
    pos = 0
    rat, s_part, w_part = Fraction(0), Fraction(0), Fraction(0)
    first = True
    while pos < len(text):
        m = _REF_TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse element {text!r} at offset {pos}")
        sign = m.group("sign")
        if not first and sign == "":
            raise ParseError(f"missing +/- between terms in {text!r}")
        if m.group("sym2"):
            coef, sym = Fraction(1), m.group("sym2")
        else:
            try:
                coef = Fraction(m.group("coef"))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in element {text!r}") from None
            sym = m.group("sym1")
        coef *= -1 if sign == "-" else 1
        if sym is None:
            rat += coef
        elif sym == "s":
            s_part += coef
        else:
            w_part += coef
        pos = m.end()
        first = False
    if (s_part != 0 or w_part != 0) and field.is_rational:
        raise ParseError("symbols s/w are not valid over Q")
    if field.is_rational:
        return field.element(rat)
    return _ref_from_s_coords(field, rat, s_part) + field.element(0, w_part)


def _random_element_text(rng):
    """A term list in the element grammar, often broken by an edit."""
    terms = []
    for i in range(rng.randint(1, 5)):
        sign = rng.choice(["+", "-", " - ", "+ "]) if i or rng.random() < 0.5 else ""
        num = str(rng.choice([0, 1, 2, 7, 12, 105, rng.randrange(10**rng.randint(1, 25))]))
        if rng.random() < 0.1:
            num = "0" + num
        coef = num
        if rng.random() < 0.4:
            coef += "/" + str(rng.choice([0, 1, 2, 3, 4, 6, rng.randrange(1, 10**rng.randint(1, 12))]))
        sym = rng.choice(["", "", "s", "w", "s", "w"])
        if sym and rng.random() < 0.3:
            term = sym
        else:
            term = coef + rng.choice(["", "", "*", " * ", " "]) + sym if sym else coef
        terms.append(sign + term)
    text = "".join(terms)
    edit = rng.random()
    if edit < 0.08 and text:
        cut = rng.randrange(len(text))
        text = text[:cut] + text[cut + 1 :]
    elif edit < 0.16:
        cut = rng.randrange(len(text) + 1)
        junk = rng.choice(["x", "/", "**", "++", "+-", " ", "5 ", ".", "s", "w", "1/0", "\t"])
        text = text[:cut] + junk + text[cut:]
    elif edit < 0.18:
        text = rng.choice(["", "  ", "+", "-", "s w", "3 4", "/2", "2/", "ws"])
    return rng.choice(["", " "]) + text + rng.choice(["", " "])


def test_parse_element_matches_the_fraction_reference():
    fields = [Q, Q7, Q6, make_field(5), make_field(2), make_field(-3), make_field(13)]
    rng = random.Random(20)
    outcomes = {"element": 0, "error": 0}
    for _ in range(100_000):
        field, text = rng.choice(fields), _random_element_text(rng)
        try:
            want = _ref_parse_element(field, text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_element(field, text)
            assert str(got.value) == str(exc), text
            outcomes["error"] += 1
        else:
            got = parse_element(field, text)
            assert (got.num, got.den) == (want.num, want.den), text
            outcomes["element"] += 1
    assert min(outcomes.values()) > 20_000
    # The Q rule reads the s and w parts apart.
    assert parse_element(Q, "s-s") == 0
    with pytest.raises(ParseError, match="not valid over Q"):
        parse_element(Q, "w-s")


def test_parse_element_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("parse_element built a Fraction")

    monkeypatch.setattr(conic_nf.fields, "Fraction", no_fraction)
    assert parse_element(Q7, "1/2 + 3/4s - 5/6w").num == (-3, 8)
    assert parse_element(Q, "-13/4+1/6").den == 12
    assert not hasattr(FieldElement, "from_s_coords")
    assert not hasattr(type(Q), "degree")


def test_normalize_associate_deterministic():
    x = QI.element(0, -3)
    y = normalize_associate(x)
    assert y in [x * u for u in QI.units()]
    assert y == normalize_associate(y * QI.omega())

    # Brute force: the unit multiple with the least (sgn u, sgn v, u, v) over
    # a quadratic field, the positive one over Q.
    def sgn(t):
        return (t > 0) - (t < 0)

    rng = random.Random(13)
    for field in (Q, QI, make_field(-3), Q7, Q14):
        ring = integer_ring(field)
        for _ in range(40):
            den = rng.choice((1, 1, 2, 3, 12))
            x = field.element(
                Fraction(rng.randint(-9, 9), den),
                0 if field.is_rational else Fraction(rng.randint(-9, 9), den),
            )
            if x.is_zero:
                assert normalize_associate(x) == x
                continue
            if field.is_rational:
                want = x if x.u > 0 else -x
            else:
                want = min(
                    (x * e for e in field.units()),
                    key=lambda y: (sgn(y.u), sgn(y.v), y.u, y.v),
                )
            assert normalize_associate(x) == want
            if x.is_integral:
                # The integer kernel normalises gcds by the same rule.
                assert ring.element(ring.normalize(ring.pair(x))) == want


def test_field_element_hash_agrees_with_equality():
    for field in (Q, QI, Q7):
        three = field.element(3)
        assert three == 3 and hash(three) == hash(3)
        assert 3 in {three} and three in {3}
        half = field.element(Fraction(-1, 2))
        assert half == Fraction(-1, 2) and hash(half) == hash(Fraction(-1, 2))
        assert Fraction(-1, 2) in {half}
    x = QI.element(Fraction(1, 3), 2)
    assert x == QI.element(Fraction(2, 6), 2) and hash(x) == hash(QI.element(Fraction(2, 6), 2))
    assert len({x, Q7.element(Fraction(1, 3), 2)}) == 2


# Q and both kinds of omega over real and imaginary fields.
_PROPERTY_FIELDS = [make_field(d) for d in (None, -1, -6, -3, -7, 2, 3, 5, 13)]
_coordinate = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def _field_and_elements(draw):
    field = draw(st.sampled_from(_PROPERTY_FIELDS))
    elems = []
    for _ in range(2):
        u = draw(_coordinate)
        v = Fraction(0) if field.is_rational else draw(_coordinate)
        elems.append((u, v))
    return field, elems


def _assert_lowest_terms(x):
    (U, V), den = x.num, x.den
    assert den > 0 and math.gcd(U, V, den) == 1
    assert x.u == Fraction(U, den) and x.v == Fraction(V, den)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_field_and_elements(), st.integers(-3, 3))
def test_field_element_arithmetic_matches_reference(drawn, k):
    field, ((u1, v1), (u2, v2)) = drawn
    rd = _ref_d(field)
    x, y = field.element(u1, v1), field.element(u2, v2)
    rx, ry = _ref(field, u1, v1), _ref(field, u2, v2)
    results = {
        "+": (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
        "-": (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
        "*": (x * y, _ref_mul(rd, rx, ry)),
        "conj": (x.conj(), _ref_conj(rx)),
    }
    if not y.is_zero:
        results["/"] = (x / y, _ref_div(rd, rx, ry))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if k >= 0 or not x.is_zero:
        results["**"] = (x**k, _ref_pow(rd, rx, k))
    for op, (got, want) in results.items():
        _assert_lowest_terms(got)
        assert _ref_of(got) == want, op
    assert x.norm() == _ref_norm(rd, rx)
    assert x.trace() == 2 * rx[0]
    _assert_lowest_terms(x)

    # u and v survive the text grammar both ways.
    assert parse_element(field, format_element(x)) == x
    if not field.is_rational:
        text = f"{u1}{'+' if v1 >= 0 else '-'}{abs(v1)}w"
        parsed = parse_element(field, text)
        assert (parsed.u, parsed.v) == (u1, v1)

    # A rational element equals, and hashes like, its Fraction and int.
    r = field.element(u1)
    assert r == u1 and hash(r) == hash(u1)
    assert r != u1 + 1
    if u1.denominator == 1:
        assert r == int(u1) and hash(r) == hash(int(u1))
    assert (x == u1) == (v1 == 0)


# -- square roots and the size test on the kernel, against s-coordinates ------


def _ref_rational_sqrt(r):
    """The nonnegative rational square root of r, or None."""
    if r < 0:
        return None
    n, d = math.isqrt(r.numerator), math.isqrt(r.denominator)
    return Fraction(n, d) if (n * n, d * d) == (r.numerator, r.denominator) else None


def _ref_sqrt(d, x):
    """The s-coordinates (a, b) of the root of x = (p, q) with a > 0, or a = 0
    and b > 0 (tr > 0, or tr = 0 and v > 0); None if x is not a square."""
    p, q = x
    if q == 0:
        a = _ref_rational_sqrt(p)
        if a is not None:
            return a, Fraction(0)
        b = _ref_rational_sqrt(p / d) if d else None
        return None if b is None else (Fraction(0), b)
    # (a + b*sqrt(d))^2 = p + q*sqrt(d): a^2 + d*b^2 = p and 2ab = q, so a^2
    # is a root of 4T^2 - 4pT + d*q^2.
    r = _ref_rational_sqrt(p * p - d * q * q)
    if r is None:
        return None
    for a2 in ((p + r) / 2, (p - r) / 2):
        a = _ref_rational_sqrt(a2)
        if a:
            return a, q / (2 * a)
    return None


@pytest.mark.parametrize("d", [None, -1, -3, -6, -7, 2, 5, 13, 14, 17])
def test_sqrt_matches_s_coordinate_reference(d):
    # The kernel's closed-form root and elem_sqrt agree with the root found
    # from s-coordinates on Fractions, root choice included, on squares,
    # multiples of sqrt(d)^2 (roots of trace 0), negated squares, random
    # elements and non-integral inputs.
    field = make_field(d)
    ring = integer_ring(field)
    rd = _ref_d(field)
    rng = random.Random(37)

    def draw(den, rational=False):
        u = Fraction(rng.randint(-40, 40), den)
        v = 0 if field.is_rational or rational else Fraction(rng.randint(-40, 40), den)
        return field.element(u, v)

    tallies = {"square": 0, "trace_zero": 0, "none": 0, "fractional": 0}
    for i in range(700):
        den = 1 if i % 3 else rng.randint(2, 12)
        kind = i % 5
        y = draw(den, rational=kind == 1)
        if kind == 0:
            x = y * y
        elif kind == 1:
            x = y * y * (rd or 1)
        elif kind == 2:
            x = -(y * y)
        elif kind == 3:
            x = y
        else:
            x = y * y + draw(1)
        ref = _ref_sqrt(rd, _ref_of(x))
        got = elem_sqrt(x)
        assert (None if got is None else _ref_of(got)) == ref
        if x.is_integral:
            root = ring.sqrt(ring.pair(x))
            assert (None if root is None else _ref_of(ring.element(root))) == ref
        else:
            tallies["fractional"] += 1
        if ref is None:
            tallies["none"] += 1
            continue
        tallies["square"] += 1
        assert got * got == x
        assert ref[0] > 0 or (ref[0] == 0 and ref[1] > 0) or x.is_zero
        tallies["trace_zero"] += ref[0] == 0 and not x.is_zero
    assert min(tallies["square"], tallies["none"], tallies["fractional"]) >= 150
    assert field.is_rational or tallies["trace_zero"] >= 50


def _ref_size_lt_size_minus_one(d, w, b):
    """|w| < |b| - 1 from s-coordinates (p, q), float-free."""
    (pw, qw), (pb, qb) = w, b
    if d <= 0:
        # |x|^2 = p^2 - d*q^2, and sqrt(a) + 1 < sqrt(c) iff
        # 2*sqrt(a) < c - a - 1.
        a, c = pw * pw - d * qw * qw, pb * pb - d * qb * qb
        return c - a - 1 > 0 and 4 * a < (c - a - 1) ** 2
    # |x| = |p| + |q|*sqrt(d): the sign of r + s*sqrt(d).
    r, s = abs(pb) - abs(pw) - 1, abs(qb) - abs(qw)
    if r >= 0 and s >= 0:
        return r > 0 or s > 0
    if r <= 0 and s <= 0:
        return False
    return r * r > s * s * d if r > 0 else s * s * d > r * r


@pytest.mark.parametrize("d", [None, -1, -3, -6, -7, 2, 5, 14, 17])
def test_size_test_matches_reference(d):
    # size_lt_size_minus_one agrees with a float-free s-coordinate
    # reference, on the boundary |w| = |b| - 1 too.
    field = make_field(d)
    rd = _ref_d(field)
    rng = random.Random(41)

    def draw(k):
        return field.element(rng.randint(-k, k), 0 if field.is_rational else rng.randint(-k, k))

    outcomes = set()
    for _ in range(600):
        b = draw(30)
        w = rng.choice([b - 1, b + 1, 1 - b, b.conj() - 1, b - draw(3), draw(30), draw(3)])
        ref = _ref_size_lt_size_minus_one(rd, _ref_of(w), _ref_of(b))
        outcomes.add(ref)
        assert size_lt_size_minus_one(w, b) == ref
        ew, eb = rng.randint(1, 6), rng.randint(1, 6)
        ref = _ref_size_lt_size_minus_one(rd, _ref_of(w / ew), _ref_of(b / eb))
        assert size_lt_size_minus_one(w / ew, b / eb) == ref
    assert outcomes == {True, False}


# -- the one exact surd against a decimal oracle ------------------------------


def _surd_parts(x):
    """(r, s, rad) of an int, Fraction, IntSurd or Surd, as Fractions."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0), 0
    return Fraction(x.r), Fraction(x.s), x.rad


def _rational_or_parts(x):
    """x as a Fraction when it is rational (s = 0 or a square rad), else its
    parts r, s over the non-square rad: equal values have equal results."""
    r, s, rad = _surd_parts(x)
    root = math.isqrt(rad)
    return r + s * root if not s or root * root == rad else (r, s, rad)


def _decimal(x):
    r, s, rad = _surd_parts(x)
    with decimal.localcontext(decimal.Context(prec=60)):
        D = decimal.Decimal
        return D(r.numerator) / D(r.denominator) + D(s.numerator) / D(s.denominator) * D(rad).sqrt()


def _surd_oracle_sign(x, y):
    """The sign of x - y, without surd_sign: equal by exact parts, otherwise
    by a decimal difference far above the 60-digit precision."""
    if _rational_or_parts(x) == _rational_or_parts(y):
        return 0
    with decimal.localcontext(decimal.Context(prec=60)):
        diff = _decimal(x) - _decimal(y)
    assert abs(diff) > decimal.Decimal(10) ** -40, (x, y)
    return 1 if diff > 0 else -1


def _random_part(rng, fraction):
    n = rng.randint(-40, 40)
    return Fraction(n, rng.randint(1, 6)) if fraction else n


def _random_surd_value(rng, rads):
    """An int, a Fraction, a Surd or an IntSurd, the surds with int or
    Fraction parts."""
    kind, fraction = rng.randrange(4), rng.random() < 0.5
    if kind < 2:
        return _random_part(rng, kind == 1)
    rad = rng.choice(rads)
    r, s = _random_part(rng, fraction), (_random_part(rng, fraction) if rad else 0)
    return Surd(r, s, rad) if kind == 2 else IntSurd(r, s, rad)


def _equal_value(rng, x):
    """Another representation of the value x: another type, or its rational
    value when rad is a square."""
    r, s, rad = _surd_parts(x)
    value = _rational_or_parts(x)
    if isinstance(value, Fraction):
        return rng.choice([value, Surd(value), IntSurd(value, 0, rng.choice([2, 3, 5]))])
    return rng.choice([Surd(r, s, rad), IntSurd(r, s, rad)])


def _near_value(rng, x):
    """x moved by a small rational, or r set near -s*sqrt(rad), where
    surd_sign compares r^2 with s^2*rad."""
    r, s, rad = _surd_parts(x)
    if s and rng.random() < 0.5:
        r = -s * Fraction(math.isqrt(int(s * s * rad * 10**6)), 1000) / abs(s)
        r += Fraction(rng.randint(-2, 2), 1000)
    else:
        r += Fraction(rng.choice([-1, 1]), rng.randint(1, 10**6))
    return Surd(r, s, rad) if rng.random() < 0.5 else IntSurd(r, s, rad)


def test_one_surd_matches_a_decimal_oracle():
    # Random pairs of IntSurds, Surds, ints and Fractions, with int and
    # Fraction parts and rad 0, square and not; a fifth of them equal in
    # value, a fifth near each other.
    rng = random.Random("one surd")
    rads = [0, 1, 4, 9, 2, 3, 5, 6, 8, 12]
    compared = raised = 0
    while compared < 5000:
        x = _random_surd_value(rng, rads)
        if isinstance(x, (int, Fraction)) and rng.random() < 0.8:
            x = Surd(x, rng.randint(-5, 5), rng.choice(rads[1:]))
        pick = rng.random()
        if pick < 0.2:
            y = _equal_value(rng, x)
        elif pick < 0.4 and not isinstance(x, (int, Fraction)):
            y = _near_value(rng, x)
        else:
            y = _random_surd_value(rng, rads)
        if rng.random() < 0.5:
            x, y = y, x
        (_, sx, radx), (_, sy, rady) = _surd_parts(x), _surd_parts(y)
        if sx and sy and radx != rady:
            raised += 1
            with pytest.raises(ValueError):
                x < y
            continue
        compared += 1
        _assert_order_matches_oracle(x, y)
    assert raised >= 100
    # Differences (r, s) with s = 0, r = 0 and r = s = 0, against a rational
    # and against a surd of the same radical.
    parts = [(3, 0), (-3, 0), (Fraction(-1, 3), 0), (0, 2), (0, -2), (0, Fraction(1, 5)), (0, 0)]
    for rad in (0, 1, 4, 2, 3, 8):
        for r, s in parts:
            if rad == 0 and s:
                continue
            b = 7 if rad else 0
            _assert_order_matches_oracle(IntSurd(r, s, rad), 0)
            _assert_order_matches_oracle(Surd(r + 5, s + b, rad), IntSurd(5, b, rad))


def _assert_order_matches_oracle(x, y):
    sign = _surd_oracle_sign(x, y)
    assert (x < y, x <= y, x == y, x != y, x > y, x >= y) == (
        sign < 0, sign <= 0, sign == 0, sign != 0, sign > 0, sign >= 0
    ), (x, y, sign)
    if sign == 0:
        assert hash(x) == hash(y), (x, y)
    for z in (x, y):
        value = _rational_or_parts(z)
        if isinstance(value, Fraction):
            assert math.ceil(z) == math.ceil(value), z
        else:
            assert math.ceil(z) == int(_decimal(z).to_integral_value(decimal.ROUND_CEILING)), z
        assert math.isclose(float(z), float(_decimal(z)), rel_tol=1e-12, abs_tol=1e-12)


def test_surd_constructor_checks():
    with pytest.raises(ValueError):
        Surd(1, 1, -1)
    with pytest.raises(ValueError):
        Surd(1, 1, 0)
    x = Surd(1, 2, 3)
    assert (type(x.r), type(x.s), type(x.rad)) == (Fraction, Fraction, int)
    # Surd is a constructor: every method of the surd is IntSurd's.
    assert {name for name, value in vars(Surd).items() if callable(value)} == {"__init__"}
    assert Surd.__slots__ == ()


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 14, 17, 21])
def test_kernel_size_keys_ceil_as_before(d):
    # The kernel's keys over a real field are IntSurds of ints with a
    # non-square rad, whose ceiling was r + isqrt(s^2*rad) + 1 for s > 0
    # and r - isqrt(s^2*rad) otherwise.
    ring = integer_ring(make_field(d))
    rng = random.Random(d)
    for _ in range(500):
        big = 10 ** rng.randint(1, 30)
        key = ring.size_sq((rng.randint(-big, big), rng.randint(-big, big)))
        root = math.isqrt(key.s * key.s * key.rad)
        assert math.ceil(key) == key.r + (root + 1 if key.s > 0 else -root)


def test_scalar_divmod_matches_rounding_the_kernel_product():
    # divmod forms a*conj(b) and N(b) in scalars; (q, r) must be those of
    # rounding the kernel's own product, exact ties included: a/b = x + c/2
    # for c in {1, w, 1 + w, 1 - w}, where both coordinates tie at t = 0 and
    # two v-candidates tie at t = 1.
    rng = random.Random(35)
    for d in (None, -1, -2, -3, -7, -11):
        ring = integer_ring(make_field(d))
        v = (lambda r: 0) if d is None else (lambda r: rng.randint(-r, r))
        pairs = []
        for _ in range(1500):
            pairs.append(((rng.randint(-10**6, 10**6), v(10**6)), (rng.randint(-999, 999), v(999))))
        for _ in range(300):
            h, x = (rng.randint(-99, 99), v(99)), (rng.randint(-99, 99), v(99))
            for c in ((1, 0), (0, 1), (1, 1), (1, -1)):
                if d is None and c[1]:
                    continue
                pairs.append((ring.mul(h, ring.add(ring.add(x, x), c)), ring.add(h, h)))
        for a, b in pairs:
            if b == (0, 0):
                continue
            q = ring.round(ring.mul(a, ring.conj(b)), ring.norm(b))
            assert ring.divmod(a, b) == (q, ring.sub(a, ring.mul(q, b))), (d, a, b)
    for d in (2, 5, 14):
        with pytest.raises(ValueError):
            integer_ring(make_field(d)).divmod((7, 3), (2, 1))

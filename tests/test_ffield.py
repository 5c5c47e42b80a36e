import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction

import pytest

from conftest import PEAK_KIB, poly_powmod, reference_modulus
import lcft
from lcft.ffield import SIZE_CAP, SUMS_MAX_SIZE, FieldTower, _x_power, is_prime

# every tower shape up to 2^10 elements
SMALL_SHAPES = [(p, t, f) for p in range(2, 1025) if is_prime(p)
                for t in range(1, 11) for f in range(1, 11)
                if p ** (t * f) <= 2**10]


@pytest.fixture(scope="module")
def f5():
    return FieldTower(5, 1, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldTower(3, 1, 2)


@pytest.fixture(scope="module")
def f64():
    return FieldTower(2, 2, 3)


@pytest.fixture(scope="module")
def cap_tower():
    return FieldTower(2, 10, 2)           # p^(t*f) = 2^20, the size cap


@pytest.fixture(scope="module")
def prime_cap_tower():
    return FieldTower(1048573, 1, 1)      # the largest prime under the cap


@pytest.fixture(scope="module")
def cap3_tower():
    return FieldTower(3, 12, 1)           # 3^12 = 531441, the odd-p digit walk


def test_construction_validation():
    with pytest.raises(ValueError):
        FieldTower(4, 1, 1)           # not prime
    with pytest.raises(ValueError):
        FieldTower(2, 0, 3)
    with pytest.raises(ValueError):
        FieldTower(2, 3, 8)           # 2^24 over the cap


def test_construction_refuses_a_non_integer_shape():
    # is_prime(2.0) holds, so a float p once passed the shape check and
    # failed inside the modulus search
    for shape in ((2, 1, 1), (5, 1, 1)):
        for slot in range(3):
            for cast in (float, Fraction):
                args = list(shape)
                args[slot] = cast(args[slot])
                with pytest.raises(TypeError, match="as an integer"):
                    FieldTower(*args)


def test_modulus_is_deterministic(f9):
    again = FieldTower(3, 1, 2)
    assert again.modulus == f9.modulus
    assert again.generator().coeffs == f9.generator().coeffs


def test_modulus_matches_reference_search(monkeypatch):
    # the tables are valid on any modulus on which x is primitive, so pin
    # the one the seeded search picks: every candidate of its stream gets
    # the reference's verdict. The cap towers' moduli are literals; the
    # tables are not built.
    monkeypatch.setattr(FieldTower, "_build_tables", lambda self: None)
    for shape in SMALL_SHAPES:
        assert FieldTower(*shape).modulus == reference_modulus(*shape), shape
    cap_moduli = {
        (2, 10, 2): (1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1,
                     0, 1, 1),
        (2, 20, 1): (1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1,
                     1, 0, 1),
        (3, 12, 1): (2, 0, 2, 0, 1, 2, 1, 2, 0, 1, 2, 0, 1),
        (1048573, 1, 1): (792439, 1),
    }
    for shape, modulus in cap_moduli.items():
        assert FieldTower(*shape).modulus == modulus, shape


def test_arithmetic_identities(f9):
    g = f9.generator()
    one = f9.one()
    assert one * g == g
    assert g ** (f9.order) == one           # Lagrange
    assert g * g ** -1 == one
    # the exponent is an index: no float or Fraction log is ever stored
    for k in (0.5, 2.0, Fraction(1, 2)):
        for x in (g, f9.zero()):
            with pytest.raises(TypeError, match="as an integer"):
                x ** k
        with pytest.raises(TypeError, match="as an integer"):
            f9.generator_power(k)


def test_equal_implies_equal_hash_against_ints(f5):
    # an element that compared equal to an int key would have to share its
    # hash, or dict and set lookups would miss it
    for x in [f5.zero()] + [f5.generator_power(k) for k in range(f5.order)]:
        for c in range(5):
            if x == c:
                assert hash(x) == hash(c), (x, c)
    assert {1: "x"}.get(f5.one()) is None
    assert f5.one() != 1


def test_inverse_in_f5_against_exhaustive_search(f5):
    # independent oracle: scan all candidates for 2*b = 1 mod 5
    expected = [b for b in range(1, 5) if (2 * b) % 5 == 1]
    assert expected == [3]
    assert f5.from_int(2) ** -1 == f5.from_int(3)


def test_division_by_zero(f5):
    with pytest.raises(ZeroDivisionError):
        f5.zero() ** -1
    with pytest.raises(ZeroDivisionError):
        f5.one() * f5.zero() ** -1


def test_tower_mismatch(f5, f9):
    with pytest.raises(ValueError):
        f5.one() * f9.one()


def test_frobenius_examples(f9):
    g = f9.generator()
    assert g.frobenius(1) == g**3        # direct exponentiation
    assert g.frobenius(f9.f) == g        # full-field Frobenius order
    two = f9.from_int(2)
    assert two.frobenius(5) == two       # prime subfield is fixed


def test_frobenius_is_field_automorphism(f9, rng):
    els = [f9.generator_power(k) for k in range(f9.order)] + [f9.zero()]
    for _ in range(200):
        a, b = rng.choice(els), rng.choice(els)
        assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
        assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)


def test_nth_roots_in_f5_against_exhaustive_squares(f5):
    squares = {}
    for a in range(1, 5):
        squares.setdefault((a * a) % 5, set()).add(a)
    assert squares == {1: {1, 4}, 4: {2, 3}}
    got1 = {c.coeffs[0] for c in f5.from_int(1).nth_roots(2)}
    got4 = {c.coeffs[0] for c in f5.from_int(4).nth_roots(2)}
    assert got1 == {1, 4}
    assert got4 == {2, 3}
    assert f5.from_int(2).nth_roots(2) == ()
    assert f5.from_int(3).nth_roots(2) == ()


def test_nth_roots_counts_and_verification(f64, rng):
    for _ in range(100):
        w = f64.generator_power(rng.randrange(f64.order))
        for e in (1, 3, 7, 9, 21):
            roots = w.nth_roots(e)
            assert len(roots) in (0, math.gcd(e, f64.order))
            for c in roots:
                assert c**e == w
    with pytest.raises(ValueError):
        f64.one().nth_roots(2)           # shares a factor with p
    with pytest.raises(ZeroDivisionError):
        f64.zero().nth_roots(3)


def test_norm_examples(f9, f5):
    g = f9.generator()
    assert g.norm_to_subfield() == g**4       # exponent (9-1)/(3-1)
    assert g.norm_to_subfield().in_subfield()
    assert f9.one().norm_to_subfield() == f9.one()
    # f = 1 means the norm is the identity map
    for a in [f5.generator_power(k) for k in range(f5.order)]:
        assert a.norm_to_subfield() == a


def test_norm_is_multiplicative_and_lands_in_subfield(f64, rng):
    for _ in range(200):
        a = f64.generator_power(rng.randrange(f64.order))
        b = f64.generator_power(rng.randrange(f64.order))
        assert (a * b).norm_to_subfield() == \
            a.norm_to_subfield() * b.norm_to_subfield()
        assert a.norm_to_subfield().in_subfield()


def test_subfield_membership(f64):
    assert f64.zero().in_subfield()
    assert f64.one().in_subfield()
    assert not f64.generator().in_subfield()
    assert f64.subfield_generator().in_subfield()
    # the subfield has exactly q elements (count the fixed points)
    fixed = sum(1 for k in range(f64.order)
                if f64.generator_power(k).in_subfield())
    assert fixed + 1 == f64.q


def test_subfield_log(f64):
    gk = f64.subfield_generator()
    for j in range(f64.subfield_units):
        assert (gk**j).subfield_log() == j
    with pytest.raises(ValueError):
        f64.generator().subfield_log()


def test_parse_and_print_round_trip(f64):
    for text in ("g^5", "1", "0", "g"):
        el = f64.parse(text)
        assert f64.parse(str(el)) == el
    el = f64.parse("1,0,1,1,0,0")
    assert el.coeffs == (1, 0, 1, 1, 0, 0)
    assert f64.parse(",".join(map(str, el.coeffs))) == el
    assert "," in f64.modulus_str()


def test_parse_takes_only_ascii_integers(f9):
    # int() would read each of these: "1_0" as 10, "\u0663" (the
    # Arabic-Indic three) as 3
    for text in ("g^1_0", "\u0663", "1_3", "1,\u0660", "g^\u0661"):
        with pytest.raises(ValueError, match="is none of g"):
            f9.parse(text)
    # a sign and whitespace around the digits stay allowed, as in int()
    assert f9.parse("g^-1") == f9.generator() ** -1
    assert f9.parse(" 1, +2 ") == f9.element([1, 2])


def test_str_of_prime_constants(f5, f9):
    assert str(f5.from_int(3)) == "3"
    assert str(f9.from_int(2)) == "2"
    assert str(f9.zero()) == "0"
    assert str(f9.generator()) == "g"


def _pack(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _reference_tables(tower):
    """exp, log and Zech tables as array('i'), stepped digit by digit for
    every p: independent of the p = 2 lane walk and of the gather, and
    12 bytes an element, so 12 MB at the size cap."""
    p, n, size, order = tower.p, tower.degree, tower.size, tower.order
    exp = array("i", [0]) * order
    log = array("i", [-1]) * size
    poly = [1] + [0] * (n - 1)
    red = [(-c) % p for c in tower.modulus[:-1]]
    for k in range(order):
        packed = _pack(poly, p)
        exp[k] = packed
        log[packed] = k
        carry = poly[-1]
        for i in range(n - 1, 0, -1):
            poly[i] = (poly[i - 1] + carry * red[i]) % p
        poly[0] = (carry * red[0]) % p
    zech = array("i", [-1]) * order
    for k, v in enumerate(exp):
        bumped = v - (v % p) + (v % p + 1) % p
        if bumped:
            zech[k] = log[bumped]
    return exp, log, zech


def _check_views(tower, exp, logs):
    """The coefficient view of g^k against exp[k], for k in ``logs`` and
    for zero, and the round trips through ``element`` and ``parse``."""
    elements = [tower.generator_power(k) for k in logs] + [tower.zero()]
    for x in elements:
        coeffs = x.coeffs
        assert len(coeffs) == tower.degree, (tower, x)
        assert _pack(coeffs, tower.p) == (0 if x.log is None
                                          else exp[x.log]), (tower, x)
        assert tower.element(coeffs) == x, (tower, x)
        assert tower.parse(str(x)) == x, (tower, x)


def _sample_logs(tower, count):
    rng = random.Random(f"views-{tower.p}-{tower.t}-{tower.f}")
    return rng.sample(range(tower.order), min(count, tower.order))


def _check_element_logs(tower, log):
    """``element`` of the digits of each packed value v against the
    reference log[v] (-1 at zero): every v up to 4,096 values, a sample
    of 4,096 above."""
    p, n = tower.p, tower.degree
    values = range(tower.size)
    if tower.size > 4096:
        rng = random.Random(f"element-{p}-{tower.t}-{tower.f}")
        values = rng.sample(values, 4096)
    for v in values:
        x = tower.element([v // p**i % p for i in range(n)])
        assert (-1 if x.log is None else x.log) == log[v], (tower, v)


def test_tables_match_reference_builder():
    # element() of every packed value pins the reference log, and so the
    # exponential table too: log is its inverse
    assert len(SMALL_SHAPES) == 236
    for p, t, f in SMALL_SHAPES:
        tower = FieldTower(p, t, f)
        exp, log, zech = _reference_tables(tower)
        assert type(tower._zech) is array, (p, t, f)
        assert tower._zech.typecode == "i" and tower._zech == zech, (p, t, f)
        _check_element_logs(tower, log)
        if tower.size <= 2**6:
            _check_views(tower, exp, range(tower.order))
        else:
            _check_views(tower, exp, _sample_logs(tower, 20))


def test_addition_table_matches_the_zech_table():
    # on every shape of at most SUMS_MAX_SIZE elements, entry c of row a
    # is log(g^a + g^c) = a + zech[(c - a) mod order], with order for
    # zero, over the whole width 3 * order; the extra row order is the
    # zero accumulator, whose entry c is g^c alone
    shapes = [s for s in SMALL_SHAPES if s[0] ** (s[1] * s[2]) <= 2**8]
    assert SUMS_MAX_SIZE == 2**8 and len(shapes) == 92
    for shape in shapes:
        tower = FieldTower(*shape)
        # empty until a kernel first runs, not built with the tower
        assert tower._sums == (), shape
        order, zech = tower.order, tower._zech
        sums = tower._addition_table()
        assert tower._sums is sums, shape
        assert type(sums) is list and len(sums) == order + 1, shape
        for a, row in enumerate(sums[:order]):
            want = []
            for c in range(order):
                z = zech[(c - a) % order]
                want.append(order if z < 0 else (a + z) % order)
            assert type(row) is list and row == want * 3, (shape, a)
        assert sums[order] == list(range(order)) * 3, shape


def test_towers_above_the_bound_have_no_addition_table(cap_tower):
    # the two smallest shapes past the bound on each route, and the cap
    for tower in [FieldTower(2, 9, 1), FieldTower(3, 6, 1),
                  FieldTower(257, 1, 1), cap_tower]:
        assert tower.size > SUMS_MAX_SIZE and tower._sums is None, tower


# a tower past SMALL_SHAPES on each route; (65537, 1, 1) is a prime
# field of order 2^16
@pytest.mark.parametrize("shape", [(2, 17, 1), (5, 7, 1), (65537, 1, 1)])
def test_packed_tables_match_reference_builder(shape):
    tower = FieldTower(*shape)
    exp, log, zech = _reference_tables(tower)
    assert type(tower._zech) is array and tower._zech.typecode == "i"
    assert tower._zech == zech
    _check_element_logs(tower, log)
    _check_views(tower, exp, _sample_logs(tower, 200))


# every route: p = 2, odd p with t*f >= 2 and a prime field
@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 3, 2), (3, 2, 2),
                                   (5, 3, 1), (13, 1, 1), (1021, 1, 1)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_log_keeps_the_logs_of_the_prime_field(shape):
    # the tower keeps only log[:p], read by from_int: entry c is a k with
    # g^k = c, checked through the coefficient view, and entry 0 is -1
    tower = FieldTower(*shape)
    p, log = tower.p, tower._log
    assert type(log) is array and len(log) == p and log[0] == -1
    for c in range(1, p):
        assert tower.generator_power(log[c]).coeffs == \
            (c,) + (0,) * (tower.degree - 1), (shape, c)
        assert tower.from_int(c + p).log == log[c]
    # the second route to -1, which _sign_constant reads
    assert tower.minus_one().log == tower.minus_one_log


# how far a new process's peak RSS grows with one tower build, from after
# the import: the import's own growth depends on the Python version (1.9
# MB on 3.11.7, 4.3 MB on 3.13.0), the build's does not
_BUILD_PEAK_PROBE = PEAK_KIB + """
from lcft.ffield import FieldTower
before = peak_kib()
FieldTower({p}, {t}, {f})
print(peak_kib() - before)
"""


# The cap towers keep a 4-byte Zech array, 4 MB at 2^20 and 2.1 MB at
# 3^12. The prime cap also keeps its whole log table, 4 MB more; the
# other two keep log[:p]. The
# p = 2 walk writes the Zech table itself, through a 2 MB pair table
# that lives only during the build; at odd p the exponential table lives
# only during the build, which writes the Zech table over it, and log is
# cut in place. No list or copy of a whole table is made. The build
# grows a new process's peak RSS by 5.9-6.0 MB at (2, 10, 2), 7.9-8.1 MB
# at (1048573, 1, 1) and 4.0-4.1 MB at (3, 12, 1) (three runs each on
# Python 3.11.7, two each on 3.10.13, 3.12.1 and 3.13.0). Each bound
# sits 0.9-1.5 MB above that, less than a second table or a temporary
# copy of one would add: 4 MB at 2^20, 2.1 MB at 3^12, and ~35 MB for a
# list Zech table at 2^20.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("p, t, f, bound_mb", [
    pytest.param(2, 10, 2, 7.5, id="2-10-2"),
    pytest.param(1048573, 1, 1, 9.5, id="1048573-1-1"),
    pytest.param(3, 12, 1, 5, id="3-12-1"),
])
def test_cap_tower_build_peak_memory(p, t, f, bound_mb):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lcft.__file__)))
    probe = subprocess.run(
        [sys.executable, "-c", _BUILD_PEAK_PROBE.format(p=p, t=t, f=f)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    growth_mb = int(probe.stdout) / 1024
    assert growth_mb < bound_mb, f"peak RSS grew by {growth_mb:.1f} MB"


def test_cap_tower_tables(cap_tower):
    t = cap_tower
    assert t.size == SIZE_CAP
    zech = t._zech
    assert len(zech) == t.order and type(zech) is array
    # the Zech table is the only table-size attribute; log keeps the logs
    # of F_2's two constants
    assert [k for k, v in vars(t).items()
            if hasattr(v, "__len__") and len(v) >= t.order] == ["_zech"]
    assert len(t._log) == 2
    logs = random.Random(20261018).sample(range(t.order), 200)
    # x^k mod m by the list-based square and multiply of conftest: a
    # reference apart from the bitmask ladder that the coefficient view
    # runs at p = 2. 1 + g^k flips its constant bit.
    exp = {}
    for k in logs:
        digits = poly_powmod([0, 1], k, t.modulus, 2)
        digits += [0] * (t.degree - len(digits))
        assert t.element(digits) == t.generator_power(k), k
        bumped = t.element([1 - digits[0]] + digits[1:])
        assert zech[k] == (-1 if bumped.log is None else bumped.log), k
        exp[k] = _pack(digits, 2)
    _check_views(t, exp, logs)


@pytest.mark.skipif(not os.environ.get("LCFT_CAP_ROWS"),
                    reason="about 10 s: set LCFT_CAP_ROWS=1 to run")
def test_cap_tower_zech_table_matches_the_digit_walk(cap_tower):
    # the whole Zech table of F_(2^20) against _reference_tables, which
    # steps a digit list and shares no code with the lane walk: three
    # 4 MB arrays beside the tower's own
    exp, log, zech = _reference_tables(cap_tower)
    assert cap_tower._zech == zech


def test_cap_tower_zech_identities(cap_tower):
    # in characteristic 2, 1 + (1 + g^k) = g^k, so the whole Zech table is
    # an involution off k = 0, where 1 + 1 = 0
    zech = cap_tower._zech
    assert zech[0] == -1
    assert all(zech[z] == k for k, z in enumerate(zech) if k)


@pytest.mark.parametrize("name", ["cap_tower", "prime_cap_tower",
                                  "cap3_tower"])
def test_cap_zech_tables_keep_the_field_identities(request, name):
    # identities of a whole Zech table in any characteristic, whatever
    # walk built it: the p-th power is the Frobenius, so
    # 1 + g^(pk) = (1 + g^k)^p (on F_p, where p = 1 mod |l*|, it reads
    # zech[k] = zech[k]); 1 + g^(-k) = g^(-k) * (g^k + 1); and 1 + g^k = 0
    # only at g^k = -1
    t = request.getfixturevalue(name)
    zech, p, m = t._zech, t.p, t.order
    assert len(zech) == m
    assert all(zech[p * k % m] == p * z % m
               for k, z in enumerate(zech) if z >= 0)
    assert all(zech[-k % m] == (z - k) % m
               for k, z in enumerate(zech) if z >= 0)
    assert [k for k, z in enumerate(zech) if z < 0] == [t.minus_one_log]


def test_prime_cap_tower_identities(prime_cap_tower):
    # whole-table identities of F_p at the prime cap, read off the int g
    # with neither the walk nor the gather that built the tables: log is
    # the discrete log to base g, and zech[log v] is the log of v + 1
    t = prime_cap_tower
    p, order, log, zech = t.p, t.order, t._log, t._zech
    assert (p, t.degree) == (1048573, 1) and type(zech) is array
    assert len(log) == t.size and len(zech) == order
    (g,) = t.generator().coeffs
    assert t.modulus == (p - g, 1)        # x + c0 with g = -c0
    assert log[0] == -1 and log[1] == 0 and log[g] == 1
    assert all(log[v * g % p] == (log[v] + 1) % order for v in range(1, p))
    assert all(zech[log[v]] == log[(v + 1) % p] for v in range(1, p))
    assert zech[log[p - 1]] == -1 and log[p - 1] == t.minus_one_log


def test_x_power_on_prime_fields_matches_the_reference():
    # the prime-field closed form pow(-c0, k, p) against conftest's list
    # square and multiply, on primes just under the cap, the cap's own
    # modulus among them, with 20-bit exponents
    rng = random.Random(20261020)
    primes = [p for p in range(SIZE_CAP - 100, SIZE_CAP) if is_prime(p)]
    assert 1048573 in primes and len(primes) >= 5
    for p in primes:
        moduli = [(792439, 1)] if p == 1048573 else []
        moduli += [(rng.randrange(p), 1) for _ in range(3)]
        for modulus in moduli:
            for k in [0, 1, p - 1] + [rng.getrandbits(20) | 1 << 19
                                      for _ in range(5)]:
                want = _pack(poly_powmod([0, 1], k, modulus, p), p)
                assert _x_power(k, modulus, p) == want, (p, modulus, k)

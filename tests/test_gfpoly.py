"""Polynomial arithmetic over F_p: ring identities and factoring."""

import random

from _oracles import is_squarefree
from ltavg import gfpoly


def _rand_poly(rng, p, max_deg):
    return gfpoly.trim(tuple(rng.randrange(p) for _ in range(max_deg + 1)))


def test_ring_identities():
    rng = random.Random(5)
    for p in (2, 3, 5, 13):
        for _ in range(40):
            f = _rand_poly(rng, p, 5)
            g = _rand_poly(rng, p, 4)
            h = _rand_poly(rng, p, 3)
            lhs = gfpoly.mul(f, gfpoly.add(g, h, p), p)
            rhs = gfpoly.add(gfpoly.mul(f, g, p), gfpoly.mul(f, h, p), p)
            assert lhs == rhs


def test_divmod_invariant():
    rng = random.Random(6)
    for _ in range(60):
        p = rng.choice((3, 5, 11))
        f = _rand_poly(rng, p, 7)
        g = _rand_poly(rng, p, 3)
        if gfpoly.degree(g) < 0:
            continue
        q, r = gfpoly.divmod_(f, g, p)
        assert gfpoly.degree(r) < gfpoly.degree(g)
        assert gfpoly.add(gfpoly.mul(q, g, p), r, p) == f


def test_powmod_matches_repeated_mulmod():
    rng = random.Random(8)
    for _ in range(20):
        p = rng.choice((3, 7))
        m = gfpoly.monic(_rand_poly(rng, p, 4), p)
        if gfpoly.degree(m) < 1:
            continue
        f = _rand_poly(rng, p, 3)
        acc = (1,)
        for e in range(6):
            assert gfpoly.powmod(f, e, m, p) == acc
            acc = gfpoly.mulmod(acc, f, m, p)


def test_roots_of_known_product():
    # (x-1)(x-2)(x-5) mod 11
    f = (-10, 17, -8, 1)
    assert gfpoly.roots(gfpoly.normalize(f, 11), 11) == [1, 2, 5]
    # x^2 + 1 is irreducible mod 7
    assert gfpoly.roots((1, 0, 1), 7) == []


def test_roots_of_degree_one():
    rng = random.Random(12)
    for p in (2, 3, 7, 101, 7919):
        for _ in range(20):
            f = (rng.randrange(-3 * p, 3 * p), rng.randrange(1, p))
            assert gfpoly.roots(f, p) == [x for x in range(p) if (f[0] + f[1] * x) % p == 0], (f, p)
    assert gfpoly.roots((0, 1), 13) == [0]


def test_roots_match_brute_force():
    # random polynomials of degree <= 7, and products of distinct linear
    # factors times a random cofactor, at every p < 70 and a few larger p
    rng = random.Random(13)
    small = [p for p in range(2, 70) if all(p % d for d in range(2, p))]
    for p in small + [97, 389, 1009, 2999]:
        for trial in range(30):
            if trial % 2:
                f = (1,)
                for r in rng.sample(range(p), min(p, rng.randint(1, 5))):
                    f = gfpoly.mul(f, ((-r) % p, 1), p)
                f = gfpoly.mul(f, _rand_poly(rng, p, 7 - gfpoly.degree(f)), p)
            else:
                f = _rand_poly(rng, p, 7)
            if gfpoly.degree(f) < 1:
                continue
            want = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]
            assert gfpoly.roots(f, p) == want, (f, p)


def test_factor_squarefree_known():
    assert sorted(gfpoly.factor_squarefree((1, 0, 1), 5)) == [((2, 1), 1), ((3, 1), 1)]


def test_factor_squarefree_reassembles():
    # the factorizer is only contracted for squarefree input
    rng = random.Random(9)
    done = 0
    while done < 60:
        p = rng.choice((3, 5, 11))
        f = _rand_poly(rng, p, 6)
        if gfpoly.degree(f) < 1 or not is_squarefree(f, p):
            continue
        prod = (1,)
        for g, mult in gfpoly.factor_squarefree(f, p):
            assert mult == 1
            assert g == gfpoly.monic(g, p)
            prod = gfpoly.mul(prod, g, p)
        assert prod == gfpoly.monic(f, p)
        done += 1


def test_x_pow_p_and_distinct_degree():
    # x^p - x mod p is the product of all monic linear polynomials
    for p in (3, 5, 7):
        f = tuple([0, -1 % p] + [0] * (p - 2) + [1])
        ddf = gfpoly.distinct_degree_factor(gfpoly.normalize(f, p), p)
        assert len(ddf) == 1 and ddf[0][0] == 1
        linears = gfpoly.equal_degree_factor(ddf[0][1], 1, p)
        assert sorted(g[0] for g in linears) == list(range(p))


def test_is_squarefree():
    assert not is_squarefree((0, 0, 1), 5)  # x^2
    assert is_squarefree((1, 0, 1), 5)      # (x+2)(x+3)
    assert not is_squarefree((1, 2, 1), 7)  # (x+1)^2


def test_gcd_divides_both():
    rng = random.Random(10)
    for _ in range(40):
        p = rng.choice((3, 5, 13))
        common = _rand_poly(rng, p, 2)
        if gfpoly.degree(common) < 1:
            continue
        f = gfpoly.mul(common, _rand_poly(rng, p, 3), p)
        g = gfpoly.mul(common, _rand_poly(rng, p, 2), p)
        d = gfpoly.gcd(f, g, p)
        assert gfpoly.degree(d) >= gfpoly.degree(common)
        assert gfpoly.mod(f, d, p) == ()
        assert gfpoly.mod(g, d, p) == ()

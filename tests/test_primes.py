"""Sieve and factorization tests, cross-checked against sympy."""

import random

import numpy as np
import sympy

from ltavg import primes


def test_sieve_matches_sympy():
    ours = [int(p) for p in primes.sieve_primes(10_000)]
    assert ours == list(sympy.primerange(2, 10_001))


def test_sieve_edges():
    assert list(primes.sieve_primes(1)) == []
    assert [int(p) for p in primes.sieve_primes(2)] == [2]
    assert [int(p) for p in primes.sieve_primes(10)] == [2, 3, 5, 7]
    # inclusive upper bound
    assert [int(p) for p in primes.sieve_primes(11)][-1] == 11


def test_spf_factorization_reconstructs():
    # spf[n] is the least prime factor of n, so dividing it out repeatedly
    # walks through the factorization
    spf = primes.spf_sieve(5_000)
    assert spf[1] == 1
    for n in range(2, 5_001):
        assert int(spf[n]) == min(sympy.factorint(n)), n
        fac, m = {}, n
        while m > 1:
            fac[int(spf[m])] = fac.get(int(spf[m]), 0) + 1
            m //= int(spf[m])
        assert fac == sympy.factorint(n), n


def test_factorize_slow_agrees():
    for n in range(2, 5_000):
        assert primes.factorize_slow(n) == sympy.factorint(n), n


def test_is_prime_matches_sympy():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert primes.is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_the_sieve_to_a_million():
    n = 10**6
    want = np.zeros(n + 1, dtype=bool)
    want[primes.sieve_primes(n)] = True
    assert [primes.is_prime(m) for m in range(n + 1)] == want.tolist()


def test_is_prime_rejects_the_strong_pseudoprimes_at_the_base_switches():
    # strong pseudoprimes to the bases 2, 3; to 2, 3, 5; to 2, 3, 5, 7
    for n in (1_373_653, 25_326_001, 3_215_031_751):
        assert not primes.is_prime(n)
        assert not sympy.isprime(n)
    for n in (25_326_001 - 2, 3_215_031_751 + 2, 2**61 - 1):
        assert primes.is_prime(n) == sympy.isprime(n), n


def test_factorize_slow_on_cofactors_past_two_to_the_ten():
    # prime, square and composite cofactors left once trial division passes
    # 2^10: P, P^2, P*Q and (P*Q)^2 for primes Q < P above 2^10, and P^3 for
    # the P that trial division reaches quickly, times small parts
    big = [1031, 4099, 65537, 10000019]
    cases = [3 * 10000019**2, 3 * 100000007**2, 2**5 * 3**3 * 1031 * 4099]
    for m in (1, 2, 12, 1023, 1021 * 1019):
        for P in big:
            cases += [m * P, m * P**2, m * (P * 1031) ** 2] + [m * P * Q for Q in big if Q < P]
            cases += [m * P**3] if P < 10**5 else []
    rng = random.Random(5)
    cases += [rng.randrange(2, 10**10) for _ in range(40)]
    for n in cases:
        assert primes.factorize_slow(n) == sympy.factorint(n), n


def test_phi_sieve_matches_sympy():
    phi = primes.phi_sieve(2_000)
    for n in range(1, 2_001):
        assert phi[n] == sympy.totient(n), n


def test_phi_from_factors():
    for n in (1, 2, 12, 97, 360, 1000):
        fac = primes.factorize_slow(n)
        assert primes.phi_from_factors(fac) == sympy.totient(n)

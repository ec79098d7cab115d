"""Sieve and factorization tests, cross-checked against sympy."""

import random

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


def test_phi_sieve_matches_sympy():
    phi = primes.phi_sieve(2_000)
    for n in range(1, 2_001):
        assert phi[n] == sympy.totient(n), n


def test_phi_from_factors():
    for n in (1, 2, 12, 97, 360, 1000):
        fac = primes.factorize_slow(n)
        assert primes.phi_from_factors(fac) == sympy.totient(n)


def test_divisors_from_factors():
    assert primes.divisors_from_factors({}) == [1]
    for n in (12, 360, 720, 997):
        got = sorted(primes.divisors_from_factors(primes.factorize_slow(n)))
        assert got == sympy.divisors(n)

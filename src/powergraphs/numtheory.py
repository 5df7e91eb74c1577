"""Small exact number-theory helpers: primality, factorization, totients."""

from __future__ import annotations

from math import isqrt, prod


def is_prime(n: int) -> bool:
    """Deterministic trial division, enough for the sizes handled here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def primes_upto(n: int) -> list[int]:
    """All primes <= n via a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i in range(n + 1) if sieve[i]]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p1, e1), ...) with p1 < p2 < ..."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_power_base(n: int) -> tuple[int, int] | None:
    """(p, e) if n = p**e for a prime p and e >= 1, else None."""
    f = factorize(n) if n >= 2 else ()
    return f[0] if len(f) == 1 else None


def divisors(n: int) -> list[int]:
    """Sorted divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n; multiplicative."""
    if n < 1:
        raise ValueError(f"euler_phi({n}) undefined")
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def p_adic_valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def solve_congruence(p: int, m: int, q_pow: int) -> int:
    """Least l >= 0 with p*l == m (mod q_pow), for p coprime to the prime power q_pow.

    Solved with the modular inverse (extended Euclid via pow); the result is
    always checkable by a direct residue scan.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    qp = prime_power_base(q_pow)
    if qp is None:
        raise ValueError(f"{q_pow} is not a prime power")
    if qp[0] == p:
        raise ValueError(f"gcd({p}, {q_pow}) != 1")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return (m * pow(p, -1, q_pow)) % q_pow

"""Reference implementations that more than one test module checks against."""


def miller_rabin(n, rng, rounds=40):
    """Miller-Rabin to `rounds` bases drawn from rng.

    A composite passes with probability below 4^-rounds.  This was the
    library's test above 2^64 before Baillie-PSW.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

"""Multiprime RSA-like public-key scheme on the Pell hyperbola.

Messages are pairs of residues on x^2 - D y^2 = 1 mod N; encryption powers
the message point on the curve, optionally compressed to its parameter (a
Redei rational function value), and decryption decompresses mod each prime
power, picks per prime the row of the key's plan that holds the private
exponent reduced mod its group order, raises x-only mod each prime (a
Lucas ladder at a row's first use, a PRAC Lucas chain built for it at the
second and every later use), checks the root by its power to e, which
gives its y, lifts a prime-power factor's root to p^k by cubic Newton
steps, and recombines by CRT, which is what makes it fast.  The package
also ships the matching cryptanalysis (factoring N from the group's
totient analog).  Import from the module that holds each part:

* ``scheme``: keys, keygen, message validation, encryption, decryption;
* ``pell``: curve and parameter group laws, the x-only ladder and Lucas
  chains, the Chebyshev chain, Redei powers, psi;
* ``arith``: inverse, Jacobi symbol, CRT, primality, FactoredModulus;
* ``attacks``: factoring N given psi(N), impossible-operation odds;
* ``keyfmt``: the text format of keys and ciphertexts;
* ``cli``: the ``pellrsa`` command (keygen, encrypt, decrypt, factor);
* ``errors``: the ``PellRsaError`` hierarchy.

The decryption benchmark against two-prime CRT-RSA is pellbench, run as
``python3 pellbench/run.py``.
"""

__version__ = "0.1.0"

"""Multiprime RSA-like public-key scheme on the Pell hyperbola.

Messages are pairs of residues on x^2 - D y^2 = 1 mod N; encryption runs
in the compressed parameter group (Redei rational functions) or on the
curve, and decryption reduces the private exponent per prime power, runs a
Lucas ladder there and recombines by CRT, which is what makes it fast.  The
package also ships the matching cryptanalysis (factoring N from the group's
totient analog).  Import from the module that holds each part:

* ``scheme``: keys, keygen, message validation, encryption, decryption;
* ``pell``: curve and parameter group laws, point and Redei powers, psi;
* ``arith``: inverse, Jacobi symbol, CRT, primality, FactoredModulus;
* ``attacks``: factoring N given psi(N), impossible-operation odds;
* ``keyfmt``: the text format of keys and ciphertexts;
* ``cli``: the ``pellrsa`` command (keygen, encrypt, decrypt, factor);
* ``errors``: the ``PellRsaError`` hierarchy.

The decryption benchmark against two-prime CRT-RSA is pellbench, run as
``python3 pellbench/run.py``.
"""

__version__ = "0.1.0"

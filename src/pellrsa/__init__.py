"""Multiprime RSA-like public-key scheme on the Pell hyperbola.

Messages are pairs of residues on x^2 - D y^2 = 1 mod N; encryption runs
in the compressed parameter group (Redei rational functions) or on the
curve, and decryption reduces the private exponent per prime power, runs a
Lucas ladder there and recombines by CRT, which is what makes it fast.  The
package also ships the matching cryptanalysis (factoring N from the group's
totient analog).  The decryption benchmark against two-prime CRT-RSA is
pellbench, run as ``python3 pellbench/run.py``.
"""

from .arith import FactoredModulus, crt_combine, gen_prime, jacobi, mod_inv
from .attacks import (
    AttackReport,
    find_factor,
    full_factorization,
    impossible_op_probability,
    monte_carlo_impossible_rate,
)
from .errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    KeyFormatError,
    MessageNotEncryptable,
    ModulusTooLarge,
    NonCoprimeModuli,
    NotInvertible,
    PellRsaError,
    RandomnessExhausted,
    TrialBudgetExhausted,
)
from .keyfmt import (
    dump_ciphertext,
    dump_private_key,
    dump_public_key,
    load_ciphertext,
    load_private_key,
    load_public_key,
)
from .pell import (
    INFINITY,
    HyperbolaPoint,
    PellParams,
    RedeiPair,
    enumerate_hyperbola,
    param_mul,
    param_pow,
    param_to_point,
    point_mul,
    point_pow,
    point_pow_nodiv,
    point_to_param,
    psi,
    redei_eval,
    redei_pow,
)
from .scheme import (
    Ciphertext,
    MessagePair,
    Mode,
    PointCiphertext,
    PrivateKey,
    PublicKey,
    decrypt,
    decrypt_point,
    encrypt,
    encrypt_point,
    keygen,
    keypair_from_primes,
    random_message,
    reduced_private_exponents,
    validate_message,
)

__version__ = "0.1.0"

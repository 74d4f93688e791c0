"""Exception types shared across the package."""


class PellRsaError(Exception):
    """Base class for all domain errors raised by this package."""


class NotInvertible(PellRsaError):
    """A modular inverse does not exist; carries the offending gcd.

    The gcd is kept because against a composite modulus it is often a
    nontrivial factor, which callers may want to harvest.
    """

    def __init__(self, gcd, modulus=None):
        self.gcd = gcd
        self.modulus = modulus
        super().__init__(f"not invertible (gcd={gcd})")


class NonCoprimeModuli(PellRsaError):
    """CRT moduli share a common factor."""


class RandomnessExhausted(PellRsaError):
    """Bounded random search gave up (e.g. prime generation)."""


class ImpossibleOperation(PellRsaError):
    """A group operation hit a non-invertible denominator.

    ``factor`` is the gcd that stopped the operation; when it is a proper
    divisor of the modulus, the operation has leaked a factor.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"impossible group operation (factor={factor})")


class MessageNotEncryptable(PellRsaError):
    """The message pair fails the encryptability condition."""


class BadExponentChoice(PellRsaError):
    """The requested public exponent is unusable for this key."""


class DecryptionFailure(PellRsaError):
    """Ciphertext could not be decrypted to a valid message pair."""


class TrialBudgetExhausted(PellRsaError):
    """Factoring gave up after the allowed number of trials."""


class KeyFormatError(PellRsaError):
    """A key or ciphertext file does not parse."""

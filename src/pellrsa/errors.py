"""Exception types shared across the package."""


class PellRsaError(Exception):
    """Base class for all domain errors raised by this package."""


class NonCoprimeModuli(PellRsaError):
    """CRT moduli share a common factor."""


class RandomnessExhausted(PellRsaError):
    """Bounded random search gave up (e.g. prime generation)."""


class ImpossibleOperation(PellRsaError):
    """A modular inverse, and so a group operation, hit a non-unit denominator.

    ``factor`` is the gcd of the denominator and the modulus; when it is a
    proper divisor of the modulus, the operation has leaked a factor.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"impossible group operation (factor={factor:#x})")


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

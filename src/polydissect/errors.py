"""Shared exception types."""


def digit_count(n: int) -> int:
    """The number of decimal digits of an int n > 0, without `str`."""
    digits = int(n.bit_length() * 0.30102999566398120)  # log10(2); at most one short
    return digits + (10 ** digits <= n)


def count_text(n: int) -> str:
    """A count for a message: `n` in decimal, or, when `str` refuses it for
    having too many digits, its first six digits and its length."""
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits() digits
        pass
    digits = digit_count(n)
    return f"{n // 10 ** (digits - 6)}... ({digits} digits)"


class PolydissectError(Exception):
    """Base class for library errors."""


class ResourceLimitError(PolydissectError):
    """An enumeration or search would exceed its configured resource bound."""

    def __init__(self, message: str, projected: int | None = None, bound: int | None = None):
        super().__init__(message)
        self.projected = projected
        self.bound = bound


class MalformedFaceError(PolydissectError):
    """A diagonal set handed to the encoder is not a face of the complex."""


class InvalidImageError(PolydissectError):
    """An (a, eps) pair handed to the decoder is not a valid code word."""


class ShellingError(PolydissectError):
    """A facet order fails the shelling condition; `step` is the first bad index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class FaceDocumentError(PolydissectError):
    """A face document is syntactically or semantically invalid."""

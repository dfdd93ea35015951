"""Exception types shared across the package, the bounded reader that
raises them for the binary formats (.fbds datasets, .fbnn checkpoints),
and the value checks that configs and specs share."""

import math
import numbers
import struct

import numpy as np


class FedBeamError(Exception):
    """Base class for package-specific failures."""


class FormatError(FedBeamError):
    """A binary file does not match the expected layout (bad magic, version,
    or truncated header). Carries the byte offset of the first bad field."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IntegrityError(FedBeamError):
    """Structurally valid file whose contents contradict its own header
    (truncated payload, count mismatch, incompatible checkpoint spec)."""


class IngestError(FedBeamError):
    """External data directory is missing required arrays or is inconsistent."""


class NumericError(FedBeamError):
    """Training produced non-finite values; carries where it happened."""


class MetricUnavailableError(FedBeamError):
    """A metric cannot be computed from the given data (e.g. throughput
    ratio without per-sample beam powers). Distinct from a compute error."""


def require_int(name, value, least, most=None):
    """ValueError unless value is an integer (bools excluded) in [least, most]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least
            or (most is not None and value > most)):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def require_keys(d, known, name=None):
    """TypeError unless d is a dict, ValueError if it has a key outside
    known: a mistyped key is an error, not a silently dropped setting."""
    prefix = f"{name}: " if name else ""
    if not isinstance(d, dict):
        raise TypeError(f"{prefix}must be an object, got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"{prefix}unknown key {unknown[0]!r} (known: {', '.join(known)})")


def is_finite_real(value):
    """True for a finite real number that is not a bool; an integer too large
    for a float is not finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Half an ulp above the largest float32: from here on a float64 rounds to inf
# when cast to float32 (at the midpoint, ties go to the even 2**128).
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def is_float32(value):
    """True for a finite real that stays finite when stored as a float32."""
    return is_finite_real(value) and abs(float(value)) < _FLOAT32_OVERFLOW


def require_real(name, value, strict=True):
    """ValueError unless value is a finite real (bools excluded) that is > 0,
    or >= 0 when strict is False."""
    if not is_finite_real(value) or value < 0 or (strict and value == 0):
        raise ValueError(f"{name} must be a finite real {'>' if strict else '>='} 0, got {value!r}")


class BoundedReader:
    """Little-endian reads over one whole binary file, never past its end.

    Opening checks the 4-byte magic and the u32 version. While `header` is
    True a short read raises FormatError; the caller clears it once the
    header is read, and from then on a short read raises IntegrityError.
    finish() rejects bytes left over after the declared payload.
    """

    def __init__(self, path, magic, version):
        with open(path, "rb") as f:
            self.data = f.read()
        self.offset = 0
        self.header = True
        found = self.take(len(magic), "magic")
        if found != magic:
            raise FormatError(f"bad magic {found!r}, expected {magic!r}", 0)
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise FormatError(f"unsupported version {found}", len(magic))

    def truncated(self, what, offset):
        """The error for a read of `what` at byte `offset` that runs past the end."""
        if self.header:
            return FormatError(f"file truncated while reading {what}", offset)
        return IntegrityError(f"file truncated while reading {what} (byte offset {offset})")

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise self.truncated(what, self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, count, what):
        return np.frombuffer(self.take(4 * count, what), dtype="<f4").copy()

    def finish(self, what):
        extra = len(self.data) - self.offset
        if extra:
            raise IntegrityError(f"{extra} trailing bytes after {what} (byte offset {self.offset})")

"""Reader and writer for plain whitespace QAP instance files.

The accepted format is a single positive integer n followed by exactly 2*n^2
numeric tokens: the row-major entries of the two n x n matrices.  Any amount
of whitespace (spaces, tabs, newlines) separates tokens.  Malformed input
raises QaplibParseError carrying the byte offset of the offending token; no
input crashes the parser.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._checks import integer

_TOKEN = re.compile(rb"\S+")


class QaplibParseError(ValueError):
    """Structured parse failure with the byte offset of the problem."""

    def __init__(self, reason, offset):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset


@dataclass
class QapInstance:
    """One assignment instance: flow matrix A and distance matrix B."""

    name: str
    n: int
    A: np.ndarray
    B: np.ndarray


@dataclass
class ParseReport:
    """Outcome of scanning a directory: names that parsed and ones that did
    not, with reasons."""

    valid: list = field(default_factory=list)
    invalid: list = field(default_factory=list)


def parse_qaplib(text, name=""):
    """Parse instance text (str or bytes) into a QapInstance."""
    data = text.encode("latin-1", errors="replace") if isinstance(text, str) else text
    tokens = [(m.group(0), m.start()) for m in _TOKEN.finditer(data)]
    if not tokens:
        raise QaplibParseError("no tokens in input", 0)

    size_tok, size_off = tokens[0]
    try:
        n = int(size_tok)
    except ValueError:
        raise QaplibParseError(
            f"size token {size_tok!r} is not an integer", size_off
        ) from None
    if n <= 0:
        raise QaplibParseError(f"size must be positive, got {n}", size_off)

    expected = 1 + 2 * n * n
    if len(tokens) != expected:
        offset = len(data) if len(tokens) < expected else tokens[expected][1]
        raise QaplibParseError(
            f"expected {expected} tokens for n={n}, found {len(tokens)}", offset
        )

    values = np.empty(2 * n * n)
    for i, (tok, off) in enumerate(tokens[1:]):
        try:
            v = float(tok)
        except ValueError:
            raise QaplibParseError(
                f"token {tok!r} is not a number", off
            ) from None
        if not np.isfinite(v):
            raise QaplibParseError(f"token {tok!r} is not finite", off)
        values[i] = v
    A = values[: n * n].reshape(n, n)
    B = values[n * n :].reshape(n, n)
    return QapInstance(name=name, n=n, A=A, B=B)


def _format_entry(v):
    v = float(v)
    if v.is_integer() and abs(v) < 1e16:
        return f"{v:.0f}"  # the digits of int(v), and -0.0 as -0
    return repr(v)


def serialize_qaplib(inst):
    """Instance back to text; parsing the result reproduces n, A, and B,
    the sign of a zero entry included.

    An instance the parser would refuse is refused, naming it, before any
    text is built: an n that is not an integer (TypeError) or is below 1,
    a matrix that is not n x n or an entry that is not finite (ValueError).
    """
    n = integer(f"n of instance {inst.name!r}", inst.n, 1)
    matrices = {"A": np.asarray(inst.A, dtype=float), "B": np.asarray(inst.B, dtype=float)}
    for label, M in matrices.items():
        if M.shape != (n, n):
            raise ValueError(
                f"instance {inst.name!r}: {label} has shape {M.shape}, expected ({n}, {n})"
            )
        if not np.isfinite(M).all():
            raise ValueError(f"instance {inst.name!r}: {label} has a non-finite entry")
    lines = [str(n), ""]
    for M in matrices.values():
        for row in M:
            lines.append(" ".join(_format_entry(v) for v in row))
        lines.append("")
    return "\n".join(lines)


def scan_directory(path):
    """Parse every *.dat file under path (sorted by name) into a ParseReport."""
    p = Path(path)
    if not p.is_dir():
        raise NotADirectoryError(f"{path} is not a directory")
    report = ParseReport()
    for fp in sorted(p.glob("*.dat")):
        try:
            parse_qaplib(fp.read_bytes(), name=fp.stem)
        except QaplibParseError as err:
            report.invalid.append((fp.stem, str(err)))
        else:
            report.valid.append(fp.stem)
    return report

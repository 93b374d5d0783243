"""Typed errors raised by the omstrata modules.

Degenerate inputs always raise; no operation returns a sentinel value.
"""

from __future__ import annotations


class OmstrataError(Exception):
    """Base class for all library errors."""


# -- geometry ---------------------------------------------------------------

class CoincidentPoints(OmstrataError):
    """Two points that were required to be distinct coincide."""


class Parallel(OmstrataError):
    """Two lines share no point."""


class Identical(OmstrataError):
    """Two lines share every point."""


class NotCollinear(OmstrataError):
    """Points required to lie on one line do not."""


class DegeneratePoints(OmstrataError):
    """A coincidence among points would force a division by zero."""


class DegenerateSource(OmstrataError):
    """Source triple of an affine correspondence is collinear."""


class DegenerateTarget(OmstrataError):
    """Target triple of an affine correspondence is collinear."""


class NonPositiveHeight(OmstrataError):
    """Homogeneous vector has z <= 0 and cannot be normalized to z = 1."""


# -- oriented matroids ------------------------------------------------------

class NotSpanning(OmstrataError):
    """Vector collection does not span the required space."""


class GroundSetMismatch(OmstrataError):
    """Two oriented matroids live on different label sets."""


# -- subspaces --------------------------------------------------------------

class RankDeficient(OmstrataError):
    """Subspace basis rows are linearly dependent."""


# -- construction -----------------------------------------------------------

class DegenerateStep(OmstrataError):
    """A construction step has no well-defined intersection point.

    Carries the step index and the pair of lines that failed.
    """

    def __init__(self, step: int, which: str, reason: str = ""):
        self.step = step
        self.which = which
        msg = f"step {step}: lines {which} have no unique intersection"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class SeedRejected(OmstrataError):
    """A seed failed validation or certification.

    Carries the name of the failing check.  The documented remedy is a
    small rational perturbation of the points `a` and `nu`.
    """

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        msg = f"seed rejected by check '{check}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# -- serialization ----------------------------------------------------------

class SchemaError(OmstrataError):
    """A JSON document does not match its schema.

    Carries the JSON path of the offending value.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class RationalParseError(SchemaError):
    """A string is not a valid exact rational literal."""

    def __init__(self, path: str, text: str):
        self.text = text
        super().__init__(path, f"not a rational literal: {text!r}")

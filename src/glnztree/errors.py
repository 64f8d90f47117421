"""Exception types shared across the library.

Everything raised deliberately on malformed input derives from
GlnzTreeError, except OverflowError, which is reused as-is for the checked
64-bit integer policy on matrix entries.  Wrong argument types passed by
library code (TypeError) and internal faults (RuntimeError) are not
GlnzTreeErrors, so the CLI never reports them as malformed input.
"""


class GlnzTreeError(Exception):
    """Base class for all library-specific errors."""


class InvalidAlphabet(GlnzTreeError):
    """Alphabet size is not an integer >= 2."""


class InvalidLetter(GlnzTreeError):
    """Letter outside the alphabet of the machine at hand."""


class AlphabetMismatch(GlnzTreeError):
    """Two machines over different alphabets were combined."""


class RefinementMismatch(GlnzTreeError):
    """Block code does not fit the machine: wrong alphabet size, or the
    machine does not act letterwise on code blocks."""


class InvalidIndex(GlnzTreeError):
    """Matrix row/column index out of range or otherwise malformed."""


class NotUnimodular(GlnzTreeError):
    """Matrix determinant is not +1 or -1."""


class NotReduced(GlnzTreeError):
    """Group word contains a cancelling pair of adjacent syllables."""


class ParseError(GlnzTreeError):
    """Malformed textual or JSON input."""


class ShapeError(GlnzTreeError):
    """Matrix input is not square, or is smaller than 2 x 2."""


class InvalidArgument(GlnzTreeError, ValueError):
    """A bound or option is out of range or of the wrong type.  Also a
    ValueError, so callers that catch ValueError keep working."""

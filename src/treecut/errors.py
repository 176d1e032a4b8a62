"""Exception types shared across the package."""


class TreecutError(Exception):
    """Base class for all treecut errors."""


class ParseError(TreecutError):
    """The input document is not valid tree JSON."""


class NotATree(TreecutError):
    """The edge set contains a cycle or is disconnected."""


class ZeroLengthEdge(TreecutError):
    """An edge connects two coincident points."""


class DuplicateVertexId(TreecutError):
    """Two vertices share the same id."""


class InvalidEdgeReference(TreecutError):
    """A point refers to an edge that does not exist in the tree."""


class PointsNotOnTree(TreecutError):
    """A shortcut endpoint does not lie on the given tree."""


class NoRootInBracket(TreecutError):
    """A balance equation has no sign change in the probed interval."""


class ResolutionTooCoarse(TreecutError):
    """The grid resolution is too coarse relative to the tree diameter."""


class ResolutionTooFine(TreecutError):
    """The grid resolution is too fine relative to the tree diameter."""


class EmptyMatrix(TreecutError):
    """Row-maxima search on a matrix with no rows or no columns."""

"""Exception hierarchy shared across the package.

Every domain error derives from :class:`EquipruneError` so callers (and the
CLI) can catch one base class and map it to a nonzero exit code.
"""


class EquipruneError(Exception):
    """Base class for all domain errors raised by this package."""


# --- dataset ingestion / splitting -------------------------------------

class ParseError(EquipruneError):
    """An input file is not UTF-8 text in its format (CSV or JSON), or a CSV
    cell failed to parse; a cell carries its 1-based row/column location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyDataset(EquipruneError):
    """The input file contains a header but no data rows."""


class InconsistentColumnCount(EquipruneError):
    """A data row has a different number of cells than the header."""


class TooFewRows(EquipruneError):
    """Fewer rows than requested partitions."""


# --- ensembles ----------------------------------------------------------

class DimensionMismatch(EquipruneError):
    """Vector length does not match the ensemble's expectations."""


class DegenerateLabels(EquipruneError):
    """Training data contains a single class."""


class SchemaError(EquipruneError):
    """A model file violates the documented JSON schema; carries a JSON path."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path


# --- MILP ---------------------------------------------------------------

class MalformedModel(EquipruneError):
    """A MILP references undeclared variables or carries invalid data."""


class Unbounded(EquipruneError):
    """The objective is unbounded in the LP relaxation."""


class SolverUncertified(EquipruneError):
    """A solve hit a limit where the caller required a certificate."""


# --- plausibility models -------------------------------------------------

class NoThresholds(EquipruneError):
    """Every feature lacks split thresholds; the bin grid cannot be grounded."""


class DegenerateGrid(EquipruneError):
    """The bin grid has no included features left to model."""


class TooFewSamples(EquipruneError):
    """Not enough rows to fit the requested model."""


# --- conformal calibration ------------------------------------------------

class EmptyCalibrationSet(EquipruneError):
    """Calibration requires at least one score."""


class AlphaOutOfRange(EquipruneError):
    """Miscoverage level must lie strictly between 0 and 1."""


# --- pruning -----------------------------------------------------------

class InfeasibleAtEpsilon(EquipruneError):
    """The original weights violate a strict margin even after halving eps."""


# --- verification --------------------------------------------------------

class TooManyCells(EquipruneError):
    """The cell product exceeds the enumeration cap."""


# --- evaluation ----------------------------------------------------------

class EmptyTestSet(EquipruneError):
    """Evaluation requires at least one test row."""

"""Exact basis forms for level one, certified bounds, and arc zeros."""

from .miller import MillerForm, miller_basis, miller_form
from .qseries import FormId, QSeries, delta, eisenstein, jfunction
from .zeros import ZeroReport, arc_zero_localize, verify_theorem_m1, zero_report

__all__ = [
    "FormId", "QSeries", "delta", "eisenstein", "jfunction",
    "MillerForm", "miller_basis", "miller_form",
    "ZeroReport", "zero_report", "arc_zero_localize", "verify_theorem_m1",
]

__version__ = "0.1.0"

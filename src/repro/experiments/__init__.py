"""Experiment drivers: one module per table/figure of the paper.

Each driver regenerates its table or figure from the reproduction's models
and returns both the reproduced rows and the paper's published values (from
:mod:`repro.experiments.paperdata`) so relative errors can be reported.  The
CLI (``repro table1`` ... ``repro fig10``), the capacity planner and
``tests/experiments/`` call these drivers; the modules can also be run as
scripts to print the comparison.
"""

from repro.experiments import paperdata
from repro.experiments.report import ComparisonRow, format_table, relative_error

__all__ = ["ComparisonRow", "format_table", "paperdata", "relative_error"]

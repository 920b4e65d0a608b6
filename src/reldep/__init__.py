"""Relative dependency testing with correlated HSIC statistics.

Decide whether a source variable is significantly more dependent on one
target variable than on another.  Dependence is measured by unbiased HSIC
estimates; the main test models the covariance between the two estimates
(they share the source sample), which gives a consistent test with much
lower variance than splitting the data, and generalizes to weighted
combinations of any number of HSIC statistics.

The names below are the public surface; everything else is importable
from its submodule (``reldep.kernels``, ``reldep.hsic``, ...).
"""

from reldep._backend import backend_name
from reldep.dataset import DatasetError, PreconditionError, Sample, align, load_csv
from reldep.hsic import hsic_estimate, variance_hsic
from reldep.kernels import KernelConfig, KernelSpec
from reldep.reltest import dependent_test, generalized_test, independent_test, joint_summary
from reldep.synthbench import (
    SynthConfig,
    calibration,
    convergence_diagnostic,
    power_curve,
    scatter_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "PreconditionError",
    "Sample",
    "align",
    "load_csv",
    "KernelSpec",
    "KernelConfig",
    "hsic_estimate",
    "variance_hsic",
    "dependent_test",
    "independent_test",
    "joint_summary",
    "generalized_test",
    "SynthConfig",
    "power_curve",
    "calibration",
    "scatter_experiment",
    "convergence_diagnostic",
    "backend_name",
]

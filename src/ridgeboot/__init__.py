"""Residual-bootstrap inference for ridge-regression contrasts.

The package fits ridge regression through one thin SVD per design,
builds confidence intervals for linear contrasts of the coefficients by
resampling centered pilot residuals, and ships a simulation harness plus
numerical verification suites for the distributional guarantees that
justify the method in proportional high dimensions.
"""

__version__ = "0.1.0"

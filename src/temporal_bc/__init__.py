"""Temporal stochastic bias correction of daily climate-model series.

The package pairs an observational record with climate-model runs, trains an
autoregressive attention model with a Gaussian likelihood on randomly sliced
and pruned windows of the aligned history, and then generates stochastic
corrected trajectories day by day. Classical monthly baselines (mean shift,
mean and variance scaling, empirical quantile mapping, and rank-resampled
quantile mapping) and the usual evaluation statistics (heatwave frequencies,
QQ pairs, partial autocorrelations, MSE / log-likelihood scores) are included
for comparison, along with a Gaussian-process generator for controlled
synthetic experiments.
"""

__version__ = "0.1.0"

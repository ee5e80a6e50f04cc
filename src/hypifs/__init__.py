"""Numerical toolkit for thermodynamic formalism on one-parameter
hyperbolic IFS families on the line: transfer operators and Gibbs
measures, pressure and Bowen roots, dimension estimators, and
transversality certification."""

__version__ = "0.1.0"

from .ifs import (AffineMap, AuditFailure, CustomMap, EvaluationError,
                  IfsFamily, Poly, RationalMap, ShiftedMap, affine_map,
                  bernoulli_psi, cylinder_interval, moebius_shift,
                  natural_projection, poly, regularity_audit)
from .thermo import (ConvergenceError, CylinderMeasure, Potential,
                     TransferSpectrum, bowen_root,
                     constant_bernoulli_potential, entropy,
                     gibbs_cylinder_measure, log_probability_potential,
                     lyapunov_exponent, partition_sum,
                     pressure, pressure_bracket, pressure_drop_check,
                     t_log_derivative_potential, transfer_spectrum)
from .transversality import (PartitionError, TransversalityReport,
                             build_pm_translation, greedy_partition,
                             mc_transversality_probe, overlap_domain,
                             vertical_certificate)
from .mstats import (EmpiricalSample, chaos_game_sample,
                     correlation_dimension, energy, m_condition_probe,
                     sobolev_estimate)
from .apps import (RegionGrid, bernoulli_entropy_bounds, bernoulli_family,
                   bernoulli_moments, bernoulli_potential,
                   bernoulli_region_scan, blackwell_cell_value,
                   blackwell_family, blackwell_region_scan, cf_family,
                   cf_overlap, similarity_dimension)
from .words import enumerate_words

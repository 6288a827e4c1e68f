"""Numerical operator theory on dense hermitian matrices.

Double operator integrals as Schur multipliers, gapped Sylvester solves
with the pi/(2 delta) certificate, Krein-type spectral shift functions by
four independent routes, and discrete position/momentum quantization with
Cotlar-Stein and Grothendieck-style norm checks.
"""

from .doi import (Decomposition, ExperimentReport, SpectralPair, SymbolGrid,
                  divided_difference_symbol, doi_apply, doi_fourier,
                  hs_multiplier_norm, lipschitz_ratio_experiment,
                  make_spectral_pair, peller_bound, sampled_transformer_norm,
                  symbol_from_decomposition, symbol_from_function,
                  triangular_truncation)
from .errors import (ConfigError, EvaluationError, IllPosedError,
                     InputDomainError)
from .linalg import (EigenSystem, apply_function, as_complex_matrix,
                     as_hermitian, dft_unitary, eig_hermitian,
                     hermitian_eigenvalues, load_matrix, operator_norm,
                     save_matrix, schatten_norm, singular_values, trace_norm)
from .quadrature import QuadratureRule, symmetric_open_rule, trapezoid_rule
from .quantization import (CotlarReport, CycleSpace, SequenceBimeasure,
                       bimeasure_eval, bimeasure_integrate,
                       bimeasure_integrate_grid, cotlar_stein_bound,
                       cycle_space, extension_growth_experiment,
                       grothendieck_norm, momentum_projector, polymeasure_eval,
                       position_projector, qp_norm_upper_bound, quantize,
                       semivariation)
from .rng import substream
from .shift import (AtomicMeasure, SampledCurve, ShiftFunction, admissible_f,
                    arctan_rep_check, arctan_rep_value, harmonic_h,
                    rank_one_cauchy_transform, resolvent_identity_check,
                    trace_formula_check, xi_arctan, xi_arctan_extrapolated,
                    xi_counting, xi_fourier, xi_fourier_integrand, xi_rank_one)
from .sylvester import GapReport, kron_oracle, solve_gap, spectral_gap

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

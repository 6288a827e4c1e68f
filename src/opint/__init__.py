"""Numerical operator theory on dense hermitian matrices.

Double operator integrals as Schur multipliers, gapped Sylvester solves
with the pi/(2 delta) certificate, Krein-type spectral shift functions by
four independent routes, and discrete position/momentum quantization with
Cotlar-Stein and Grothendieck-style norm checks.  Each operand is
diagonalized once: the DOI, Sylvester-gap and spectral shift routes take
one `SpectralPair` (the rank-one shift route takes only B's `EigenSystem`,
and `polymeasure_eval` only H's).  The pair's eigensystems are the only
copy of its spectra: a `SymbolGrid` holds symbol values alone.  The
Sylvester cross-check `kron_oracle` reuses the solve's eigensystem of B
and solves A's side by LU, so it checks that side and the change of basis.

Each rule that several places use has one home:
- input arrays are checked by `linalg.as_finite_array`, sizes by `linalg.require_size`;
- LAPACK's eigensolver and SVD are called only in `linalg.eig_hermitians`
  (a stack per shape; `eig_hermitian` is one matrix) and `singular_values`;
- user functions are evaluated once, on an array, by `linalg.evaluate`;
- a Sylvester solve is `sylvester.solve_gap_pair` on a given `SpectralPair`
  (`solve_gap` diagonalizes first), whose `GapSolution` gives X and, for
  any p, a `GapReport`, which holds the residual and pi/(2 delta) rules;
  the Kronecker tolerance is `sylvester.KRON_AGREEMENT_TOL`;
- the Cotlar-Stein slack is on `CotlarReport`, which also judges the
  quantize upper bound; the Peller slack is `doi.PELLER_SLACK`;
- Krein's properties, and whether A >= B, are on `KreinProperties`, which
  judges (a) relative to max(1, |tr(A - B)|) and (b) relative to
  max(1, |A - B|_1);
- the grid points where a regularized xi meets the counting function are
  `shift.far_from_spectra`.
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
                     as_finite_array, as_hermitian, dft_unitary, eig_hermitian,
                     eig_hermitians, evaluate, load_matrix, operator_norm, save_matrix,
                     schatten_norm, singular_values, trace_norm)
from .quadrature import QuadratureRule, symmetric_open_rule, trapezoid_rule
from .quantization import (CotlarReport, CycleSpace, SequenceBimeasure,
                       bimeasure_eval, bimeasure_integrate,
                       bimeasure_integrate_grid, cotlar_stein_bound,
                       cycle_space, grothendieck_norm, momentum_projector,
                       polymeasure_eval, position_projector,
                       qp_norm_upper_bound, quantize, semivariation)
from .rng import substream
from .shift import (AtomicMeasure, KreinProperties, SampledCurve, ShiftFunction,
                    admissible_f, arctan_rep_check, arctan_rep_value, far_from_spectra,
                    krein_properties, rank_one_cauchy_transform, resolvent_identity_check,
                    trace_formula_check, xi_arctan, xi_arctan_extrapolated,
                    xi_counting, xi_fourier, xi_rank_one)
from .sylvester import (GapReport, GapSolution, kron_oracle, solve_gap, solve_gap_pair,
                        spectral_gap)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

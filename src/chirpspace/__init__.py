"""Phase-space chirp-kernel transform toolkit.

Numerics for the integral transform
f(x,y) = (1/pi) iint exp(2i (p-x)(q-y)) h(p,q) dp dq
(direct quadrature and a Bluestein fast path), its closed-form Gaussian and
chirplet images, fractional-Fourier kernels with a spectral oracle, and the
induced operator/symbol correspondence checks.
"""
from .closedform import (
    FrFTParams,
    SIN_ALPHA_GUARD,
    chirplet_field,
    chirplet_identity_residual,
    frft_kernel,
    frft_kernel_hermite,
    gaussian_transform_closed,
    params_of_alpha,
)
from .fields_io import (
    read_field_csv,
    read_operator_csv,
    write_field_csv,
    write_operator_csv,
)
from .grid import (
    Axis,
    OperatorKernel,
    PhaseGrid,
    SampledField,
    Signal,
    make_axis,
    sample_field,
    trapezoid_weights,
    weighted_norm_sq,
)
from .hermite import hermite_functions
from .quantum import (
    HermiteBasis,
    char_function_pq,
    char_function_qp,
    kirkwood_pq_closed,
    kirkwood_qp_closed,
    make_hermite_basis,
    mixed_matrix_element,
    oscillator_exponential_kernel,
    oscillator_exponential_symbol,
    symbol_identity_residual,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner_of_density,
    wigner_of_signal,
    wigner_to_kirkwood_residual,
)
from .suites import RunConfig, VerificationReport, run_suite
from .xform import (
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    parseval_residual,
)

__version__ = "0.1.0"

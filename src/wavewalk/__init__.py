"""Random-walk path measures and scaling functions for wavelet filters."""

__version__ = "0.1.0"

from .errors import (
    ArityTooLarge,
    DegenerateStep,
    DepthTooLarge,
    DigitOutOfRange,
    EmptyWord,
    FilterKindError,
    GridTooLarge,
    NonFiniteArgument,
    UnsupportedScale,
    WavewalkError,
)
from .filters import (
    FilterSpec,
    ValidationReport,
    check_lowpass,
    check_partition,
    check_quadrature,
    eval_response,
    eval_weight,
    high_pass,
    load_filter,
    save_filter,
    validate_filter,
    weight_array,
)
from .gallery import GALLERY_NAMES, gallery_path, load_gallery
from .ifs import DigitWord, GridFunction, PathSystem, frac
from .measures import (
    FiniteCoordFn,
    MeasureArray,
    MeasureValue,
    TruncationPolicy,
    check_negative_embedding,
    consistency_check,
    cylinder_prob,
    expect_finite,
    harmonic_masses,
    harmonic_on_grid,
    integer_atom,
    lattice_mass,
    lattice_masses,
    refinement_check,
    scaled_lattice_mass,
    zero_path_atom,
    zero_path_atoms,
)
from .scaling import (
    Autocorrelation,
    SampledFunction,
    autocorrelation,
    autocorrelation_time_domain,
    cascade,
    cascade_step,
    scaling_hat,
    scaling_norm_sq,
    wavelet_coeffs,
    wavelet_from_scaling,
    wavelet_reconstruct,
)
from .transfer import (
    apply_transfer,
    apply_transfer_n,
    harmonic_gridfunction,
    harmonic_residual,
    power_iterate,
    ruelle_measure,
)
from .diagnostics import (
    CocycleHarmonicReport,
    CylinderEstimate,
    DiagnosisReport,
    WalkSample,
    cocycle_residual,
    diagnose_convergence,
    estimate_cylinder,
    harmonic_from_cocycle,
    sample_path,
)

# the public names, not the submodules the imports above bind
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], type(errors))]

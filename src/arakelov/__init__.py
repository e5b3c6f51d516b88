"""Arakelov bundles over class-number-one fields: metrized free modules,
their global sections, subbundle zeta sums, random-lattice sampling, and
the existence bounds that tie them together."""

from .errors import (
    ArakelovError,
    BudgetExceededError,
    DependentGeneratorsError,
    EnumerationCapError,
    FieldMismatchError,
    GramFileError,
    InvalidCosetError,
    InvalidDescriptorError,
    InvalidMetricError,
    MonteCarloDiscardError,
    NoSplitPrimeError,
    UnsupportedFieldError,
    ZeroElementError,
    ZetaDivergenceError,
)
from .numberfield import (
    AdelicDivisor,
    NumberField,
    Place,
    QuadElement,
    absolute_value,
    adelic_ball_volume,
    ball_volume,
    divisor,
    make_field,
    quadratic_field,
    rational_field,
)
from .bundle import (
    ArakelovBundle,
    PlaceForm,
    SaturatedSubbundle,
    ZLatticeView,
    degree,
    determinant,
    dual,
    make_bundle,
    restrict_scalars,
    saturate_subbundle,
    scale,
    slope,
    tensor,
    trivial_bundle,
)
from .gramfile import (
    format_gram_file,
    load_gram_file,
    parse_gram_text,
)
from .sections import (
    SectionReport,
    count_in_region,
    global_sections,
    has_nonzero_section,
    minkowski_guarantee,
)
from .zeta import (
    SemistabilityVerdict,
    SubbundleRecord,
    ZetaPartial,
    degree_shells,
    enumerate_subbundles,
    mu_max,
    semistability_verdict,
    zeta_partial,
)
from .sampler import (
    RandomLatticeSpec,
    hecke_unimodular,
    random_bundle,
    trial_rng,
)
from .mvt import (
    MonteCarloEstimate,
    MvtComparison,
    mvt_compare,
    mvt_lhs_estimate,
    mvt_rhs,
)
from .bounds import (
    BoundReport,
    main_inequality,
    mh_bound,
    packing_density,
    quotient_volume,
    riemann_zeta_int,
    thresholds,
)
from .search import (
    SearchOutcome,
    expected_section_count,
    find_section_free,
    success_rate_experiment,
)

__version__ = "0.1.0"

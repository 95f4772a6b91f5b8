"""Codes that keep every sliding window free of short periods.

The package has three layers:

* :mod:`lpacodes.periodicity` — words over an integer alphabet and the
  window-periodicity predicates.
* :mod:`lpacodes.codec` — the single-redundancy-symbol iterative-repair
  encoder/decoder, plus :mod:`lpacodes.segmented` for splitting long
  words into independently repaired segments.
* :mod:`lpacodes.cardinality` — exact counts, closed-form counts,
  and bounds for the constrained families.
"""

from .cardinality import (
    DEFAULT_BUDGET,
    CountQuery,
    CountReport,
    Family,
    all_words,
    build_report,
    count_brute,
    lpa_count_lower,
    lpa_count_near_whole,
    lpa_count_upper,
    lpa_count_whole,
    min_window_feasible,
    pa_count_via_rll,
    pa_count_whole,
    rll_count_upper,
)
from .codec import (
    EncodeTrace,
    LpaParams,
    RepairStep,
    StepStats,
    decode,
    derive_params,
    encode,
    inverse_repair,
    repair,
    replay_trace,
    step_statistics,
)
from .errors import (
    BudgetExceededError,
    CorruptCodewordError,
    InfeasibleParametersError,
)
from .periodicity import (
    Word,
    WindowViolation,
    difference,
    extension_symbol,
    first_violation,
    has_period,
    is_lpa,
    is_pa,
    is_rll,
    least_period_below,
)
from .segmented import Selection, SegmentedParams, Variant, select_construction

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CorruptCodewordError",
    "CountQuery",
    "CountReport",
    "DEFAULT_BUDGET",
    "EncodeTrace",
    "Family",
    "InfeasibleParametersError",
    "LpaParams",
    "RepairStep",
    "Selection",
    "SegmentedParams",
    "StepStats",
    "Variant",
    "Word",
    "WindowViolation",
    "all_words",
    "build_report",
    "count_brute",
    "decode",
    "derive_params",
    "difference",
    "encode",
    "extension_symbol",
    "first_violation",
    "has_period",
    "inverse_repair",
    "is_lpa",
    "is_pa",
    "is_rll",
    "least_period_below",
    "lpa_count_lower",
    "lpa_count_near_whole",
    "lpa_count_upper",
    "lpa_count_whole",
    "min_window_feasible",
    "pa_count_via_rll",
    "pa_count_whole",
    "repair",
    "replay_trace",
    "rll_count_upper",
    "select_construction",
    "step_statistics",
    "__version__",
]

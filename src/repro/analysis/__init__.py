"""The paper's diagnostic methodology, made programmatic.

Queue-peak detection, millibottleneck detection from observables,
causal-chain correlation (including lag scanning, which recovers the
TCP retransmission timer from data), phase segmentation around stalls,
funnel/lock-on metrics, report builders, CSV/JSON export, and terminal
plotting.
"""

from repro.analysis.asciiplot import histogram, sparkline, table, timeline
from repro.analysis.correlation import (
    align,
    causal_chain_report,
    drops_of,
    pearson,
)
from repro.analysis.export import export_result, series_from_csv, series_to_csv
from repro.analysis.lag import best_lag, lagged_pearson, shift
from repro.analysis.millibottleneck import (
    SATURATION_LEVEL,
    DetectedMillibottleneck,
    detect,
    match_ground_truth,
    saturated_windows,
)
from repro.analysis.phases import (
    Phases,
    distribution_by_phase,
    evenness,
    funnel_fraction,
    lock_on_fraction,
    peak_growth,
    segment,
)
from repro.analysis.queueing import (
    QueuePeak,
    adaptive_threshold,
    find_peaks,
    tier_series,
)
from repro.analysis.report import (
    PAPER_TABLE1,
    improvement_factors,
    shape_check,
    table1,
    table1_with_paper,
)

__all__ = [
    "QueuePeak",
    "find_peaks",
    "adaptive_threshold",
    "tier_series",
    "DetectedMillibottleneck",
    "detect",
    "saturated_windows",
    "match_ground_truth",
    "SATURATION_LEVEL",
    "pearson",
    "align",
    "drops_of",
    "causal_chain_report",
    "lagged_pearson",
    "best_lag",
    "shift",
    "export_result",
    "series_to_csv",
    "series_from_csv",
    "Phases",
    "segment",
    "funnel_fraction",
    "lock_on_fraction",
    "peak_growth",
    "distribution_by_phase",
    "evenness",
    "table1",
    "table1_with_paper",
    "improvement_factors",
    "shape_check",
    "PAPER_TABLE1",
    "sparkline",
    "timeline",
    "histogram",
    "table",
]

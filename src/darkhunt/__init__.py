"""darkhunt: darkspace threat-hunting toolkit.

Per-port traffic metrics and discoverability ranking for coordinated
(Crackonosh-style) scanning, per-host scan-rate estimation from always-on
sources, an analytic observability model over telescope sizes, and a
deterministic ground-truth traffic simulator to validate all of it.
"""

__version__ = "0.1.0"

from .metrics import METRIC_IDS, size_entropy  # noqa: F401
from .population import (  # noqa: F401
    AlwaysOnReport,
    DensityProfile,
    always_on,
    density_profile,
    estimate_rate,
    peaks_to_rates,
)
from .portgen import DailyPortOracle  # noqa: F401
from .ranking import (  # noqa: F401
    DiscoverabilityReport,
    discoverability,
    rank_of_labeled_port,
    rank_ports,
)
from .records import (  # noqa: F401
    TRAFFIC_DTYPE,
    CsvFormatError,
    LabeledDataset,
    PortDayPartition,
    partition_by_day_port,
    read_days,
    traffic_table,
)
from .sim import (  # noqa: F401
    BackgroundScanner,
    CrackonoshConfig,
    SimConfig,
    default_background,
    simulate,
    simulate_days,
    three_epoch_schedule,
)
from .telescope import (  # noqa: F401
    ScanPopulation,
    TelescopeSpec,
    days_to_coverage,
    expected_observed_hosts,
    expected_packets,
    observability_table,
    p_collision,
    p_observe,
    time_to_n_packets,
    visible_rate,
)

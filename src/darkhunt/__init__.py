"""darkhunt: darkspace threat-hunting toolkit.

Per-port traffic metrics and discoverability ranking for coordinated
(Crackonosh-style) scanning, per-host scan-rate estimation from always-on
sources, an analytic observability model over telescope sizes, and a
deterministic ground-truth traffic simulator to validate all of it.

Each public name is resolved from its module on first use (PEP 562), so
`import darkhunt` loads no submodule and a CLI command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "metrics": "METRIC_IDS size_entropy",
    "population": "AlwaysOnReport DensityProfile always_on density_profile estimate_rate peaks_to_rates",
    "portgen": "DailyPortOracle",
    "ranking": "DiscoverabilityReport discoverability rank_of_labeled_port rank_ports",
    "records": "TRAFFIC_DTYPE CsvFormatError LabeledDataset PortDayPartition partition_by_day_port read_days "
    "traffic_table",
    "sim": "BackgroundScanner CrackonoshConfig SimConfig default_background simulate simulate_days "
    "three_epoch_schedule",
    "telescope": "ScanPopulation TelescopeSpec days_to_coverage expected_observed_hosts expected_packets "
    "observability_table p_collision p_observe time_to_n_packets visible_rate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value

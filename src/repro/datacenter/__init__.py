"""Data-center substrate: servers, queueing, IDCs, metering.

Implements the models of Sec. III of the paper: the affine server power
model (eqs. 5–7), the M/M/n latency model with the paper's P_Q = 1
simplification (eq. 14), the ON/OFF server sizing rule (eq. 35), and the
multi-IDC cluster with the Fig. 1 allocation conventions.
"""

from .battery import (
    Battery,
    BatteryConfig,
    BatteryShaveResult,
    shave_with_battery,
)
from .cluster import IDCCluster
from .idc import IDC, IDCConfig
from .power import (
    EnergyMeter,
    joules_to_mwh,
    mw_to_watts,
    mwh_to_joules,
    watts_to_mw,
)
from .queue_sim import QueueSimResult, simulate_mmn_queue
from .queueing import (
    erlang_c,
    is_stable,
    latency_capacity,
    mg1_wait_time,
    mm1_response_time,
    mmn_response_time,
    mmn_wait_time,
    required_servers,
    simplified_latency,
)
from .server import FrequencyPowerModel, LinearPowerModel, fit_frequency_model

__all__ = [
    "Battery",
    "BatteryConfig",
    "BatteryShaveResult",
    "shave_with_battery",
    "LinearPowerModel",
    "FrequencyPowerModel",
    "fit_frequency_model",
    "simplified_latency",
    "erlang_c",
    "mmn_wait_time",
    "mmn_response_time",
    "required_servers",
    "latency_capacity",
    "is_stable",
    "mm1_response_time",
    "mg1_wait_time",
    "simulate_mmn_queue",
    "QueueSimResult",
    "IDC",
    "IDCConfig",
    "IDCCluster",
    "EnergyMeter",
    "watts_to_mw",
    "mw_to_watts",
    "joules_to_mwh",
    "mwh_to_joules",
]

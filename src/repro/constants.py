"""Physical constants and paper-level default parameters.

The values grouped here are either physical constants (solar constant,
Stefan-Boltzmann, ...) or defaults taken directly from the DATE 2018 paper
(grid pitch, module size, wiring characteristics, experimental site).
Keeping them in one module makes every "magic number" of the reproduction
traceable to its source.

The last section holds the execution defaults of the campaign fleet and the
planning service.  They live here, not in the store, worker and service
modules that use them, because the ``repro`` argument parser shows them as
option defaults and must not import those subsystems to do so.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------------
# Physical constants
# --------------------------------------------------------------------------

#: Solar constant: extraterrestrial normal irradiance [W/m^2] (WMO value).
SOLAR_CONSTANT = 1367.0

#: Stefan-Boltzmann constant [W/(m^2 K^4)].
STEFAN_BOLTZMANN = 5.670374419e-8

#: Absolute zero offset between Celsius and Kelvin.
KELVIN_OFFSET = 273.15

#: Mean earth-sun distance correction amplitude (eccentricity factor).
ECCENTRICITY_AMPLITUDE = 0.033

#: Degrees to radians.
DEG2RAD = math.pi / 180.0

#: Radians to degrees.
RAD2DEG = 180.0 / math.pi

#: Standard test condition irradiance [W/m^2].
STC_IRRADIANCE = 1000.0

#: Standard test condition cell temperature [degC].
STC_TEMPERATURE = 25.0

#: Hours in a day.
HOURS_PER_DAY = 24.0

#: Days in the (non-leap) reference year used throughout the reproduction.
DAYS_PER_YEAR = 365

#: Seconds per hour.
SECONDS_PER_HOUR = 3600.0

# --------------------------------------------------------------------------
# Paper defaults: virtual grid and module geometry (Section III-A)
# --------------------------------------------------------------------------

#: Virtual grid pitch ``s`` [m]; the paper uses 20 cm.
DEFAULT_GRID_PITCH = 0.20

#: PV module width [m] (paper: 160 cm x 80 cm module).
DEFAULT_MODULE_WIDTH = 1.60

#: PV module height [m].
DEFAULT_MODULE_HEIGHT = 0.80

#: Module width expressed in grid cells (k1 in the paper).
DEFAULT_MODULE_CELLS_W = int(round(DEFAULT_MODULE_WIDTH / DEFAULT_GRID_PITCH))

#: Module height expressed in grid cells (k2 in the paper).
DEFAULT_MODULE_CELLS_H = int(round(DEFAULT_MODULE_HEIGHT / DEFAULT_GRID_PITCH))

# --------------------------------------------------------------------------
# Paper defaults: suitability metric (Section III-C)
# --------------------------------------------------------------------------

#: Percentile of the irradiance distribution used as suitability signature.
DEFAULT_SUITABILITY_PERCENTILE = 75.0

#: Distance-threshold multiplier: a candidate cell is rejected when farther
#: than this multiple of the average distance of the already placed modules.
DEFAULT_DISTANCE_THRESHOLD_FACTOR = 2.0

# --------------------------------------------------------------------------
# Paper defaults: module thermal model (Section III-B1, refs [12][13])
# --------------------------------------------------------------------------

#: Roof absorptivity used in the actual-module-temperature correction.
DEFAULT_ROOF_ABSORPTIVITY = 0.75

#: Convective + radiative heat-exchange coefficient [W/(K m^2)] (paper: 15).
DEFAULT_HEAT_EXCHANGE_COEFFICIENT = 15.0

#: Ratio k = alpha / h_c used in Tact = T + k * G [K m^2 / W].
DEFAULT_THERMAL_K = DEFAULT_ROOF_ABSORPTIVITY / DEFAULT_HEAT_EXCHANGE_COEFFICIENT

# --------------------------------------------------------------------------
# Paper defaults: wiring overhead (Section III-B2 and V-C)
# --------------------------------------------------------------------------

#: Resistance per metre of the AWG 10 cable used for string wiring [ohm/m].
DEFAULT_WIRE_RESISTANCE_PER_M = 0.007

#: Cable cost per metre [$/m].
DEFAULT_WIRE_COST_PER_M = 1.0

#: Default length of the factory connector between adjacent modules [m].
DEFAULT_CONNECTOR_LENGTH = 1.0

#: Conservative string current assumed in the paper's overhead estimate [A].
OVERHEAD_REFERENCE_CURRENT = 4.0

#: Fraction of the year assumed at non-zero current in the overhead estimate.
OVERHEAD_DUTY_FACTOR = 0.5

# --------------------------------------------------------------------------
# Paper defaults: time base and experimental site (Sections IV and V)
# --------------------------------------------------------------------------

#: Temporal resolution of the solar simulation [minutes] (paper: 15 min).
DEFAULT_TIME_STEP_MINUTES = 15.0

#: Number of 15-minute samples in one year.
SAMPLES_PER_YEAR_15MIN = int(DAYS_PER_YEAR * HOURS_PER_DAY * 60 / DEFAULT_TIME_STEP_MINUTES)

#: Latitude of the experimental site (Turin, Italy) [deg].
TURIN_LATITUDE = 45.07

#: Longitude of the experimental site (Turin, Italy) [deg east].
TURIN_LONGITUDE = 7.69

#: Roof tilt used by all three case-study roofs [deg] (paper: 26 deg).
CASE_STUDY_TILT = 26.0

#: Roof azimuth of the case studies: south / south-west facing.
#: Convention: 0 deg = south, positive towards west.
CASE_STUDY_AZIMUTH = 22.5

#: Default ground albedo used by the transposition model.
DEFAULT_ALBEDO = 0.2

#: Default Linke turbidity factor (clear, low-pollution mid-latitude site).
DEFAULT_LINKE_TURBIDITY = 3.0

# --------------------------------------------------------------------------
# Execution defaults: campaign fleet and planning service (not from the paper)
# --------------------------------------------------------------------------

#: Default cadence of campaign heartbeats (seconds between refreshes of a
#: driver's or worker's ``running`` rows).
DEFAULT_HEARTBEAT_S = 5.0

#: Default age after which a ``running`` row with no heartbeat counts as
#: abandoned by a dead claim loop and becomes eligible for adoption
#: (:meth:`repro.runner.store.ResultStore.claim_next_pending`).
DEFAULT_STALE_AFTER_S = 60.0

#: How long a worker sleeps between claim attempts while the queue is empty
#: but siblings still hold ``running`` rows (it waits to adopt their leases
#: should they die).
DEFAULT_POLL_S = 1.0

#: Campaign name the planning service enrolls cache misses into.
DEFAULT_SERVE_CAMPAIGN = "serve"

#: Default bind address/port of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Default bound on not-yet-terminal (pending + running) serve points.
DEFAULT_MAX_QUEUE = 64

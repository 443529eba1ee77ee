"""Unit tests for the PV electrical substrate (datasheet, cell, module,
thermal, array, wiring)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import PVModelError, TopologyError
from repro.geometry import Point2D
from repro.pv import (
    CellTemperatureModel,
    EmpiricalModuleModel,
    PVArray,
    PV_MF165EB3,
    SeriesParallelTopology,
    SingleDiodeCell,
    WiringSpec,
    annual_energy_loss_wh,
    get_datasheet,
    paper_module_model,
    reference_cell_for_module,
    resistive_power_loss,
    string_extra_length,
    wiring_overhead_report,
)

from oracles.evaluation import (
    mismatch_loss_fraction,
    module_operating_point,
    operating_point_from_conditions,
    voltage_at_cell_temperature,
)


class TestDatasheet:
    def test_paper_module_reference_values(self):
        assert PV_MF165EB3.p_max_ref == 165.0
        assert PV_MF165EB3.v_oc_ref == pytest.approx(30.4)
        assert PV_MF165EB3.i_sc_ref == pytest.approx(7.36)

    def test_registry_lookup(self):
        assert get_datasheet("pv-mf165eb3") is PV_MF165EB3
        with pytest.raises(PVModelError):
            get_datasheet("does-not-exist")

    def test_invalid_datasheet_rejected(self):
        with pytest.raises(PVModelError):
            dataclasses.replace(PV_MF165EB3, v_mpp_ref=31.0)  # Vmpp > Voc
        with pytest.raises(PVModelError):
            dataclasses.replace(PV_MF165EB3, gamma_p_per_k=0.001)


class TestThermal:
    def test_paper_k_value(self):
        model = CellTemperatureModel()
        assert model.k == pytest.approx(0.75 / 15.0)

    def test_cell_temperature_rises_with_irradiance(self):
        model = CellTemperatureModel()
        t = model.cell_temperature(np.array([20.0, 20.0]), np.array([0.0, 1000.0]))
        assert t[0] == pytest.approx(20.0)
        assert t[1] == pytest.approx(20.0 + 50.0)

    def test_negative_irradiance_rejected(self):
        with pytest.raises(PVModelError):
            CellTemperatureModel().cell_temperature(np.array([20.0]), np.array([-1.0]))

    def test_invalid_parameters(self):
        with pytest.raises(PVModelError):
            CellTemperatureModel(absorptivity=0.0)
        with pytest.raises(PVModelError):
            CellTemperatureModel(heat_exchange_coefficient=0.0)


class TestEmpiricalModuleModel:
    def test_stc_anchors(self):
        model = paper_module_model()
        power = model.power_at_cell_temperature(np.array([1000.0]), np.array([25.0]))
        voltage = voltage_at_cell_temperature(model, np.array([1000.0]), np.array([25.0]))
        assert power[0] == pytest.approx(165.0, rel=1e-6)
        assert voltage[0] == pytest.approx(PV_MF165EB3.v_mpp_ref, rel=1e-6)

    def test_power_proportional_to_irradiance(self):
        model = paper_module_model()
        power = model.power_at_cell_temperature(
            np.array([250.0, 500.0, 1000.0]), np.array([25.0] * 3)
        )
        assert power[1] / power[0] == pytest.approx(2.0)
        assert power[2] / power[1] == pytest.approx(2.0)

    def test_power_decreases_with_temperature(self):
        model = paper_module_model()
        cold = model.power_at_cell_temperature(np.array([1000.0]), np.array([10.0]))
        hot = model.power_at_cell_temperature(np.array([1000.0]), np.array([60.0]))
        assert hot[0] < cold[0]
        # -0.48 %/K over 50 K ~ -24 %
        assert hot[0] / cold[0] == pytest.approx(1 - 0.0048 * 50 / (1 + 0.0048 * 15), rel=0.02)

    def test_voltage_nearly_independent_of_irradiance(self):
        model = paper_module_model()
        voltage = voltage_at_cell_temperature(
            model, np.array([200.0, 1000.0]), np.array([25.0, 25.0])
        )
        assert abs(voltage[1] - voltage[0]) / voltage[1] < 0.12

    def test_current_is_power_over_voltage(self):
        model = paper_module_model()
        op = module_operating_point(model, np.array([800.0]), np.array([20.0]))
        assert op.current_a[0] == pytest.approx(op.power_w[0] / op.voltage_v[0])

    def test_dark_module_is_off(self):
        model = paper_module_model()
        op = module_operating_point(model, np.array([0.0]), np.array([20.0]))
        assert op.power_w[0] == 0.0
        assert op.voltage_v[0] == 0.0
        assert op.current_a[0] == 0.0

    def test_ambient_vs_cell_temperature_interface(self):
        model = paper_module_model()
        # With ambient input, the cell heats up by k*G and power drops.
        from_ambient = module_operating_point(model, np.array([1000.0]), np.array([25.0])).power_w
        at_cell = model.power_at_cell_temperature(np.array([1000.0]), np.array([25.0]))
        assert from_ambient[0] < at_cell[0]

    def test_normalized_characteristics_at_stc(self):
        model = paper_module_model()
        voc, isc, pmax = model.normalized_characteristics(np.array([1000.0]))
        assert voc[0] == pytest.approx(1.0, rel=1e-6)
        assert isc[0] == pytest.approx(1.0, rel=1e-6)
        assert pmax[0] == pytest.approx(1.0, rel=1e-6)

    def test_isc_proportional_voc_weakly_dependent(self):
        model = paper_module_model()
        voc, isc, _ = model.normalized_characteristics(np.array([200.0, 1000.0]))
        assert isc[1] / isc[0] == pytest.approx(5.0, rel=1e-6)
        assert 0.85 < voc[0] < 1.0

    def test_negative_irradiance_rejected(self):
        with pytest.raises(PVModelError):
            paper_module_model().power_at_cell_temperature(np.array([-10.0]), np.array([20.0]))

    def test_bad_voltage_fit_rejected(self):
        with pytest.raises(PVModelError):
            EmpiricalModuleModel(voltage_irradiance_intercept=0.5, voltage_irradiance_slope=0.0)


class TestSingleDiodeCell:
    def test_short_circuit_current_proportional_to_irradiance(self):
        cell = SingleDiodeCell()
        isc_full = cell.short_circuit_current(1000.0)
        isc_half = cell.short_circuit_current(500.0)
        assert isc_half == pytest.approx(isc_full / 2.0, rel=0.02)

    def test_voc_increases_with_irradiance_logarithmically(self):
        cell = SingleDiodeCell()
        voc_200 = cell.open_circuit_voltage(200.0)
        voc_1000 = cell.open_circuit_voltage(1000.0)
        assert voc_1000 > voc_200
        assert (voc_1000 - voc_200) < 0.2 * voc_1000

    def test_voc_decreases_with_temperature(self):
        cell = SingleDiodeCell()
        assert cell.open_circuit_voltage(1000.0, 60.0) < cell.open_circuit_voltage(1000.0, 25.0)

    def test_iv_curve_monotone_decreasing(self):
        cell = SingleDiodeCell()
        voltages, currents = cell.iv_curve(800.0, n_points=100)
        assert voltages.shape == currents.shape == (100,)
        assert np.all(np.diff(currents) <= 1e-6)

    def test_mpp_between_zero_and_voc(self):
        cell = SingleDiodeCell()
        v_mpp, i_mpp, p_mpp = cell.maximum_power_point(1000.0)
        assert 0 < v_mpp < cell.open_circuit_voltage(1000.0)
        assert p_mpp == pytest.approx(v_mpp * i_mpp)

    def test_dark_cell(self):
        cell = SingleDiodeCell()
        assert cell.open_circuit_voltage(0.0) == 0.0

    def test_reference_cell_matches_module_voc(self):
        cell = reference_cell_for_module(module_isc=7.36, module_voc=30.4, n_cells=50)
        assert cell.open_circuit_voltage(1000.0) * 50 == pytest.approx(30.4, rel=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(PVModelError):
            SingleDiodeCell(photocurrent_ref=-1.0)
        with pytest.raises(PVModelError):
            SingleDiodeCell(ideality_factor=5.0)


class TestTopologyAndArray:
    def test_topology_counts(self):
        topology = SeriesParallelTopology(n_series=8, n_parallel=4)
        assert topology.n_modules == 32
        assert topology.string_of(0) == 0
        assert topology.string_of(8) == 1
        assert topology.modules_of_string(3) == list(range(24, 32))

    def test_topology_validation(self):
        with pytest.raises(TopologyError):
            SeriesParallelTopology(n_series=0, n_parallel=1)
        with pytest.raises(TopologyError):
            SeriesParallelTopology(8, 2).string_of(16)
        with pytest.raises(TopologyError):
            SeriesParallelTopology.for_modules(10, 4)

    def test_for_modules(self):
        topology = SeriesParallelTopology.for_modules(32, 8)
        assert (topology.n_series, topology.n_parallel) == (8, 4)

    def test_uniform_conditions_no_mismatch(self):
        array = PVArray(SeriesParallelTopology(4, 2))
        irradiance = np.full(8, 800.0)
        point = operating_point_from_conditions(array, irradiance, 20.0)
        ideal = np.sum(module_operating_point(paper_module_model(), irradiance, 20.0).power_w)
        assert point.power_w == pytest.approx(ideal, rel=1e-9)

    def test_weak_module_bottlenecks_its_string(self):
        array = PVArray(SeriesParallelTopology(4, 2))
        irradiance = np.full(8, 800.0)
        irradiance[2] = 200.0  # one weak module in string 0
        point = operating_point_from_conditions(array, irradiance, 20.0)
        ideal = np.sum(module_operating_point(paper_module_model(), irradiance, 20.0).power_w)
        assert point.power_w < ideal
        # String 0 current is capped by the weak module, string 1 is not.
        assert point.string_currents_a[0] < point.string_currents_a[1]

    def test_concentrating_weakness_beats_spreading_it(self):
        """The paper's topology-aware argument: grouping weak modules in one
        string extracts more energy than spreading them across strings."""
        array = PVArray(SeriesParallelTopology(4, 2))
        spread = np.array([800.0, 800.0, 800.0, 300.0, 800.0, 800.0, 800.0, 300.0])
        grouped = np.array([800.0] * 4 + [300.0, 300.0, 800.0, 800.0])
        p_spread = float(operating_point_from_conditions(array, spread, 20.0).power_w)
        p_grouped = float(operating_point_from_conditions(array, grouped, 20.0).power_w)
        assert p_grouped > p_spread

    def test_mismatch_loss_fraction_bounds(self):
        array = PVArray(SeriesParallelTopology(4, 2))
        irradiance = np.linspace(300, 900, 8)
        loss = mismatch_loss_fraction(array, irradiance, 20.0)
        assert 0.0 <= float(loss) < 1.0

    def test_time_axis_broadcasting(self):
        array = PVArray(SeriesParallelTopology(2, 2))
        irradiance = np.random.default_rng(0).uniform(100, 900, size=(5, 4))
        ambient = np.full(5, 15.0)
        point = operating_point_from_conditions(array, irradiance, ambient)
        assert point.power_w.shape == (5,)
        assert point.string_currents_a.shape == (5, 2)

    def test_wrong_module_count_rejected(self):
        array = PVArray(SeriesParallelTopology(4, 2))
        with pytest.raises(TopologyError):
            operating_point_from_conditions(array, np.full(6, 500.0), 20.0)

    def test_aggregate_shape_mismatch(self):
        array = PVArray(SeriesParallelTopology(2, 2))
        with pytest.raises(TopologyError):
            array.aggregate(np.zeros(4), np.zeros(3))


class TestWiring:
    def test_compact_placement_has_zero_overhead(self):
        positions = [Point2D(0.0, 0.0), Point2D(0.8, 0.0), Point2D(1.6, 0.0)]
        assert string_extra_length(positions, WiringSpec(connector_length_m=1.0)) == 0.0

    def test_extra_length_is_manhattan_minus_connector(self):
        positions = [Point2D(0.0, 0.0), Point2D(3.0, 2.0)]
        extra = string_extra_length(positions, WiringSpec(connector_length_m=1.0))
        assert extra == pytest.approx(4.0)

    def test_single_module_string(self):
        assert string_extra_length([Point2D(0, 0)]) == 0.0

    def test_resistive_loss_paper_figure(self):
        # AWG10 at 4 A: ~0.112 W per metre of extra cable (paper Section V-C).
        loss = resistive_power_loss(1.0, 4.0, WiringSpec())
        assert loss == pytest.approx(0.112, rel=1e-6)

    def test_annual_energy_loss_scales_with_duty(self):
        full = annual_energy_loss_wh(10.0, 4.0, duty_factor=1.0)
        half = annual_energy_loss_wh(10.0, 4.0, duty_factor=0.5)
        assert half == pytest.approx(full / 2.0)

    def test_overhead_report(self):
        strings = [
            [Point2D(0, 0), Point2D(2.0, 0.0)],
            [Point2D(0, 2), Point2D(4.0, 2.0)],
        ]
        report = wiring_overhead_report(strings, current_a=4.0)
        assert report.total_extra_m == pytest.approx(1.0 + 3.0)
        assert report.extra_cost == pytest.approx(4.0)
        assert report.power_loss_w > 0

    def test_invalid_wiring_spec(self):
        with pytest.raises(PVModelError):
            WiringSpec(resistance_per_m=0.0)
        with pytest.raises(PVModelError):
            resistive_power_loss(-1.0, 4.0)

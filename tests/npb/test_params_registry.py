"""Tests of the problem-class parameters and the benchmark registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.variables import VariableKind
from repro.npb import params as params_mod
from repro.npb import registry
from repro.npb.params import params_for


class TestParamsFor:
    @pytest.mark.parametrize("name", registry.available_benchmarks())
    @pytest.mark.parametrize("cls", ["S", "T"])
    def test_every_benchmark_has_both_classes(self, name, cls):
        params = params_for(name, cls)
        assert params.problem_class == cls

    def test_unknown_benchmark_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            params_for("XX")

    def test_unknown_class_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown problem class"):
            params_for("BT", "Z")

    def test_lower_case_names_accepted(self):
        assert params_for("bt").u_shape == (12, 13, 13, 5)


class TestClassSShapes:
    """The class-S shapes must match the paper's Table I exactly."""

    def test_bt_sp_lu_solution_shape(self):
        for name in ("BT", "SP", "LU"):
            assert params_for(name).u_shape == (12, 13, 13, 5)

    def test_lu_scalar_field_shape(self):
        assert params_for("LU").scalar_field_shape == (12, 13, 13)

    def test_mg_flat_length_and_levels(self):
        params = params_for("MG")
        assert params.nr == 46480
        assert params.level_sizes() == [34, 18, 10, 6, 4]
        assert params.level_offsets()[0] == 0
        assert params.level_offsets()[1] == 34 ** 3
        assert params.used_elements == sum(n ** 3 for n in (34, 18, 10, 6, 4))
        assert params.used_elements <= params.nr

    def test_cg_lengths(self):
        params = params_for("CG")
        assert params.na == 1400
        assert params.x_len == 1402

    def test_ft_shape(self):
        params = params_for("FT")
        assert params.y_shape == (64, 64, 65)
        assert params.nz == 64

    def test_ep_batches(self):
        params = params_for("EP")
        assert params.n_batches == 2 ** (params.m - params.nk)

    def test_is_sizes(self):
        params = params_for("IS")
        assert params.total_keys == 65536
        assert params.num_buckets == 512


class TestRegistry:
    def test_available_benchmarks_order(self):
        assert registry.available_benchmarks() == (
            "BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")

    def test_create_is_case_insensitive(self):
        assert registry.create("bt", "T").name == "BT"

    def test_create_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="BT"):
            registry.create("nope")

    def test_iter_benchmarks_subset(self):
        names = [b.name for b in registry.iter_benchmarks("T", ["CG", "EP"])]
        assert names == ["CG", "EP"]

    def test_table1_rows_cover_all_benchmarks(self):
        rows = registry.table1_rows("T")
        assert [r.name for r in rows] == list(registry.available_benchmarks())
        for row in rows:
            assert row.declaration  # non-empty C-style declaration string

    def test_table1_class_s_declarations_match_paper(self):
        rows = {r.name: r.declaration for r in registry.table1_rows("S")}
        assert rows["BT"] == "double u[12][13][13][5], int step"
        assert rows["CG"] == "double x[1402], int it"
        assert "dcomplex y[64][64][65]" in rows["FT"]
        assert "int key_array[65536]" in rows["IS"]

    @pytest.mark.parametrize("name", registry.available_benchmarks())
    def test_every_benchmark_declares_one_main_loop_counter(self, name):
        bench = registry.create(name, "T")
        counters = [v for v in bench.checkpoint_variables()
                    if v.kind is VariableKind.INTEGER and v.is_scalar]
        assert len(counters) >= 1
        assert all(v.critical_by_rule for v in counters)

    @pytest.mark.parametrize("name", registry.available_benchmarks())
    def test_initial_state_matches_declared_variables(self, name):
        bench = registry.create(name, "T")
        state = bench.initial_state()
        for var in bench.checkpoint_variables():
            for key in var.state_keys():
                assert key in state
                if not var.is_scalar:
                    assert np.asarray(state[key]).shape == var.shape

    @pytest.mark.parametrize("problem_class", ["T", "S", "A"])
    def test_state_elements_match_the_built_port(self, problem_class):
        for name in registry.available_benchmarks():
            try:
                bench = registry.create(name, problem_class)
            except KeyError:
                continue
            assert registry.state_elements(name.lower(), problem_class) \
                == sum(int(np.prod(v.shape))
                       for v in bench.checkpoint_variables())

    def test_state_elements_rejects_what_create_rejects(self):
        with pytest.raises(KeyError, match="BT"):
            registry.state_elements("nope")
        with pytest.raises(KeyError):
            registry.state_elements("BT", "A")
        with pytest.raises(ValueError):
            registry.state_elements("BT", "Z")

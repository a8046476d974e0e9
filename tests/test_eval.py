"""Tests for the evaluation harness (Tables, Figures, sweep machinery)."""

import pytest

from repro.eval import (
    CONFIG_NAMES, Sweep, build_options, figure10_series, figure11_series,
    figure12_series, format_figure, format_table4, geomean, run_workload,
    table4_rows,
)
from repro.eval.related import (
    TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS, format_table1, format_table2,
    format_table3,
)
from repro.workloads import get


@pytest.fixture(scope="module")
def small_sweep():
    """A 3-benchmark sweep shared by the harness tests."""
    sweep = Sweep(scale=1, workloads=[get("treeadd"), get("health"),
                                      get("voronoi")])
    sweep.all_runs()
    return sweep


class TestConfigs:
    def test_all_config_names_build(self):
        for name in CONFIG_NAMES:
            options = build_options(name)
            assert options.instrument == (name != "baseline")

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            build_options("mystery")


class TestHarness:
    def test_run_workload(self):
        run = run_workload(get("yacr2"), "wrapped")
        assert run.instructions > 0 and run.cycles >= run.instructions

    def test_sweep_memoises(self, small_sweep):
        first = small_sweep.run(get("treeadd"), "baseline")
        second = small_sweep.run(get("treeadd"), "baseline")
        assert first is second

    def test_outputs_agree(self, small_sweep):
        small_sweep.verify_outputs_agree()


class TestTable4:
    def test_rows(self, small_sweep):
        rows = table4_rows(small_sweep)
        by_name = {r.benchmark: r for r in rows}
        assert by_name["treeadd"].heap_objects > 0
        assert by_name["treeadd"].heap_lt_pct == 0      # wrapper alloc
        assert by_name["treeadd"].subheap_ratio < 1.0   # pool speedup
        assert by_name["health"].heap_lt_pct > 0
        assert 0 < by_name["voronoi"].valid_promote_pct < 100

    def test_format(self, small_sweep):
        text = format_table4(table4_rows(small_sweep))
        assert "treeadd" in text and "subheap" in text


class TestFigures:
    def test_figure10(self, small_sweep):
        series = figure10_series(small_sweep)
        assert set(series) == {"subheap", "wrapped", "subheap-np",
                               "wrapped-np"}
        wrapped = dict(series["wrapped"])
        assert wrapped["health"] > 0    # instrumented costs cycles
        # no-promote must never be slower than the full build
        for name, overhead in series["wrapped-np"]:
            assert overhead <= wrapped[name] + 1e-9

    def test_figure11(self, small_sweep):
        series = figure11_series(small_sweep)
        promote = dict(series["wrapped/promote"])
        assert promote["health"] > 0
        arith = dict(series["wrapped/ifp-arith"])
        assert arith["treeadd"] > 0

    def test_figure12_exclusions(self, small_sweep):
        series = figure12_series(small_sweep, excluded=("voronoi",))
        names = {n for n, _v in series["subheap"]}
        assert "voronoi" not in names

    def test_format_figure(self, small_sweep):
        text = format_figure(figure10_series(small_sweep), "Fig 10")
        assert "geo-mean" in text and "%" in text

    def test_geomean(self):
        assert geomean([]) == 0.0
        assert geomean([0.21, 0.21]) == pytest.approx(0.21)
        assert geomean([-0.5, 1.0]) == pytest.approx(0.0, abs=1e-9)


class TestStaticTables:
    def test_table1_shape(self):
        assert len(TABLE1_ROWS) == 21
        ifp = TABLE1_ROWS[-1]
        assert ifp.defense == "In-Fat Pointer"
        assert ifp.granularity == "Subobject"
        assert ifp.tagged_pointer
        assert ifp.lost_compatibility == "" and ifp.required_feature == ""

    def test_only_ifp_is_tagged_subobject_compatible(self):
        """The paper's headline claim, checkable from Table 1 itself:
        In-Fat Pointer is the first *hardware* tagged-pointer scheme with
        subobject granularity and no compatibility loss (EffectiveSan is
        the software-sanitizer exception the paper discusses)."""
        winners = [r for r in TABLE1_ROWS
                   if r.granularity == "Subobject"
                   and not r.lost_compatibility and not r.required_feature
                   and r.tagged_pointer]
        assert {r.defense for r in winners} == {"In-Fat Pointer",
                                                "EffectiveSan"}
        hardware = [r.defense for r in winners if r.hardware]
        assert hardware == ["In-Fat Pointer"]

    def test_table2_matches_implementation(self):
        from repro.ifp import DEFAULT_CONFIG
        rows = {r.scheme: r for r in TABLE2_ROWS}
        local = rows["Local Offset Scheme"]
        assert local.limits_object_size \
            and DEFAULT_CONFIG.local_max_object == 1008
        table = rows["Global Table Scheme"]
        assert table.limits_object_count \
            and DEFAULT_CONFIG.global_table_rows == 4096
        subheap = rows["Subheap Scheme"]
        assert subheap.constrains_base_address  # power-of-two blocks

    def test_table3_matches_isa(self):
        from repro.compiler.ir import MNEMONICS
        implemented = set(MNEMONICS.values())
        for row in TABLE3_ROWS:
            assert row.mnemonic in implemented, row.mnemonic

    def test_formatters(self):
        assert "In-Fat Pointer" in format_table1()
        assert "Subheap" in format_table2()
        assert "promote" in format_table3()

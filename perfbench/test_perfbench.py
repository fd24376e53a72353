"""Self-tests of the benchmark itself (not of the package):

    python3 -m pytest perfbench -q
"""

import argparse

import numpy as np
import pytest

import bench_gate as gate
import bench_speed as speed
import bench_workloads as bw
import run
from bench_spans import SpanRecorder, Tracer


@pytest.fixture(scope="module")
def dp():
    return run.import_package()


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_generator_is_deterministic_by_seed(tmp_path, workload):
    def configs(seed, sub):
        items = bw.build_items(workload, seed, tmp_path / sub)
        texts = {p.name: p.read_text() for p in (tmp_path / sub).glob("*.cfg")}
        return [(i.name, i.argv[:1], i.scenario) for i in items], texts

    first, second = configs(7, "a"), configs(7, "b")
    assert first[0] == second[0]
    assert first[1] == second[1]
    other = configs(8, "c")
    assert [i[0] for i in other[0]] == [i[0] for i in first[0]]
    assert [i[2] for i in other[0]] != [i[2] for i in first[0]]


def test_item_quantiles():
    from scipy.stats.mstats import hdquantiles

    values = [float(v) ** 1.5 for v in range(1, 25)]
    p50, tail, pct = run.item_quantiles(values)
    assert pct == pytest.approx(100 * 14 / 24)  # ten items above rank 14
    assert p50 == pytest.approx(hdquantiles(values, prob=[0.5])[0], rel=1e-12)
    assert tail == pytest.approx(hdquantiles(values, prob=[14 / 24])[0], rel=1e-12)


def test_span_self_times_sum_to_traced_wall(tmp_path, dp):
    items = bw.build_items("trace", 3, tmp_path)[:3]
    items += bw.build_items("oracle", 3, tmp_path)[:3]
    original = dp.spectral.gamma0_analytic
    rec = SpanRecorder()
    tracer = Tracer(rec)
    assert tracer.calibrate(calls=2000) == rec.call_cost >= 0.0
    with tracer:
        assert not tracer.missing
        assert dp.spectral.gamma0_analytic is not original
    assert dp.spectral.gamma0_analytic is original
    passes = run.Passes(items)
    passes.run(dp, 0.0, tracer)
    assert dp.spectral.gamma0_analytic is original
    assert not passes.errors

    name, parent, start, end = rec.arrays()
    enter, leave = rec.covers()
    self_s = rec.self_times()
    assert rec.bookkeeping_s() > 0
    assert self_s.sum() + rec.bookkeeping_s() == pytest.approx(
        passes.traced_walls[0], rel=1e-12)
    # the calibrated call cost is an estimate; the measured intervals
    # alone never give a parent less time than its children's wrappers
    rec.call_cost = 0.0
    assert rec.self_times().min() >= -1e-9
    child = parent >= 0
    assert np.all(enter <= start) and np.all(end <= leave)
    assert np.all(enter[child] >= start[parent[child]])
    assert np.all(leave[child] <= end[parent[child]])
    # the traced runs wrote their own files; the untraced outputs remain
    for item in items:
        if item.out is not None:
            traced = item.out.with_suffix(".traced.csv")
            assert traced.read_bytes() == item.out.read_bytes()

    agg = rec.aggregate()
    for label in ("cli.main", "runner.run_trace", "pulses.ControlledDecoherence",
                  "dynamics.qdot_of_t", "qsl.cumulative_total_variation",
                  "quadrature.adaptive_panel_quad", "qsl.qslt_general"):
        assert agg[label]["calls"] > 0, label
    assert agg["runner.render_csv"]["rows"] > 0
    assert agg["pulses.ControlledDecoherence"]["pulse_terms"] > 0
    assert agg["quadrature.adaptive_panel_quad"]["points"] > 0


def test_item_times_are_normalized_by_the_kernel_runs_near_them():
    """An item's time is scaled by NOMINAL_S over the median time of the
    kernel batches right before and after it and of every kernel run
    within one item duration of it."""
    probe = speed.SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 2.1, 2.2, 5.5, 6.0]
    probe.took = [0.040, 0.010, 0.030, 0.020, 0.050, 0.001, 0.002]
    probe.batches = [(0, 1), (1, 2), (2, 5), (5, 7)]
    # a short item from 1.5 to 1.6 s: batches 1 and 2 only
    assert probe.normalized(1, 2, 1.5, 1.6) == pytest.approx(
        0.1 * speed.NOMINAL_S / 0.025, rel=1e-12)
    # a long item from 3 to 5 s: batches 2 and 3, and every run in [1, 7]
    assert probe.normalized(2, 3, 3.0, 5.0) == pytest.approx(
        2.0 * speed.NOMINAL_S / 0.015, rel=1e-12)


def test_passes_sample_the_kernel_around_every_item(tmp_path, dp):
    assert speed.kernel() == speed.kernel()  # fixed work
    items = bw.build_items("oracle", 3, tmp_path)[:3]
    passes = run.Passes(items)
    passes.run(dp, 0.0)
    assert not passes.errors
    extra = sum(int(t[0] / speed.EXTRA_EVERY_S) for t in passes.item_times)
    assert len(passes.probe.took) == 1 + len(items) + extra
    assert passes.norm_walls[0] == pytest.approx(
        sum(t[0] for t in passes.item_norm_times), rel=1e-12)


def _flip_digit(text, column_name, row=0):
    """Change the 5th significant digit of one value in a column."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column_name)
    cells = lines[header + 1 + row].split(",")
    value = cells[col]
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    first = next(i for i in digits if value[i] != "0")
    pos = [i for i in digits if i >= first][4]
    cells[col] = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# sweep at the default seed is also held to the reference; trace at
# another seed has only the seed-independent checks
@pytest.mark.parametrize("workload, seed, item_name, column_name, row", [
    ("sweep", run.DEFAULT_SEED, "sweep00/n1", "Q11", 0),
    ("sweep", run.DEFAULT_SEED, "sweep00/n1", "qslt_ratio", 0),
    ("trace", 3, "trace00/Q00/n10/singlet/running", "Q10", 1001),
    ("trace", 3, "trace00/Q00/n10/singlet/running", "Q00", 1001),
])
def test_flipped_digit_makes_failed_ratio_positive(
        tmp_path, dp, workload, seed, item_name, column_name, row):
    items = [i for i in bw.build_items(workload, seed, tmp_path)
             if i.name == item_name]
    args = argparse.Namespace(workload=workload, seed=seed)
    passes = run.Passes(items)
    passes.run(dp, 0.0)

    failed = run.gate_items(dp, args, items, passes)
    assert failed == {}

    out = items[0].out
    out.write_text(_flip_digit(out.read_text(), column_name, row))
    failed = run.gate_items(dp, args, items, passes)
    assert set(failed) == {item_name}
    attempted = len(items) * len(passes.walls)
    assert len(failed) * len(passes.walls) / attempted > 0


def test_reference_view_keeps_layout():
    text = "# h\na,b\n" + "".join(f"{i},{i}\n" for i in range(25)) + "# note\n"
    view = gate.reference_view(text, stride=10)
    assert view.splitlines()[:2] == ["# h", "a,b"]
    assert view.splitlines()[-1] == "# note"
    assert [r.split(",")[0] for r in view.splitlines()[2:-1]] == ["0", "10", "20", "24"]

import inspect
import io
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import (
    AnalysisError,
    PairChoice,
    PairEstimate,
    QuantumWorld,
    SeededGenerator,
    TableModel,
    TrialLog,
    TrialRecord,
    estimate_pairs,
    evaluate_lg,
    maximize_violation,
    quantum_lhs,
    run_experiment,
    stabilization,
)
from lglab import analysis, triallog
from lglab.analysis import VIOLATION_ARGMAX_ORBIT, LogFold, _bootstrap_lhs_std_error
from lglab.hidden_vars import (
    RotorModel,
    conspiracy_from_quantum,
    deterministic_strategy_values,
    expectation_exact,
    random_table_model,
)
from lglab import cli
from lglab.jsonutil import dump_stable, dumps_stable, format_float

from conftest import BAD_CODES, log_with


def records_from_products(products_by_pair):
    """A log of hand-built trial records with prescribed products per pair."""
    records = []
    i = 0
    for pair, products in products_by_pair.items():
        for p in products:
            records.append(TrialRecord(i, pair, 1, p, None, "test"))
            i += 1
    return TrialLog.from_records(records)


# -- estimate_pairs -----------------------------------------------------------


def test_all_plus_products_pin_the_mean():
    recs = records_from_products(
        {PairChoice.P12: [1] * 50, PairChoice.P13: [1] * 50, PairChoice.P23: [1] * 50}
    )
    for est in estimate_pairs(recs):
        assert est.mean == 1.0
        assert est.std_error == 0.0


def test_even_split_gives_inverse_sqrt_n_error():
    recs = records_from_products(
        {
            PairChoice.P12: [1, -1] * 50,
            PairChoice.P13: [1, -1] * 50,
            PairChoice.P23: [1, -1] * 50,
        }
    )
    for est in estimate_pairs(recs):
        assert est.mean == 0.0
        assert est.std_error == pytest.approx(1 / math.sqrt(100), abs=1e-15)


def test_std_error_formula_holds():
    recs = records_from_products(
        {
            PairChoice.P12: [1] * 75 + [-1] * 25,
            PairChoice.P13: [1] * 10 + [-1] * 30,
            PairChoice.P23: [1] * 5 + [-1] * 5,
        }
    )
    for est in estimate_pairs(recs):
        assert est.std_error == pytest.approx(
            math.sqrt((1 - est.mean**2) / est.n), abs=1e-15
        )
        assert abs(est.mean) <= 1.0


def test_undersampled_pair_is_named():
    recs = records_from_products(
        {PairChoice.P12: [1, 1], PairChoice.P13: [1], PairChoice.P23: [1, 1]}
    )
    with pytest.raises(AnalysisError, match="13"):
        estimate_pairs(recs)


def test_estimates_converge_to_exact_table_expectations(spacelike_geometry, magic_binding):
    model = TableModel([(0.3, (1, 1, -1)), (0.3, (-1, 1, 1)), (0.4, (1, -1, 1))])
    log = run_experiment(magic_binding, model, 100_000, 31, spacelike_geometry)
    estimates = estimate_pairs(log)
    for est in estimates:
        exact = expectation_exact(model, est.pair)
        assert abs(est.mean - exact) < 5 * math.sqrt((1 - exact**2) / est.n)


# -- evaluate_lg -----------------------------------------------------------------


def exact_estimates(m12, m13, m23, n=1_000_000):
    return (
        PairEstimate(PairChoice.P12, n, m12, math.sqrt((1 - m12**2) / n)),
        PairEstimate(PairChoice.P13, n, m13, math.sqrt((1 - m13**2) / n)),
        PairEstimate(PairChoice.P23, n, m23, math.sqrt((1 - m23**2) / n)),
    )


def test_quantum_values_violate():
    report = evaluate_lg(exact_estimates(0.5, -0.5, 0.5), significance=3.0)
    assert report.lhs == pytest.approx(1.5, abs=1e-15)
    assert report.violated
    assert report.z_score > 100
    assert report.se_method == "propagation"
    assert abs(report.recomputed_lhs() - report.lhs) < 1e-12


def test_saturated_estimates_do_not_violate():
    report = evaluate_lg(exact_estimates(1.0, 1.0, 1.0))
    assert report.lhs == 1.0
    assert not report.violated
    assert report.z_score <= 0.0


def test_deterministic_strategies_sit_exactly_on_the_bound():
    for (s1, s2, s3), _ in deterministic_strategy_values():
        report = evaluate_lg(exact_estimates(s1 * s2, s1 * s3, s2 * s3))
        assert report.lhs == 1.0
        assert not report.violated


def test_missing_pair_is_named():
    e = exact_estimates(0.5, -0.5, 0.5)
    with pytest.raises(AnalysisError, match="23"):
        evaluate_lg((e[0], e[1], e[0]))


def test_degenerate_difference_triggers_bootstrap():
    # means of the 12 and 13 pairs coincide, so the |.| kink sits at zero and
    # plain propagation is replaced by the bootstrap
    report = evaluate_lg(exact_estimates(0.3, 0.3, 0.2, n=10_000))
    assert report.degenerate
    assert report.se_method == "bootstrap"
    assert report.lhs_std_error > 0.0
    # bootstrap must be deterministic given the seed
    again = evaluate_lg(exact_estimates(0.3, 0.3, 0.2, n=10_000))
    assert again.lhs_std_error == report.lhs_std_error
    assert report.config_echo == {"significance": 3.0, "bootstrap_seed": 0, "n_resamples": 10_000}
    seeded = [_bootstrap_lhs_std_error(exact_estimates(0.3, 0.3, 0.2, n=10_000), seed, 10_000) for seed in (0, 9)]
    assert seeded[0] == report.lhs_std_error
    assert seeded[1] != report.lhs_std_error


def test_pinned_settings_are_constants_not_parameters():
    # the bootstrap seed and size, the JSON indent and the mixture count each
    # take one value, which the report and `lglab bound` echo
    assert list(inspect.signature(evaluate_lg).parameters) == ["estimates", "significance"]
    assert list(inspect.signature(dumps_stable).parameters) == ["obj"]
    assert list(inspect.signature(dump_stable).parameters) == ["obj", "file"]
    assert list(inspect.signature(cli.cmd_bound).parameters) == []


def test_bootstrap_error_tracks_propagation_scale():
    # away from the kink both methods should agree on the error scale, which
    # justifies swapping one in for the other
    ests = exact_estimates(0.5, -0.5, 0.5, n=100_000)
    prop = evaluate_lg(ests)
    boot_se = evaluate_lg(
        exact_estimates(0.5, 0.5, 0.5, n=100_000)  # degenerate variant, same se scale
    ).lhs_std_error
    assert prop.se_method == "propagation"
    assert 0.3 < boot_se / prop.lhs_std_error < 3.0


def test_unconditioned_models_never_violate_significantly(magic_binding, spacelike_geometry):
    # property: estimated lhs <= 1 + 5*se for logs from any unconditioned model
    gen = SeededGenerator(1000)
    for k in range(100):
        model = random_table_model(gen)
        log = run_experiment(magic_binding, model, 10_000, 5000 + k, spacelike_geometry)
        report = evaluate_lg(estimate_pairs(log))
        assert report.lhs <= 1.0 + 5.0 * report.lhs_std_error
        assert not report.violated
        # recomputation invariant: stored lhs matches the stored estimates
        assert abs(report.recomputed_lhs() - report.lhs) < 1e-12


# -- quantum_lhs and the optimizer ----------------------------------------------


def test_quantum_lhs_values():
    assert abs(quantum_lhs(math.pi / 6, math.pi / 6) - 1.5) < 1e-15
    assert quantum_lhs(0.0, 0.0) == 1.0
    assert quantum_lhs(math.pi / 4, math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert quantum_lhs(math.pi / 4, math.pi / 8) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_quantum_lhs_never_exceeds_three_halves():
    alphas = np.linspace(0, math.pi, 1500, endpoint=False)
    betas = np.linspace(0, math.pi, 1500, endpoint=False)
    a, b = np.meshgrid(alphas, betas, indexing="ij")
    values = np.abs(np.cos(2 * a) - np.cos(2 * (a + b))) + np.cos(2 * b)
    assert float(values.max()) <= 1.5 + 1e-9


def test_no_violation_on_the_degenerate_line():
    # theta_bc = 0 collapses the lhs to |cos - cos| + 1 = 1 everywhere
    for alpha in np.linspace(0, math.pi, 100, endpoint=False):
        assert quantum_lhs(float(alpha), 0.0) == 1.0


def test_optimizer_finds_the_maximum():
    theta_ab, theta_bc, lhs = maximize_violation()
    assert abs(lhs - 1.5) < 1e-6
    closest = min(
        math.hypot(theta_ab - a, theta_bc - b) for a, b in VIOLATION_ARGMAX_ORBIT
    )
    assert closest < 1e-4


def test_optimizer_grid_only_resolution():
    # refinement disabled by setting the tolerance at the grid step
    _, _, lhs = maximize_violation(math.pi / 64, refine_tolerance=math.pi / 64)
    assert abs(lhs - 1.5) < 0.01


def test_optimizer_validates_arguments():
    with pytest.raises(ValueError):
        maximize_violation(grid_step=0.1)  # > pi/64
    with pytest.raises(ValueError):
        maximize_violation(grid_step=-0.01)
    with pytest.raises(ValueError):
        maximize_violation(refine_tolerance=0.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_optimizer_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError, match="refine tolerance"):
        maximize_violation(refine_tolerance=tolerance)


# -- stabilization ----------------------------------------------------------------


def test_constant_products_stabilize_at_first_checkpoint():
    recs = records_from_products(
        {PairChoice.P12: [1] * 500, PairChoice.P13: [1] * 500, PairChoice.P23: [1] * 500}
    )
    report = stabilization(recs, epsilon=0.01, checkpoint_stride=100)
    for p in report.pairs:
        assert p.stabilized
        assert p.n_star == 100
        assert p.final_mean == 1.0
        assert p.checkpoints[0] == (100, 1.0)


def test_huge_epsilon_stabilizes_immediately():
    rng = np.random.default_rng(3)
    recs = records_from_products(
        {pair: list(rng.choice([-1, 1], 1000)) for pair in PairChoice}
    )
    report = stabilization(recs, epsilon=2.0, checkpoint_stride=50)
    for p in report.pairs:
        assert p.n_star == 50


def test_empty_pair_flagged_not_stabilized():
    recs = records_from_products(
        {PairChoice.P12: [1] * 100, PairChoice.P13: [1] * 100, PairChoice.P23: []}
    )
    report = stabilization(recs, epsilon=0.01, checkpoint_stride=10)
    by_pair = {p.pair: p for p in report.pairs}
    assert not by_pair[PairChoice.P23].stabilized
    assert by_pair[PairChoice.P23].n_star is None
    assert by_pair[PairChoice.P12].stabilized


def test_final_checkpoint_is_included():
    recs = records_from_products(
        {PairChoice.P12: [1] * 123, PairChoice.P13: [1] * 123, PairChoice.P23: [1] * 123}
    )
    report = stabilization(recs, epsilon=0.5, checkpoint_stride=50)
    for p in report.pairs:
        assert p.checkpoints[-1][0] == 123


def test_quantum_run_stabilizes(magic_binding, spacelike_geometry):
    log = run_experiment(magic_binding, QuantumWorld(), 1_000_000, 42, spacelike_geometry)
    report = stabilization(log, epsilon=0.01, checkpoint_stride=1000)
    for p in report.pairs:
        assert p.stabilized
        assert p.n_star <= 100_000


@pytest.mark.parametrize("column, value, dtype, refusal", BAD_CODES)
def test_estimate_pairs_refuses_a_pair_code_outside_0_to_2(column, value, dtype, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        estimate_pairs(log_with(column, value, dtype))


@pytest.mark.parametrize("column, value, dtype, refusal", BAD_CODES)
def test_stabilization_refuses_a_pair_code_outside_0_to_2(column, value, dtype, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        stabilization(log_with(column, value, dtype), checkpoint_stride=1)


@pytest.mark.parametrize(
    "column, value, dtype, refusal", [("pair_codes", 3, np.uint8, "pair code 3"), ("s_second", 0, np.int8, "outcome 0")]
)
@pytest.mark.parametrize("stride", [None, 1, 4])
def test_a_chunk_with_a_bad_pair_code_is_named_by_run_index_and_not_folded(stride, column, value, dtype, refusal):
    fold = LogFold(stride).add(log_with("pair_codes", 0, np.uint8))
    before = [list(c) for c in fold.counts], fold.stabilization() if stride else None
    with pytest.raises(ValueError, match=f"^{refusal} at trial 15 "):
        fold.add(log_with(column, value, dtype, first_index=10))
    assert ([list(c) for c in fold.counts], fold.stabilization() if stride else None) == before


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    present=st.sets(st.integers(0, 2), min_size=1),
    cuts=st.lists(st.integers(0, 300), max_size=8),
    stride=st.none() | st.integers(1, 5),
)
@example(seed=0, n=3, present={0}, cuts=[0, 3], stride=1)
def test_fold_counts_equal_a_bincount_over_any_chunk_split(seed, n, present, cuts, stride):
    # logs that lack a pair, and small chunks, give chunks in which a pair is
    # absent; a cut at 0, at n or repeated gives an empty chunk, which folds
    rng = np.random.default_rng(seed)
    codes = rng.choice(np.array(sorted(present), dtype=np.uint8), n)
    s_first, s_second = (rng.choice(np.array([-1, 1], dtype=np.int8), n) for _ in range(2))
    edges = sorted([0, n, *(c for c in cuts if c <= n)])
    chunks = [
        TrialLog(codes[lo:hi], s_first[lo:hi], s_second[lo:hi], None, "test", lo) for lo, hi in zip(edges, edges[1:])
    ]
    keys = codes.astype(np.intp) * 2 + (s_first == s_second)
    assert LogFold.over(chunks, stride).counts == np.bincount(keys, minlength=6).reshape(3, 2).tolist()


# -- checkpoint marks: packed words against np.compress -------------------------


def _marks(fold):
    """Each pair's checkpoint counts and means so far, as two arrays."""
    return [tuple(np.concatenate(part) for part in marks) for marks in fold._marks]


def _folds_agree(a, b):
    assert a.counts == b.counts
    for (counts_a, means_a), (counts_b, means_b) in zip(_marks(a), _marks(b)):
        assert counts_a.dtype == counts_b.dtype and np.array_equal(counts_a, counts_b)
        assert means_a.dtype == means_b.dtype and np.array_equal(means_a, means_b)
    assert a.stabilization() == b.stabilization()


def _fold_by(path, chunks, stride):
    """The fold of chunks with every chunk's marks found one way:
    "packed" (rank and select) or "compress" (np.compress)."""
    rows, least_stride = {"packed": (0, 1), "compress": (1 << 64, 1 << 64)}[path]
    with mock.patch.multiple(analysis, _PACKED_ROWS=rows, _PACKED_STRIDE=least_stride):
        return LogFold.over(chunks, stride)


def _random_log(rng, n, first_index=0, codes=(0, 1, 2), p_same=0.5):
    return TrialLog(
        rng.choice(np.array(codes, dtype=np.uint8), n),
        np.ones(n, dtype=np.int8),
        np.where(rng.random(n) < p_same, 1, -1).astype(np.int8),
        None,
        "test",
        first_index,
    )


def test_engine_worlds_fold_alike_as_packed_chunks_and_as_short_compressed_ones(magic_binding, spacelike_geometry):
    worlds = [
        QuantumWorld(policy="fresh_uniform"),
        TableModel([(0.5, (1, 1, 1)), (0.5, (1, 1, -1))]),
        RotorModel(magic_binding.directions),
        conspiracy_from_quantum(magic_binding.a, magic_binding.b, magic_binding.c),
    ]
    taken = {"packed": 0, "compress": 0}
    packed, compress = LogFold._checkpoint_packed, LogFold._checkpoint

    def counting(path, method):
        def call(self, *args):
            taken[path] += 1
            return method(self, *args)

        return call

    with mock.patch.multiple(
        LogFold, _checkpoint_packed=counting("packed", packed), _checkpoint=counting("compress", compress)
    ):
        for seed, world in enumerate(worlds):
            log = run_experiment(magic_binding, world, 300_001, seed, spacelike_geometry)
            # the log's own chunks are 2^16 rows, beyond the packed path's least length
            as_run = LogFold.over(log.chunks(), 1000)
            short = LogFold.over((triallog._rows(log, lo, lo + 10_000) for lo in range(0, len(log), 10_000)), 1000)
            _folds_agree(as_run, short)
            assert as_run.stabilization() == stabilization(log)
    # both folds of a run's own chunks pack all 5, the 37,857-row tail too,
    # and each of its 31 short chunks compresses its three pairs
    assert taken == {"packed": 4 * 2 * 5, "compress": 4 * 31 * 3}


@pytest.mark.parametrize("stride", [1, 63, 255, 256, 257, 999, 1000, 4096, 10**6])
@pytest.mark.parametrize("n", [2**14 - 1, 2**14, 2**14 + 1, 65_535, 65_536, 65_537, 300_001])
def test_packed_marks_equal_compressed_marks(n, stride):
    rng = np.random.default_rng(n * 7 + stride)
    prefix = _random_log(rng, 777)
    chunks = [prefix, _random_log(rng, n, len(prefix))]
    _folds_agree(_fold_by("packed", chunks, stride), _fold_by("compress", chunks, stride))
    # with the module's own thresholds, whichever path a chunk takes
    _folds_agree(LogFold.over(chunks, stride), _fold_by("compress", chunks, stride))


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 3000),
    n=st.integers(0, 3000),
    stride=st.integers(1, 700),
    codes=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    p_same=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_packed_marks_equal_compressed_marks_after_any_prefix(seed, prefix, n, stride, codes, p_same):
    # the prefix puts the next mark of each pair at any offset into the
    # chunk, and a repeated or missing code makes a pair dense, rare or absent
    rng = np.random.default_rng(seed)
    chunks = [_random_log(rng, prefix, 0, codes, p_same), _random_log(rng, n, prefix, codes, p_same)]
    _folds_agree(_fold_by("packed", chunks, stride), _fold_by("compress", chunks, stride))


def test_stabilization_validates_arguments():
    recs = records_from_products({pair: [1, 1] for pair in PairChoice})
    with pytest.raises(ValueError):
        stabilization(recs, epsilon=0.0)
    with pytest.raises(ValueError):
        stabilization(recs, epsilon=0.1, checkpoint_stride=0)


@pytest.mark.parametrize("stride", [1.5, 2.0, True])
def test_stabilization_refuses_a_checkpoint_stride_that_is_not_an_integer(stride):
    recs = records_from_products({pair: [1, 1] for pair in PairChoice})
    with pytest.raises(ValueError, match="checkpoint_stride"):
        stabilization(recs, 0.01, stride)
    with pytest.raises(ValueError, match="checkpoint_stride"):
        LogFold(stride)


@pytest.mark.parametrize("significance", [math.nan, math.inf, -math.inf])
def test_evaluate_lg_refuses_a_non_finite_significance(significance):
    with pytest.raises(ValueError, match="significance"):
        evaluate_lg(exact_estimates(0.5, -0.5, 0.5), significance)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_stabilization_rejects_non_finite_epsilon(epsilon):
    recs = records_from_products({pair: [1, 1] for pair in PairChoice})
    with pytest.raises(ValueError, match="epsilon"):
        stabilization(recs, epsilon=epsilon)


# a bool is refused as LogFold(checkpoint_stride=True) and run_chunks(n_trials=True) are
NOT_REAL = [True, False, "3", None, [1.0], 10**400]


@pytest.mark.parametrize("significance", NOT_REAL)
def test_evaluate_lg_refuses_a_significance_that_is_not_a_finite_real_number(significance):
    with pytest.raises(ValueError, match="^significance must be a finite real number"):
        evaluate_lg(exact_estimates(0.5, -0.5, 0.5), significance)


@pytest.mark.parametrize("significance", [3, np.float32(3.0), np.int64(3)])
def test_evaluate_lg_takes_any_real_significance(significance):
    report = evaluate_lg(exact_estimates(0.5, -0.5, 0.5), significance)
    assert report.config_echo["significance"] == significance


@pytest.mark.parametrize("epsilon", NOT_REAL)
def test_stabilization_refuses_an_epsilon_that_is_not_a_finite_real_number(epsilon):
    recs = records_from_products({pair: [1, 1] for pair in PairChoice})
    with pytest.raises(ValueError, match="^epsilon must be a finite real number > 0"):
        stabilization(recs, epsilon=epsilon)
    with pytest.raises(ValueError, match="^epsilon must be a finite real number > 0"):
        LogFold.over(recs.chunks(), 10).stabilization(epsilon)


# -- JSON emission ------------------------------------------------------------------


def test_float_formatting_is_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.5) == "1.5"
    assert format_float(42.0) == "42.0"
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"


def test_json_round_trips_floats_exactly():
    values = [0.1, 1 / 3, math.pi, 1e-300, 6.5e120, -0.4999999999999998]
    text = dumps_stable({"values": values})
    assert json.loads(text)["values"] == values


@given(values=st.lists(st.floats(), min_size=1, max_size=20))
def test_json_gives_back_every_float(values):
    # finite floats bit for bit (-0.0 too); inf and nan as Infinity and NaN
    text = dumps_stable({"values": values, "nested": [{"x": v} for v in values]})
    parsed = json.loads(text)
    for got in (parsed["values"], [d["x"] for d in parsed["nested"]]):
        for v, g in zip(values, got, strict=True):
            assert isinstance(g, float)
            if math.isnan(v):
                assert math.isnan(g)
            else:
                assert struct.pack("<d", g) == struct.pack("<d", v)


def test_json_field_order_is_stable():
    a = dumps_stable({"b": 1, "a": 2})
    b = dumps_stable({"b": 1, "a": 2})
    assert a == b
    assert a.index('"b"') < a.index('"a"')


def test_json_writes_every_report_value_and_refuses_the_rest():
    report = {
        "none": None,
        "empty_dict": {},
        "empty_list": [],
        "flags": (True, False),
        "numpy": {"int": np.int64(-7), "float": np.float32(0.5), "array": np.array([1.5, -2.0])},
        "non_finite": [math.inf, -math.inf, math.nan],
        # more pieces than dump_stable holds before it writes them
        "checkpoints": [[k, k / 8] for k in range(3000)],
    }
    text = dumps_stable(report)
    parsed = json.loads(text)
    assert math.isnan(parsed["non_finite"].pop())
    assert parsed == {
        "none": None,
        "empty_dict": {},
        "empty_list": [],
        "flags": [True, False],
        "numpy": {"int": -7, "float": 0.5, "array": [1.5, -2.0]},
        "non_finite": [math.inf, -math.inf],
        "checkpoints": [[k, k / 8] for k in range(3000)],
    }
    out = io.StringIO()
    dump_stable(report, out)
    assert out.getvalue() == text
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps_stable({1: 2})
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_stable({"pairs": {"12"}})


def test_report_serialization_round_trip(magic_binding, spacelike_geometry):
    log = run_experiment(magic_binding, QuantumWorld(), 50_000, 2, spacelike_geometry)
    report = evaluate_lg(estimate_pairs(log))
    blob = dumps_stable(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["lhs"] == report.lhs
    assert parsed["violated"] is True
    assert [e["pair"] for e in parsed["estimates"]] == ["12", "13", "23"]
    stab = stabilization(log)
    parsed_stab = json.loads(dumps_stable(stab.to_json_dict()))
    assert set(parsed_stab["pairs"]) == {"12", "13", "23"}

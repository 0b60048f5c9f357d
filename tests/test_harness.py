import json
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrtest import fine, harness, quantum
from mrtest.cli import main
from mrtest.conditions import mr_int, mr_strong, mr_weak, nsit_pairwise
from mrtest.errors import InputFormatError, ValidationError
from mrtest.fine import d_interval
from mrtest.harness import (
    SweepSpec,
    default_model_path,
    haar_unitary,
    load_model,
    load_moments,
    load_sweep_spec,
    model_from_jsonable,
    model_to_jsonable,
    run_campaign,
    sample_model,
    simulate,
    sweep_blocks,
    sweep_csv_lines,
    write_sweep_csv,
)
from mrtest.measurement import MomentSet, ProbabilityTable, measure_all, outcomes, pair_set, witness
from mrtest.quantum import QuantumModel, _validate

import conftest
from conftest import (
    apply_parameter, assert_same_summary, at_time, check_by_check_campaign, complex_gaussian, csv_reference,
    csv_rows_reference, precession_model, reference_campaign, reference_model, weight,
)


class TestModelJson:
    def test_round_trip(self, mixed_qubit):
        back = model_from_jsonable(model_to_jsonable(mixed_qubit))
        assert np.array_equal(back.hamiltonian, mixed_qubit.hamiltonian)
        assert np.array_equal(back.rho, mixed_qubit.rho)
        assert np.array_equal(back.observable, mixed_qubit.observable)
        assert back.times == mixed_qubit.times

    def test_bundled_default_model(self):
        model = load_model(default_model_path())
        assert model.dim == 2
        assert model.times == (0.0, 1.0, 2.0)
        # maximally mixed: both single-time outcomes even
        t = measure_all(model).singles[1]
        assert weight(t, (+1,)) == pytest.approx(0.5, abs=1e-14)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"dim": 2, "times": [0, 1]}))
        with pytest.raises(InputFormatError, match="missing fields"):
            load_model(p)

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"dim": 2,\n  "oops"\n}')
        with pytest.raises(InputFormatError, match=r"line \d+, column \d+"):
            load_model(p)

    def test_entry_must_be_pair(self, tmp_path, mixed_qubit):
        obj = model_to_jsonable(mixed_qubit)
        obj["rho"][0][0] = 0.5
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(InputFormatError, match=r"rho\[0\]\[0\]"):
            load_model(p)

    def test_invariant_violation_is_named(self, tmp_path, mixed_qubit):
        obj = model_to_jsonable(mixed_qubit)
        obj["rho"][0][0] = [0.9, 0.0]  # trace 1.4
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="trace"):
            load_model(p)


class TestMomentsJson:
    def test_load(self, tmp_path):
        p = tmp_path / "mom.json"
        p.write_text(json.dumps({
            "n": 3, "avg": [0.0, 0.0, 0.0],
            "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.5, 0.5, -0.5], "D": None,
        }))
        m = load_moments(p)
        assert m.corr(0, 2) == -0.5

    def test_missing_pair_listed(self, tmp_path):
        p = tmp_path / "mom.json"
        p.write_text(json.dumps({
            "n": 3, "avg": [0.0, 0.0, 0.0],
            "pairs": [[1, 2], [2, 3]], "corr": [0.5, 0.5], "D": None,
        }))
        with pytest.raises(ValidationError, match="C13"):
            load_moments(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "mom.json"
        p.write_text(json.dumps({"n": 3, "avg": [0, 0, 0]}))
        with pytest.raises(InputFormatError, match="pairs"):
            load_moments(p)


class TestSimulate:
    def test_commuting_contextual_equals_base(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        m = QuantumModel(hamiltonian=0.7 * sz, rho=np.diag([0.6, 0.4]).astype(complex),
                         observable=sz, times=(0.0, 1.0, 2.0))
        out = simulate(m)
        base = out["contextual"]["base"]
        ctx = out["contextual"]["contextual"]
        assert ctx["Q2^(1)"] == pytest.approx(base["avg"][1], abs=1e-14)
        assert ctx["C23^(1)"] == pytest.approx(base["corr"][1], abs=1e-14)

    def test_third_turn_correlators(self):
        out = simulate(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3)))
        assert out["moments"]["corr"] == pytest.approx([0.5, 0.5, -0.5], abs=1e-12)

    def test_dim3_dichotomic_observable_valid(self):
        q = np.diag([1.0, 1.0, -1.0]).astype(complex)
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        h[0, 1] = h[1, 0] = 0.3
        m = QuantumModel(hamiltonian=h, rho=np.eye(3, dtype=complex) / 3,
                         observable=q, times=(0.0, 1.0, 2.0))
        out = simulate(m)
        for group in out["tables"].values():
            for table in group.values():
                assert sum(table["weights"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_four_time_layout(self):
        out = simulate(precession_model(times=(0.0, 1.0, 2.0, 3.0)))
        assert out["contextual"] is None
        assert set(out["tables"]["sequential"]) == {"12", "23", "34", "14", "1234"}
        assert set(out["tables"]["quasi"]) == {"12", "23", "34", "14"}


class TestSweepSpec:
    def test_unknown_output_rejected_before_running(self, mixed_qubit):
        with pytest.raises(InputFormatError, match="unknown output"):
            SweepSpec(model=mixed_qubit, parameter="tau", start=0.0, stop=1.0,
                      steps=10, outputs=("margins", "bogus"))

    def test_unknown_parameter(self, mixed_qubit):
        with pytest.raises(InputFormatError, match="unknown parameter"):
            SweepSpec(model=mixed_qubit, parameter="t9", start=0.0, stop=1.0,
                      steps=10, outputs=("margins",))

    def test_bad_range_and_steps(self, mixed_qubit):
        with pytest.raises(InputFormatError, match="from < to"):
            SweepSpec(model=mixed_qubit, parameter="tau", start=1.0, stop=1.0,
                      steps=10, outputs=("margins",))
        with pytest.raises(InputFormatError, match="steps"):
            SweepSpec(model=mixed_qubit, parameter="tau", start=0.0, stop=1.0,
                      steps=1, outputs=("margins",))

    def test_negative_tau_start_rejected(self, mixed_qubit):
        with pytest.raises(InputFormatError, match="tau"):
            SweepSpec(model=mixed_qubit, parameter="tau", start=-0.5, stop=1.0,
                      steps=10, outputs=("margins",))

    def test_spec_file_round_trip(self, tmp_path, mixed_qubit):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "model": model_to_jsonable(mixed_qubit),
            "parameter": "tau", "from": 0.0, "to": 2.0, "steps": 5,
            "outputs": ["correlators", "verdicts"],
        }))
        spec = load_sweep_spec(p)
        assert spec.steps == 5
        assert spec.outputs == ("correlators", "verdicts")


class TestApplyParameter:
    def test_tau_builds_equal_gaps(self, mixed_qubit):
        m = apply_parameter(mixed_qubit, "tau", 0.5)
        assert m.times == (0.0, 0.5, 1.0)

    def test_tau_zero_collapses_times(self, mixed_qubit):
        m = apply_parameter(mixed_qubit, "tau", 0.0)
        assert m.times == (0.0, 0.0, 0.0)
        # repeated-measurement limit: chain concentrates on equal outcomes
        t = measure_all(m).chain
        assert weight(t, (+1, +1, +1)) == pytest.approx(0.5, abs=1e-14)
        assert weight(t, (-1, -1, -1)) == pytest.approx(0.5, abs=1e-14)

    def test_t2_and_t3(self, mixed_qubit):
        assert apply_parameter(mixed_qubit, "t2", 1.5).times == (0.0, 1.5, 2.0)
        assert apply_parameter(mixed_qubit, "t3", 3.0).times == (0.0, 1.0, 3.0)

    def test_omega_scales_hamiltonian(self, mixed_qubit):
        m = apply_parameter(mixed_qubit, "omega", 2.0)
        assert np.array_equal(m.hamiltonian, 2.0 * mixed_qubit.hamiltonian)
        # omega = 0 is a valid static model
        m0 = apply_parameter(mixed_qubit, "omega", 0.0)
        assert np.abs(m0.hamiltonian).max() == 0.0


@pytest.fixture(scope="module")
def spec():
    return SweepSpec(
        model=precession_model(),
        parameter="tau",
        start=0.0,
        stop=2 * np.pi,
        steps=101,
        outputs=("averages", "correlators", "margins", "witness", "d_interval", "verdicts"),
    )


class TestRunSweep:
    def test_grid_endpoints_inclusive(self, spec):
        grid = spec.grid
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * np.pi, abs=0)
        assert len(grid) == 101

    def test_rows_and_columns(self, spec, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep_blocks(spec), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 102
        assert header[0] == "tau"
        for col in ("avg_1", "C_12", "LG3.2", "NSIT(2)3.+", "NSIT(1)23.--",
                    "W_12", "d_lo", "d_hi", "verdict_weak", "verdict_int", "verdict_strong"):
            assert col in header
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_byte_identical_reruns(self, spec, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(sweep_blocks(spec), a)
        write_sweep_csv(sweep_blocks(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_verdict_flips_exactly_where_margins_cross(self, spec):
        eps = 1e-9
        for block in sweep_blocks(spec):
            lg_margins = np.array([v for k, v in block.items() if k.startswith("LG")])
            assert np.array_equal(block["verdict_weak"], (lg_margins >= -eps).all(axis=0))

    def test_rows_two_reports_share_are_bit_equal(self, monkeypatch):
        # the margins group keeps one column per row name, so a row that two reports
        # share (LG3.* in weak and int, NSIT(2)3.* in int and strong) must be the same bits in both
        margins, seen = harness.OUTPUT_GROUPS["margins"], []
        monkeypatch.setitem(harness.OUTPUT_GROUPS, "margins", lambda t, r: seen.append(r) or margins(t, r))
        shared_at_3 = sorted([f"LG3.{k}" for k in range(1, 5)] + ["NSIT(2)3.-", "NSIT(2)3.+"])
        for name, obj in conftest.sweep_specs().items():
            seen.clear()
            list(sweep_blocks(harness.sweep_spec_from_jsonable(obj)))
            assert seen, name
            for k, reports in enumerate(seen):
                rows = {}
                for report in reports.values():
                    for row, values in zip(report.names, report.values):
                        rows.setdefault(row, []).append(values)
                shared = {row: values for row, values in rows.items() if len(values) > 1}
                assert sorted(shared) == (shared_at_3 if "int" in reports else []), (name, k)
                for row, (first, second) in shared.items():
                    assert first.tobytes() == second.tobytes(), (name, k, row)

    def test_witness_zero_for_maximally_mixed(self, spec):
        assert max(np.max([v for k, v in b.items() if k.startswith("W_")]) for b in sweep_blocks(spec)) < 1e-12

    def test_four_time_sweep_columns(self):
        spec4 = SweepSpec(
            model=precession_model(times=(0.0, 1.0, 2.0, 3.0)),
            parameter="tau", start=0.0, stop=np.pi, steps=7,
            outputs=("correlators", "margins", "verdicts"),
        )
        header = list(next(sweep_blocks(spec4)))
        assert "LG4.1.lo" in header and "LG4.4.hi" in header
        assert "C_34" in header and "C_14" in header
        assert "verdict_weak" in header
        assert "verdict_int" not in header and "verdict_strong" not in header
        assert not any(c.startswith("LG3") for c in header)

    def test_four_time_d_interval_columns_match_points(self, tmp_path):
        # a random dim-3 model, so the chord bounds move with tau and cross at LG4 violations
        spec4 = SweepSpec(
            model=sample_model(np.random.default_rng(34), 3, 4),
            parameter="tau", start=0.0, stop=2 * np.pi, steps=61,
            outputs=("d_interval", "verdicts"),
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep_blocks(spec4), path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == ["tau", "d_lo", "d_hi", "verdict_weak"]
        crossed = 0
        for row in rows:
            r = d_interval(measure_all(apply_parameter(spec4.model, "tau", float(row[0]))).moments)
            assert np.abs(np.subtract([float(row[1]), float(row[2])], r.d_interval)).max() <= 1e-12
            assert row[3] == str(int(r.feasible))
            crossed += r.d_interval[0] > r.d_interval[1]
        assert 0 < crossed < len(rows)


def point_reference(spec: SweepSpec, value: float, epsilon: float = 1e-9) -> dict:
    """One grid point the per-point way: a new model, its own tables and the
    scalar conditions and interval."""
    tables = measure_all(apply_parameter(spec.model, spec.parameter, value))
    m = tables.moments
    n = tables.n_times
    reports = [mr_weak(m, epsilon)]
    reports += [mr_int(tables, epsilon), mr_strong(tables, epsilon)] if n == 3 else [nsit_pairwise(tables, epsilon)]
    names = ("verdict_weak", "verdict_int", "verdict_strong") if n == 3 else ("verdict_weak",)
    return {
        "averages": m.averages,
        "correlators": m.correlators,
        "margins": {k: v for r in reports for k, v in r.margins.items()},
        "witnesses": {f"W_{i + 1}{j + 1}": witness(tables.pairs[(i, j)], tables.singles[j]) for i, j in pair_set(n)},
        "interval": d_interval(m, epsilon).d_interval,
        "verdicts": dict(zip(names, (r.verdict for r in reports))),
    }


def _sweep_case(model, parameter, start, stop, steps=23):
    outputs = ("averages", "correlators", "margins", "witness", "d_interval", "verdicts")
    return SweepSpec(model=model, parameter=parameter, start=start, stop=stop, steps=steps, outputs=outputs)


def _sweep_cases():
    qubit3, qubit4 = precession_model(), precession_model(times=(0.0, 1.0, 2.0, 3.0))
    dim3 = sample_model(np.random.default_rng(31), 3)
    dim3_4 = sample_model(np.random.default_rng(32), 3, 4)
    dim16 = sample_model(np.random.default_rng(33), 16)
    cases = {}
    for label, model in (("qubit3", qubit3), ("qubit4", qubit4), ("dim3", dim3), ("dim3_4t", dim3_4)):
        t = model.times
        cases[f"{label}-tau"] = _sweep_case(model, "tau", 0.0, 2 * np.pi)
        cases[f"{label}-t2"] = _sweep_case(model, "t2", t[0], t[2])
        cases[f"{label}-t3"] = _sweep_case(model, "t3", t[1], t[-1] + 2.0 if model.n_times == 3 else t[3])
        cases[f"{label}-omega-crossing-0"] = _sweep_case(model, "omega", -2.0, 3.0, steps=11)
        cases[f"{label}-omega-negative"] = _sweep_case(model, "omega", -3.0, -0.5)
    cases["dim16-tau"] = _sweep_case(dim16, "tau", 0.0, 3.0, steps=9)
    cases["dim16-omega"] = _sweep_case(dim16, "omega", -1.5, 1.5, steps=9)
    return cases


SWEEP_CASES = _sweep_cases()


class TestBatchedSweep:
    """The batched sweep against the per-point path, point by point."""

    @staticmethod
    def assert_matches_points(spec: SweepSpec) -> None:
        values = []
        n = spec.model.n_times
        averages = [f"avg_{i + 1}" for i in range(n)]
        correlators = [f"C_{i + 1}{j + 1}" for i, j in pair_set(n)]
        for block in sweep_blocks(spec):
            for k, value in enumerate(block[spec.parameter].tolist()):
                values.append(value)
                ref = point_reference(spec, value)
                assert list(block) == [
                    spec.parameter, *averages, *correlators, *ref["margins"], *ref["witnesses"],
                    "d_lo", "d_hi", *ref["verdicts"],
                ]
                assert np.abs(np.subtract([block[a][k] for a in averages], ref["averages"])).max() <= 1e-12
                assert np.abs(np.subtract([block[c][k] for c in correlators], ref["correlators"])).max() <= 1e-12
                for group in ("margins", "witnesses"):
                    assert max(abs(block[name][k] - v) for name, v in ref[group].items()) <= 1e-12
                assert np.abs(np.subtract([block["d_lo"][k], block["d_hi"][k]], ref["interval"])).max() <= 1e-12
                assert {name: block[name][k] for name in ref["verdicts"]} == ref["verdicts"]
        assert values == spec.grid.tolist()

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_every_point_matches_the_per_point_path(self, case):
        spec = SWEEP_CASES[case]
        if "crossing" in case:
            assert spec.grid.min() < 0.0 < spec.grid.max() and 0.0 in spec.grid
        self.assert_matches_points(spec)

    @pytest.mark.parametrize("case", ["qubit3-tau", "dim3_4t-omega-crossing-0"])
    def test_block_boundaries(self, case, monkeypatch):
        spec = SWEEP_CASES[case]
        model = spec.model
        per_point = 32 * model.dim**2 * (2**model.n_times + 4 * model.n_times)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 7 * per_point)
        blocks = list(sweep_blocks(spec))
        assert [len(b[spec.parameter]) for b in blocks] == ([7, 7, 7, 2] if spec.steps == 23 else [7, 4])
        self.assert_matches_points(spec)

    def test_csv_rows_match_the_per_point_reference(self, tmp_path, monkeypatch):
        spec = SWEEP_CASES["qubit3-tau"]
        model = spec.model
        # 7-point blocks: rows 7 and 8, 14 and 15, 21 and 22 sit across block boundaries
        monkeypatch.setattr(harness, "BLOCK_BYTES", 7 * 32 * model.dim**2 * (2**model.n_times + 4 * model.n_times))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep_blocks(spec), path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert [float(row[0]) for row in rows] == spec.grid.tolist()
        n = model.n_times
        for row in rows:
            ref = point_reference(spec, float(row[0]))
            numbers = {
                **{f"avg_{i + 1}": a for i, a in enumerate(ref["averages"])},
                **{f"C_{i + 1}{j + 1}": c for (i, j), c in zip(pair_set(n), ref["correlators"])},
                **ref["margins"],
                **ref["witnesses"],
                **dict(zip(("d_lo", "d_hi"), ref["interval"])),
            }
            assert header == [spec.parameter, *numbers, *ref["verdicts"]]
            got = dict(zip(header, row))
            assert max(abs(float(got[name]) - v) for name, v in numbers.items()) <= 1e-12
            assert {name: got[name] for name in ref["verdicts"]} == {k: str(int(v)) for k, v in ref["verdicts"].items()}
        assert path.read_bytes() == csv_reference(sweep_blocks(spec)).encode()

    def test_one_eigendecomposition_of_h_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
        # blocks of 64 points: the 500-step sweeps span 8 blocks, the 50-step one a single block
        monkeypatch.setattr(harness, "BLOCK_BYTES", 64 * 32 * 2**2 * (2**3 + 4 * 3))
        counts = {}
        for parameter, start, steps in (("tau", 0.0, 50), ("tau", 0.0, 500), ("omega", -1.0, 500)):
            spec = {
                "model": model_to_jsonable(precession_model()),
                "parameter": parameter, "from": start, "to": 2.0, "steps": steps,
            }
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            calls.clear()
            assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            counts[(parameter, steps)] = len(calls)
        # one for the PSD check of rho, one for H
        assert len(set(counts.values())) == 1
        assert counts[("tau", 50)] <= 2


class TestChecksAtLoad:
    def test_sweep_checks_no_evolved_observable(self, tmp_path, monkeypatch):
        # Q is checked once, when the spec's model is validated; no sweep block checks Q(t) again
        calls, check = [], quantum.require_dichotomic
        monkeypatch.setattr(quantum, "require_dichotomic", lambda *args, **kw: calls.append(args) or check(*args, **kw))
        obj = json.loads(default_model_path().with_name("tau_sweep_lg3.json").read_text())
        obj.update(steps=2000, outputs=["averages", "correlators", "margins", "witness", "d_interval", "verdicts"])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        spec = load_sweep_spec(path)
        assert len(calls) == 1
        blocks = list(sweep_blocks(spec))
        assert len(blocks) > 1 and len(calls) == 1


class TestSweepColumns:
    """A multi-block sweep: every block is a column map with the CSV
    header's names, in the header's order."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("outputs", [tuple(harness.OUTPUT_GROUPS), ("verdicts", "d_interval", "averages")],
                             ids=["every-group", "subset-reordered"])
    def test_every_block_has_the_header_columns(self, n, outputs, tmp_path, monkeypatch):
        model = precession_model(times=(0.0, 1.0, 2.0, 3.0)[:n])
        monkeypatch.setattr(harness, "BLOCK_BYTES", 5 * 32 * model.dim**2 * (2**n + 4 * n))
        spec = SweepSpec(model=model, parameter="tau", start=0.0, stop=np.pi, steps=13, outputs=outputs)
        blocks = list(sweep_blocks(spec))
        assert [len(b["tau"]) for b in blocks] == [5, 5, 3]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(blocks, path)
        header, *rows = path.read_text().splitlines()
        assert [header, *rows].count(header) == 1
        assert rows == [row for block in blocks for row in sweep_csv_lines(block).splitlines()]
        for block in blocks:
            assert sweep_csv_lines(block) == "".join(row + "\n" for row in csv_rows_reference(block))
        assert path.read_bytes() == csv_reference(blocks).encode()
        columns = header.split(",")
        if outputs[0] == "verdicts":
            assert columns[1] == "verdict_weak" and columns[-1] == f"avg_{n}"
        for block in blocks:
            assert list(block) == columns
            for name, column in block.items():
                assert column.dtype == (bool if name.startswith("verdict_") else float), name


def assert_formats_as_g17(values) -> None:
    """``sweep_csv_lines`` on the values as one column, and on up to 64 of
    them as one row, must give '%.17g' of each, byte for byte, with no numpy
    warning."""
    values = np.asarray(values, dtype=float)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        column = sweep_csv_lines({"x": values})
        row = sweep_csv_lines({f"x{i}": values[i : i + 1] for i in range(min(len(values), 64))})
    want = ["%.17g" % v for v in values.tolist()]
    # the first few mismatches, not a diff of the whole text
    assert [(v, g, w) for v, g, w in zip(values.tolist(), column.split("\n"), want) if g != w][:3] == []
    same = column == "".join(w + "\n" for w in want)
    assert same, f"{len(column)} characters against {sum(len(w) + 1 for w in want)}"
    assert row == ",".join(want[:64]) + "\n"


def neighbours(x: np.ndarray) -> np.ndarray:
    """Each value with the doubles on either side of it."""
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestCsvNumbers:
    """The sweep CSV's numbers against Python's '%.17g', byte for byte."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert_formats_as_g17(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        assert_formats_as_g17(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_every_half_way_case_in_one_to_ten(self):
        # 1 + k/2^17 with k odd has 18 significant digits, the last a 5: each rounds half to even
        assert_formats_as_g17(1.0 + np.arange(1, 9 * 2**17, 2) / 2**17)

    def test_powers_of_ten_and_their_neighbours(self):
        assert_formats_as_g17(neighbours(np.array([float(f"1e{k}") for k in range(-30, 31)])))

    def test_positional_and_scientific_switch(self):
        edges = neighbours(np.array([1e-4, 1e17, 1e-5, 1e16]))
        assert_formats_as_g17(np.concatenate([edges, [99999999999999999.0, 9.99999999999999999e-5]]))
        assert sweep_csv_lines({"x": np.array([1e-4, 1e17, 99999999999999999.0])}) == "0.0001\n1e+17\n1e+17\n"

    def test_point_after_every_digit(self):
        # from 10 up to 1e17 a value with a fraction has its point among the digits after the first
        powers = 10.0 ** np.arange(1, 17)
        values = np.array([float(f"1.2345678901234567e{k}") for k in range(1, 17)])
        assert_formats_as_g17(np.concatenate([
            neighbours(np.concatenate([values, -values])),
            [100.0, 1e15, 12000000000000000.0],
            np.nextafter(powers, 0.0),
        ]))

    def test_zeros_and_the_extremes(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        assert_formats_as_g17(values)
        assert sweep_csv_lines({"x": np.array(values[:2])}) == "0\n-0\n"

    def test_scaled_values_over_the_whole_range(self):
        rng = np.random.default_rng(30)
        assert_formats_as_g17(rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 300, 4000))

    def test_a_column_outside_the_table_range(self):
        # not finite, subnormal, past 1e99 or below 1e-99, and half-way cases: none is spelled from the tables
        values = [np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1e-300, -1e-100, 1e99, -3e200,
                  1.0000076293945312, 9.5]
        assert_formats_as_g17(values)
        assert sweep_csv_lines({"x": np.array(values[:3])}) == "nan\ninf\n-inf\n"

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("where", ["first", "last", "both"])
    def test_bool_columns(self, where, rows):
        rng = np.random.default_rng(rows)
        flags = rng.random((2, rows)) < 0.5
        numbers = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-20, 20, (2, rows))
        columns = {"a": numbers[0], "b": numbers[1]}
        if where in ("first", "both"):
            columns = {"flag_first": flags[0], **columns}
        if where in ("last", "both"):
            columns = {**columns, "flag_last": flags[1]}
        assert sweep_csv_lines(columns) == "".join(row + "\n" for row in csv_rows_reference(columns))

    def test_only_bool_columns(self):
        columns = {"u": np.array([True, False, True]), "v": np.array([False, False, True])}
        assert sweep_csv_lines(columns) == "1,0\n0,0\n1,1\n"

    @pytest.mark.parametrize("chunk", [1, 2, 7, 8192])
    def test_rows_across_chunks(self, chunk, monkeypatch):
        # a chunk of fewer values than a row still holds one whole row
        monkeypatch.setattr(harness, "_CSV_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        columns = {f"c{i}": rng.standard_normal(23) * 10.0 ** rng.integers(-30, 30, 23) for i in range(3)}
        columns["ok"] = rng.random(23) < 0.5
        assert sweep_csv_lines(columns) == "".join(row + "\n" for row in csv_rows_reference(columns))


def failing_sweep_spec(tmp_path):
    """The shipped tau spec with rho = diag(1 + 5e-11, -5e-11): the model
    loads, since its PSD check allows -5e-11, but the first block's single
    table then has a negative weight."""
    spec = json.loads(default_model_path().with_name("tau_sweep_lg3.json").read_text())
    spec["model"]["rho"] = [[[1 + 5e-11, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-5e-11, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    return path


class TestWriteSweepCsv:
    def test_failing_sweep_keeps_an_existing_csv(self, tmp_path, capsys):
        spec = failing_sweep_spec(tmp_path)
        out = tmp_path / "out.csv"
        out.write_bytes(b"tau,C_12\n0,1\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert "single table weight negative: -5e-11" in capsys.readouterr().err
        assert out.read_bytes() == b"tau,C_12\n0,1\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "out.csv"]

    def test_failing_sweep_writes_no_csv(self, tmp_path):
        spec = failing_sweep_spec(tmp_path)
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 2
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]

    def test_an_error_while_writing_leaves_no_partial_file(self, tmp_path, spec):
        def blocks():
            yield from sweep_blocks(spec)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_sweep_csv(blocks(), tmp_path / "out.csv")
        assert os.listdir(tmp_path) == []

    def test_replaces_an_existing_csv(self, tmp_path, spec):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        write_sweep_csv(sweep_blocks(spec), out)
        assert out.read_bytes() == csv_reference(sweep_blocks(spec)).encode()
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_writes_through_a_symlink(self, tmp_path, spec):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "out.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_sweep_csv(sweep_blocks(spec), link)
        assert link.is_symlink()
        assert target.read_bytes() == csv_reference(sweep_blocks(spec)).encode()
        assert sorted(os.listdir(tmp_path / "data")) == ["out.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_writes_a_pipe_directly(self, tmp_path, spec):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_sweep_csv(sweep_blocks(spec), fifo)
        reader.join(timeout=30)
        assert got == [csv_reference(sweep_blocks(spec)).encode()]
        assert os.listdir(tmp_path) == ["pipe"]


class TestSamplers:
    def test_haar_unitary_is_unitary(self, rng):
        for dim in (2, 3, 5):
            u = haar_unitary(complex_gaussian(rng, dim))
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12

    def test_generic_model_valid(self, rng):
        for dim in (2, 3, 4):
            m = sample_model(rng, dim)
            assert m.dim == dim
            assert m.times[0] == 0.0

    def test_commuting_mode(self, rng):
        m = sample_model(rng, 3, commuting=True)
        comm = m.hamiltonian @ m.observable - m.observable @ m.hamiltonian
        assert np.abs(comm).max() < 1e-12

    def test_plus_eigenspace_mode(self, rng):
        m = sample_model(rng, 4, rho_mode="plus_eigenspace")
        p_plus = at_time(m, 0).projector(+1)
        assert np.abs(p_plus @ m.rho @ p_plus - m.rho).max() < 1e-12

    def test_q1_diagonal_mode(self, rng):
        m = sample_model(rng, 3, rho_mode="q1_diagonal")
        q1 = at_time(m, 0).observable
        assert np.abs(q1 @ m.rho - m.rho @ q1).max() < 1e-12

    def test_unknown_mode(self, rng):
        with pytest.raises(ValidationError, match="rho_mode"):
            sample_model(rng, 2, rho_mode="nope")


class TestBlockSampler:
    """The campaign's stacked sampler, and ``sample_model`` (its one-model
    case), against ``reference_model``, the per-model route, bit for bit: the
    same draws from each model's stream, and the same H, rho, Q, times and
    eigendecomposition of H."""

    @pytest.mark.parametrize("rho_mode", ["generic", "maximally_mixed", "plus_eigenspace", "q1_diagonal"])
    @pytest.mark.parametrize("commuting", [False, True])
    def test_matches_the_per_model_reference(self, rho_mode, commuting):
        for dim in (2, 3, 4, 7, 16):
            for n_times in (3, 4):
                streams = np.random.SeedSequence([dim, n_times]).spawn(3)
                rngs = [np.random.default_rng(s) for s in streams]
                h, rho, q, times = harness._model_block(rngs, dim, n_times, commuting, rho_mode)
                times = _validate(h, rho, q, times)
                lam, vec = np.linalg.eigh(h)
                for k, stream in enumerate(streams):
                    ref_rng, one_rng = np.random.default_rng(stream), np.random.default_rng(stream)
                    want, want_eig = reference_model(ref_rng, dim, n_times, commuting, rho_mode)
                    one = sample_model(one_rng, dim, n_times, commuting=commuting, rho_mode=rho_mode)
                    fields = [(a, getattr(want, f), getattr(one, f)) for a, f in (
                        (h, "hamiltonian"), (rho, "rho"), (q, "observable"), (times, "times")
                    )]
                    fields += [(a, w, o) for a, w, o in zip((lam, vec), want_eig, one.hamiltonian_eig)]
                    for block, ref, alone in fields:
                        assert np.array_equal(block[k], ref) and np.array_equal(alone, ref)
                    # every route leaves its stream where the campaign draws the time pair
                    assert rngs[k].uniform() == ref_rng.uniform() == one_rng.uniform()


class TestCampaign:
    def test_empty_campaign(self):
        summary = run_campaign(seed=1, count=0)
        assert summary["passed"]
        assert summary["checks"] == {}

    def test_deterministic_under_seed(self):
        a = run_campaign(seed=7, count=20)
        b = run_campaign(seed=7, count=20)
        assert json.dumps(a) == json.dumps(b)

    def test_small_campaign_clean(self):
        summary = run_campaign(seed=3, count=40, dim_min=2, dim_max=4)
        assert summary["passed"], summary["violations"]
        stats = summary["checks"]["p_minus_q_identity"]
        assert stats["samples"] == 120  # three pairs per model
        assert stats["max_residual"] < 1e-12

    def test_dim16_campaign_clean_and_deterministic(self):
        a = run_campaign(seed=11, count=20, dim_min=16, dim_max=16)
        assert a["passed"], a["violations"]
        assert a["checks"]["p_minus_q_identity"]["samples"] == 60
        b = run_campaign(seed=11, count=20, dim_min=16, dim_max=16)
        assert json.dumps(a) == json.dumps(b)

    def test_summary_shape_and_per_model_sample_counts(self):
        # per model: one sample per check, three for each per-pair check
        # (three pairs at three times), and at most three for the one
        # check that runs only when its premise holds
        per_model = dict.fromkeys(
            ("contextual_in_range", "dichotomy_preserved", "expectation_range", "fine_matches_mr_weak",
             "implication_chain", "sequential_last_marginal", "unitary_group_property"), 1
        )
        per_model.update(dict.fromkeys(
            ("p_minus_q_identity", "piecewise_equals_quasi_correlator", "quasi_marginals",
             "witness_formula_agreement", "witness_s2_independence"), 3
        ))
        count = 6
        summary = run_campaign(seed=2, count=count)
        assert list(summary) == ["seed", "count", "dim_range", "passed", "checks", "violations"]
        assert list(summary["checks"]) == sorted(summary["checks"])
        for stats in summary["checks"].values():
            assert list(stats) == ["samples", "violations", "max_residual"]
        bounded = summary["checks"].pop("bounded_interference_nonneg", {"samples": 0})
        assert {name: stats["samples"] for name, stats in summary["checks"].items()} == {
            name: count * k for name, k in per_model.items()
        }
        assert bounded["samples"] <= 3 * count
        for index, stream in enumerate(np.random.SeedSequence(2).spawn(count)):
            rng = np.random.default_rng(stream)
            model = sample_model(rng, int(rng.integers(2, 5)))
            lam, vec = model.hamiltonian_eig
            arrays = lam[None], vec[None], model.rho[None], model.observable[None], np.array([model.times])
            block = harness._campaign_block(*arrays, rng.uniform(-10.0, 10.0, size=(1, 2)), 1e-9)
            # a block of one model: a check with a premise ran where its mask is set
            names = [name for name, _, _, *premise in block if not premise or premise[0][0]]
            assert {name: names.count(name) for name in per_model} == per_model
            assert names.count("bounded_interference_nonneg") <= 3

    def test_contextual_value_past_one_is_a_violation(self, monkeypatch):
        # contextual_in_range reads the contextual dict and is a real range check;
        # here every model of a block has one contextual value past one
        monkeypatch.setattr(harness, "sequential_moments", lambda tables: {
            ("Q2", "1"): np.full(len(tables.chain.weights), 0.5), ("Q3", "2"): np.full(len(tables.chain.weights), -1.25)
        })
        summary = run_campaign(seed=1, count=2)
        assert [(v["check"], v["index"]) for v in summary["violations"]] == [("contextual_in_range", 0), ("contextual_in_range", 1)]
        assert summary["checks"]["contextual_in_range"]["max_residual"] == 0.25

    def test_widened_fine_interval_fails_on_every_model(self, monkeypatch):
        # hi 1e-9 too high moves the half width 5e-10 off the smallest weak margin
        bounds = harness.d_bounds
        monkeypatch.setattr(harness, "d_bounds", lambda m: (bounds(m)[0], bounds(m)[1] + 1e-9))
        count = 20
        summary = run_campaign(seed=2, count=count)
        assert [(v["index"], v["check"]) for v in summary["violations"]] == [
            (index, "fine_matches_mr_weak") for index in range(count)
        ]
        assert all(abs(v["residual"] - 5e-10) < 1e-15 for v in summary["violations"])
        assert summary["checks"]["fine_matches_mr_weak"]["samples"] == count

    def test_fine_check_runs_once_per_block(self, monkeypatch):
        # no d_interval under any name, and no moment set but each block's one
        calls, blocks, sets, interval = [], [], [], fine.d_interval
        for module in [m for name, m in sys.modules.items() if name.startswith("mrtest")]:
            if getattr(module, "d_interval", None) is interval:
                monkeypatch.setattr(module, "d_interval", lambda *args: calls.append(args) or interval(*args))
        block, post_init = harness._campaign_block, MomentSet.__post_init__
        monkeypatch.setattr(harness, "_campaign_block", lambda *args: blocks.append(args) or block(*args))
        monkeypatch.setattr(MomentSet, "__post_init__", lambda m: sets.append(m) or post_init(m))
        summary = run_campaign(seed=3, count=60)
        assert summary["passed"] and summary["checks"]["fine_matches_mr_weak"]["samples"] == 60
        assert calls == [] and len(blocks) == 3 and len(sets) == len(blocks)

    def test_non_dichotomic_evolved_observable_is_a_violation(self, monkeypatch):
        # Q(t) scaled by 1 + 1e-6 gives ||Q(t)^2 - I|| = (2e-6 + 1e-12) sqrt(d) at each time
        spectral = harness._spectral

        def scaled(*args):
            u, q, proj = spectral(*args)
            return u, q * (1 + 1e-6), proj

        monkeypatch.setattr(harness, "_spectral", scaled)
        summary = run_campaign(3, 30)
        found = [v for v in summary["violations"] if v["check"] == "dichotomy_preserved"]
        assert [v["index"] for v in found] == list(range(30))
        assert all(v["residual"] == pytest.approx(2e-6 * np.sqrt(v["dim"]), rel=1e-5) for v in found)
        stats = summary["checks"]["dichotomy_preserved"]
        assert stats["samples"] == stats["violations"] == 30
        assert stats["max_residual"] == pytest.approx(4e-6, rel=1e-5)

    def test_count_cap(self):
        with pytest.raises(ValidationError, match="10\\^5"):
            run_campaign(seed=1, count=10**5 + 1)

    def test_dim_range_validation(self):
        with pytest.raises(ValidationError, match="dim_min"):
            run_campaign(seed=1, count=1, dim_min=5, dim_max=2)


class TestStackedCampaign:
    """``run_campaign`` samples each model from its own stream and checks the
    models in blocks of one dimension; its summary is the per-model
    reference's, folded one model at a time in index order."""

    @pytest.mark.parametrize("seed, count, dim_min, dim_max", [(3, 300, 2, 4), (1, 50, 16, 16), (5, 13, 16, 16)])
    def test_matches_the_per_model_reference(self, seed, count, dim_min, dim_max):
        if count == 13:
            # a last block shorter than the others
            assert count % harness._block_size(16, 3) != 0
        args = (seed, count, dim_min, dim_max)
        assert_same_summary(run_campaign(*args), reference_campaign(*args))

    def test_violations_in_the_reference_order(self, monkeypatch):
        # a witness read 0.1 too high at s2 = +1 fails both witness checks on every pair
        exact = harness.witness

        def off(pair, single, s2=+1):
            return exact(pair, single, s2) + (0.1 if s2 == +1 else 0.0)

        monkeypatch.setattr(harness, "witness", off)
        monkeypatch.setattr(conftest, "witness", off)
        summary = run_campaign(4, 30)
        assert len(summary["violations"]) == 30 * 3 * 2
        assert_same_summary(summary, reference_campaign(4, 30))

    def test_block_size_does_not_change_the_summary(self, monkeypatch):
        default = run_campaign(6, 40)
        sizes, block = [], harness._campaign_block

        def recorded(lam, *args):
            sizes.append(len(lam))
            return block(lam, *args)

        monkeypatch.setattr(harness, "_campaign_block", recorded)
        # blocks of three models at dim 2 and of one at dims 3 and 4
        monkeypatch.setattr(harness, "BLOCK_BYTES", 3 * 32 * 2**2 * (2**3 + 4 * 3))
        assert [harness._block_size(dim, 3) for dim in (2, 3, 4)] == [3, 1, 1]
        assert_same_summary(run_campaign(6, 40), default)
        assert sum(sizes) == 40 and set(sizes) == {1, 2, 3}

    def test_nan_residual_is_a_violation_and_never_the_largest(self, monkeypatch):
        block = harness._campaign_block

        def with_nans(lam, *args):
            for name, residual, tol, *premise in block(lam, *args):
                if name == "quasi_marginals":
                    # the first model of each block, on every pair
                    residual = np.where(np.arange(len(lam)) == 0, np.nan, residual)
                elif name == "contextual_in_range":
                    residual = np.full(len(lam), np.nan)
                yield (name, residual, tol, *premise)

        count = 20
        default = run_campaign(1, count)
        monkeypatch.setattr(harness, "_campaign_block", with_nans)
        summary = run_campaign(1, count)
        # one block per dimension: the first model of each dimension has NaN quasi marginals
        dims = [int(np.random.default_rng(s).integers(2, 5)) for s in np.random.SeedSequence(1).spawn(count)]
        firsts = {dims.index(dim) for dim in dims}
        assert [(v["index"], v["check"]) for v in summary["violations"]] == [
            (index, check)
            for index in range(count)
            for check in ["quasi_marginals"] * 3 * (index in firsts) + ["contextual_in_range"]
        ]
        assert all(np.isnan(v["residual"]) for v in summary["violations"])
        stats = summary["checks"]["contextual_in_range"]
        assert stats == {"samples": count, "violations": count, "max_residual": 0.0}
        stats = summary["checks"]["quasi_marginals"]
        assert stats["violations"] == 3 * len(firsts) and stats["samples"] == 3 * count
        assert 0.0 < stats["max_residual"] <= default["checks"]["quasi_marginals"]["max_residual"]


def _never_on_dim_two(lam, vec, *args):
    n = len(lam)
    yield "never", np.ones(n), 0.5, np.zeros(n, dtype=bool)
    yield "not_on_dim_two", np.arange(n, dtype=float), 0.5, np.full(n, vec.shape[-1] != 2)


def _scalars(lam, *args):
    yield "scalar", 0.25, 0.5
    yield "scalar_violated", 1.0, 0.5


def _nans(lam, *args):
    n = len(lam)
    yield "nan_everywhere", np.full(n, np.nan), 0.5
    yield "nan_or_negative", np.where(np.arange(n) % 2 == 1, np.nan, -1.0), 0.5
    yield "nan_or_large", np.where(np.arange(n) % 2 == 1, np.nan, 0.75), 0.5, np.arange(n) < 5


def _tail_violation(lam, *args):
    n = len(lam)
    yield "tail", np.where((n == 2) & (np.arange(n) == 1), 1.0, 0.0), 0.5


class TestBlockFold:
    """``run_campaign`` folds each block's checks as one residual array; its
    summary is, byte for byte, that of ``check_by_check_campaign``, which
    folds the same blocks one check at a time."""

    @pytest.mark.parametrize("args", [(1, 50, 16, 16), (3, 1000, 2, 4), (7, 200, 2, 16)])
    def test_ci_campaigns_match_the_check_by_check_fold(self, args):
        summary = run_campaign(*args)
        assert json.dumps(summary) == json.dumps(check_by_check_campaign(*args))
        assert summary["passed"] and summary["checks"]

    @pytest.mark.parametrize("extra, args", [
        (_never_on_dim_two, (3, 60, 2, 4)),
        (_scalars, (2, 30, 2, 4)),
        (_nans, (1, 20, 2, 4)),
        (_tail_violation, (1, 50, 16, 16)),
    ], ids=["premise", "scalar", "nan", "tail"])
    def test_edge_cases_match_the_check_by_check_fold(self, monkeypatch, extra, args):
        block = harness._campaign_block
        # the extra checks first, so that their violations come before the block's own in check order
        monkeypatch.setattr(harness, "_campaign_block", lambda *a: (*extra(*a), *block(*a)))
        summary = run_campaign(*args)
        assert json.dumps(summary) == json.dumps(check_by_check_campaign(*args))
        checks, count = summary["checks"], args[1]
        found = [(v["check"], v["index"]) for v in summary["violations"]]
        if extra is _never_on_dim_two:
            # a premise false on the whole run leaves no trace; one false on a block leaves its models out
            dims = [int(np.random.default_rng(s).integers(2, 5)) for s in np.random.SeedSequence(3).spawn(count)]
            assert "never" not in checks
            assert checks["not_on_dim_two"]["samples"] == count - dims.count(2) > 0
            assert checks["not_on_dim_two"]["violations"] == count - dims.count(2) - 2
        elif extra is _scalars:
            assert checks["scalar"] == {"samples": count, "violations": 0, "max_residual": 0.25}
            assert found == [("scalar_violated", index) for index in range(count)]
        elif extra is _nans:
            assert checks["nan_everywhere"] == {"samples": count, "violations": count, "max_residual": 0.0}
            assert checks["nan_or_negative"]["max_residual"] == 0.0
            assert checks["nan_or_large"]["max_residual"] == 0.75
        else:
            assert count % harness._block_size(16, 3) == 2
            assert found == [("tail", 49)]
            assert checks["tail"] == {"samples": count, "violations": 1, "max_residual": 1.0}


class TestTablesValidatedOnce:
    """Each table is validated once, where it is measured: a block builds the ten tables of
    ``measure_all`` at 3 times and no marginal table.  The derived sums that the campaign and
    the NSIT rows compare stay weight arrays (23 tables per campaign block, 16 per sweep block,
    before they did)."""

    MEASURED = [("quasi", 2)] * 3 + [("sequential", 2)] * 3 + [("sequential", 3)] + [("single", 1)] * 3

    @staticmethod
    def built(monkeypatch) -> list:
        built, post_init = [], ProbabilityTable.__post_init__
        monkeypatch.setattr(ProbabilityTable, "__post_init__", lambda t: built.append(t) or post_init(t))
        return built

    def test_one_model_campaign_block(self, monkeypatch):
        rngs = [np.random.default_rng(36)]
        h, rho, q, times = harness._model_block(rngs, 16)
        models = (*np.linalg.eigh(h), rho, q, _validate(h, rho, q, times))
        built = self.built(monkeypatch)
        checks = [name for name, *_ in harness._campaign_block(*models, np.array([[1.5, -2.5]]), 1e-9)]
        assert len(checks) == 3 + 3 * 6 + 4 and "quasi_marginals" in checks and "sequential_last_marginal" in checks
        assert sorted((t.kind, t.arity) for t in built) == self.MEASURED

    def test_one_sweep_block(self, monkeypatch):
        spec = load_sweep_spec(default_model_path().with_name("tau_sweep_lg3.json"))
        assert spec.steps <= harness._block_size(spec.model.dim, spec.model.n_times)
        built = self.built(monkeypatch)
        [columns] = sweep_blocks(spec)
        assert {"verdict_int", "verdict_strong"} <= set(columns)
        assert sorted((t.kind, t.arity) for t in built) == self.MEASURED

    def test_a_disagreeing_marginal_is_a_reported_violation(self, monkeypatch):
        # a quasi marginal 1e-6 off used to abort the campaign in marginal()'s sum check;
        # now each model reports it, three pairs each, with its (seed, index) reproducer
        summed_out = ProbabilityTable._summed_out
        monkeypatch.setattr(ProbabilityTable, "_summed_out",
                            lambda t, i: summed_out(t, i) + (1e-6 if t.kind == "quasi" else 0.0))
        summary = run_campaign(seed=5, count=8)
        assert not summary["passed"]
        assert [(v["check"], v["seed"], v["index"]) for v in summary["violations"]] == [
            ("quasi_marginals", 5, index) for index in range(8) for _ in range(3)
        ]
        assert all(v["residual"] == pytest.approx(1e-6, rel=1e-6) for v in summary["violations"])

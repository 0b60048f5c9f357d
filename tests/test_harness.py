import json

import numpy as np
import pytest

from mrtest import harness
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
from mrtest.measurement import measure_all, outcomes, pair_set, sequential_prob, single_time_prob, witness
from mrtest.quantum import QuantumModel

from conftest import apply_parameter, precession_model


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
        t = single_time_prob(model, 1)
        assert t.weight((+1,)) == pytest.approx(0.5, abs=1e-14)

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
        t = sequential_prob(m, (0, 1, 2))
        assert t.weight((+1, +1, +1)) == pytest.approx(0.5, abs=1e-14)
        assert t.weight((-1, -1, -1)) == pytest.approx(0.5, abs=1e-14)

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
        lines = sweep_csv_lines(spec, sweep_blocks(spec))
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
        write_sweep_csv(spec, sweep_blocks(spec), a)
        write_sweep_csv(spec, sweep_blocks(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_verdict_flips_exactly_where_margins_cross(self, spec):
        eps = 1e-9
        for block in sweep_blocks(spec):
            lg_margins = np.array([v for k, v in block.margins.items() if k.startswith("LG")])
            assert np.array_equal(block.verdicts["verdict_weak"], (lg_margins >= -eps).all(axis=0))

    def test_witness_zero_for_maximally_mixed(self, spec):
        assert max(np.max(list(b.witnesses.values())) for b in sweep_blocks(spec)) < 1e-12

    def test_four_time_sweep_columns(self):
        spec4 = SweepSpec(
            model=precession_model(times=(0.0, 1.0, 2.0, 3.0)),
            parameter="tau", start=0.0, stop=np.pi, steps=7,
            outputs=("correlators", "margins", "verdicts"),
        )
        lines = sweep_csv_lines(spec4, sweep_blocks(spec4))
        header = lines[0].split(",")
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
        write_sweep_csv(spec4, sweep_blocks(spec4), path)
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
        for block in sweep_blocks(spec):
            m = block.moments
            for k, value in enumerate(block.parameter_value.tolist()):
                values.append(value)
                ref = point_reference(spec, value)
                assert np.abs(np.subtract([a[k] for a in m.averages], ref["averages"])).max() <= 1e-12
                assert np.abs(np.subtract([c[k] for c in m.correlators], ref["correlators"])).max() <= 1e-12
                for group in ("margins", "witnesses"):
                    got = getattr(block, group)
                    assert list(got) == list(ref[group])
                    assert max(abs(got[name][k] - v) for name, v in ref[group].items()) <= 1e-12
                assert np.abs(np.subtract([x[k] for x in block.interval], ref["interval"])).max() <= 1e-12
                assert {name: col[k] for name, col in block.verdicts.items()} == ref["verdicts"]
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
        monkeypatch.setattr(harness, "SWEEP_BLOCK_BYTES", 7 * per_point)
        blocks = list(sweep_blocks(spec))
        assert [len(b.parameter_value) for b in blocks] == ([7, 7, 7, 2] if spec.steps == 23 else [7, 4])
        self.assert_matches_points(spec)

    def test_csv_rows_match_the_per_point_reference(self, tmp_path, monkeypatch):
        spec = SWEEP_CASES["qubit3-tau"]
        model = spec.model
        # 7-point blocks: rows 7 and 8, 14 and 15, 21 and 22 sit across block boundaries
        monkeypatch.setattr(harness, "SWEEP_BLOCK_BYTES", 7 * 32 * model.dim**2 * (2**model.n_times + 4 * model.n_times))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(spec, sweep_blocks(spec), path)
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

    def test_one_eigendecomposition_of_h_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
        # blocks of 64 points: the 500-step sweeps span 8 blocks, the 50-step one a single block
        monkeypatch.setattr(harness, "SWEEP_BLOCK_BYTES", 64 * 32 * 2**2 * (2**3 + 4 * 3))
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


class TestSamplers:
    def test_haar_unitary_is_unitary(self, rng):
        for dim in (2, 3, 5):
            u = haar_unitary(rng, dim)
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
        p_plus = m.projector_at(0, +1)
        assert np.abs(p_plus @ m.rho @ p_plus - m.rho).max() < 1e-12

    def test_q1_diagonal_mode(self, rng):
        m = sample_model(rng, 3, rho_mode="q1_diagonal")
        q1 = m.observable_at(0)
        assert np.abs(q1 @ m.rho - m.rho @ q1).max() < 1e-12

    def test_unknown_mode(self, rng):
        with pytest.raises(ValidationError, match="rho_mode"):
            sample_model(rng, 2, rho_mode="nope")


class TestCampaign:
    def test_empty_campaign(self):
        summary = run_campaign(seed=1, count=0)
        assert summary.passed
        assert summary.checks == {}

    def test_deterministic_under_seed(self):
        a = run_campaign(seed=7, count=20)
        b = run_campaign(seed=7, count=20)
        assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())

    def test_small_campaign_clean(self):
        summary = run_campaign(seed=3, count=40, dim_min=2, dim_max=4)
        assert summary.passed, summary.reproducers
        stats = summary.checks["p_minus_q_identity"]
        assert stats.samples == 120  # three pairs per model
        assert stats.max_residual < 1e-12

    def test_dim16_campaign_clean_and_deterministic(self):
        a = run_campaign(seed=11, count=20, dim_min=16, dim_max=16)
        assert a.passed, a.reproducers
        assert a.checks["p_minus_q_identity"].samples == 60
        b = run_campaign(seed=11, count=20, dim_min=16, dim_max=16)
        assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())

    def test_count_cap(self):
        with pytest.raises(ValidationError, match="10\\^5"):
            run_campaign(seed=1, count=10**5 + 1)

    def test_dim_range_validation(self):
        with pytest.raises(ValidationError, match="dim_min"):
            run_campaign(seed=1, count=1, dim_min=5, dim_max=2)

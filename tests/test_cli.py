import json
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mrtest import harness
from mrtest.cli import main
from mrtest.harness import (
    default_model_path,
    load_sweep_spec,
    model_to_jsonable,
    run_campaign,
    sweep_blocks,
)
from mrtest.tolerances import TOL

from conftest import csv_reference, near_hermitian_inputs, precession_model, sweep_specs


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(model_to_jsonable(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3)))))
    return p


@pytest.fixture
def commuting_model_file(tmp_path):
    sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    obj = {
        "dim": 2,
        "hamiltonian": sz,
        "rho": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
        "observable": sz,
        "times": [0.0, 1.0, 2.0],
    }
    p = tmp_path / "commuting.json"
    p.write_text(json.dumps(obj))
    return p


@pytest.fixture
def moments_file(tmp_path):
    p = tmp_path / "moments.json"
    p.write_text(json.dumps({
        "n": 3, "avg": [0.0, 0.0, 0.0],
        "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.5, 0.5, -0.5], "D": None,
    }))
    return p


@pytest.fixture
def zero_moments_file(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({
        "n": 3, "avg": [0.0, 0.0, 0.0],
        "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.0, 0.0, 0.0], "D": None,
    }))
    return p


def main_strict(argv):
    """``main`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


_THREE = {"n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3], [1, 3]]}
_FOUR = {"n": 4, "avg": [0, 0, 0, 0], "pairs": [[1, 2], [2, 3], [3, 4], [1, 4]]}


class TestSimulate:
    def test_writes_json(self, model_file, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--model", str(model_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["moments"]["corr"] == pytest.approx([0.5, 0.5, -0.5], abs=1e-12)

    def test_stdout_default(self, model_file, capsys):
        assert main(["simulate", "--model", str(model_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"times", "moments", "contextual", "tables"}

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--model", str(tmp_path / "nope.json")]) == 2

    def test_validation_error_names_invariant(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        obj = model_to_jsonable(precession_model())
        obj["times"] = [2.0, 1.0, 0.0]
        p.write_text(json.dumps(obj))
        assert main(["simulate", "--model", str(p)]) == 2
        assert "non-decreasing" in capsys.readouterr().err


class TestNearHermitianRho:
    def test_simulate_exits_zero(self, tmp_path, capsys):
        # written entry by entry, so the file keeps rho's 9.8e-13 deviation from Hermitian
        raw = near_hermitian_inputs(16)
        obj = {"dim": 16, "times": list(raw.pop("times"))}
        obj.update((key, [[[x.real, x.imag] for x in row] for row in a.tolist()]) for key, a in raw.items())
        p = tmp_path / "near-hermitian.json"
        p.write_text(json.dumps(obj))
        assert main(["simulate", "--model", str(p)]) == 0, capsys.readouterr().err


class TestNonFiniteEvolution:
    @pytest.mark.parametrize("argv", [["simulate"], ["check", "--which", "strong"]])
    def test_huge_hamiltonian_exits_two_naming_the_evolution(self, tmp_path, capsys, argv):
        obj = json.loads(default_model_path().read_text())
        obj["hamiltonian"][0][1], obj["hamiltonian"][1][0] = [1e308, 1e308], [1e308, -1e308]
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(obj))
        assert main_strict([*argv, "--model", str(p)]) == 2
        err = capsys.readouterr().err
        assert "evolution: H eigenvalue times t overflows the float range" in err
        assert "Traceback" not in err


_HUGE = [1e308, 0.0]


class TestHugeEntries:
    """The shipped qubit model with matrix entries near the float limit fails its
    invariant, and no numpy warning precedes the error line."""

    @pytest.mark.parametrize("field, entries, named", [
        ("hamiltonian", ([1e308, 0.0], [-1e308, 0.0]), "hamiltonian: not Hermitian"),
        ("observable", ([1e308, 0.0], [1e308, 0.0]), "observable: not dichotomic"),
    ])
    def test_simulate_exits_two_naming_the_invariant(self, tmp_path, capsys, field, entries, named):
        obj = json.loads(default_model_path().read_text())
        obj[field][0][1], obj[field][1][0] = entries
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--model", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mrtest: error: {named}") and err.count("\n") == 1

    @pytest.mark.parametrize("field, rows, named", [
        ("hamiltonian", [[_HUGE, _HUGE], [_HUGE, _HUGE]], "evolution: H eigenvalue times t overflows the float range"),
        ("rho", [[_HUGE, [0.0, 0.0]], [[0.0, 0.0], _HUGE]], "rho: trace must be 1, got inf"),
        ("rho", [[_HUGE, _HUGE], [_HUGE, _HUGE]], "rho: trace must be 1, got inf"),
    ], ids=["hamiltonian", "rho-diagonal", "rho-every-entry"])
    @pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
    def test_every_entry_huge_exits_two_naming_the_invariant(self, tmp_path, capsys, field, rows, named, command):
        model = {**_MODEL, field: rows}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({**_SPEC, "model": model} if command == "sweep" else model))
        argv = ["check", "--model", str(p), "--which", "weak"] if command == "check" else _argv(command, p)
        assert main_strict(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mrtest: error: {named}") and err.count("\n") == 1


class TestTwoTimeModel:
    @pytest.mark.parametrize("argv", [["simulate"], *(["check", "--which", w] for w in ("weak", "int", "strong"))])
    def test_exit_two_names_the_times(self, tmp_path, capsys, argv):
        p = tmp_path / "two.json"
        p.write_text(json.dumps(model_to_jsonable(precession_model(times=(0.0, 1.0)))))
        assert main([*argv, "--model", str(p)]) == 2
        err = capsys.readouterr().err
        assert "measure_all: tables need a model with 3 or 4 times, got 2: (0.0, 1.0)" in err
        assert "Traceback" not in err


class TestCheck:
    def test_weak_pass_exit_zero(self, zero_moments_file, capsys):
        assert main(["check", "--moments", str(zero_moments_file), "--which", "weak"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True

    def test_weak_fail_exit_one(self, model_file, capsys):
        assert main(["check", "--model", str(model_file), "--which", "weak"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is False
        margins = {c["name"]: c["margin"] for c in payload["checks"]}
        assert margins["LG3.2"] == pytest.approx(-0.5, abs=1e-12)

    def test_weak_from_moments_fail(self, moments_file, capsys):
        assert main(["check", "--moments", str(moments_file), "--which", "weak"]) == 1

    def test_strong_pass_for_commuting_model(self, commuting_model_file, capsys):
        assert main(["check", "--model", str(commuting_model_file), "--which", "strong"]) == 0

    def test_int_fail_for_third_turn(self, model_file, capsys):
        assert main(["check", "--model", str(model_file), "--which", "int"]) == 1

    def test_int_requires_model(self, moments_file, capsys):
        assert main(["check", "--moments", str(moments_file), "--which", "int"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_epsilon_flag_loosens(self, model_file, capsys):
        assert main(["check", "--model", str(model_file), "--which", "weak",
                     "--epsilon", "0.6"]) == 0

    def test_environment_does_not_set_epsilon(self, model_file, capsys, monkeypatch):
        # only --epsilon sets the tolerance: an ambient MRTEST_EPSILON = 0.6 would pass this model
        monkeypatch.setenv("MRTEST_EPSILON", "0.6")
        assert main(["check", "--model", str(model_file), "--which", "weak"]) == 1
        assert json.loads(capsys.readouterr().out)["epsilon"] == 1e-9

    @pytest.mark.parametrize("value", ["inf", "-1", "nan"])
    def test_epsilon_flag_must_be_finite_nonnegative(self, model_file, capsys, value):
        assert main(["check", "--model", str(model_file), "--which", "weak",
                     f"--epsilon={value}"]) == 2
        assert "--epsilon must be a finite number >= 0" in capsys.readouterr().err

    def test_missing_correlator_listed(self, tmp_path, capsys):
        p = tmp_path / "mom.json"
        p.write_text(json.dumps({
            "n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3]], "corr": [0.0, 0.0], "D": None,
        }))
        assert main(["check", "--moments", str(p), "--which", "weak"]) == 2
        assert "C13" in capsys.readouterr().err


class TestOneParserPerProcess:
    """``main`` reuses one parser: each call must still parse as if alone."""

    def test_epsilon_does_not_carry_over(self, zero_moments_file, capsys):
        argv = ["check", "--which", "weak", "--moments", str(zero_moments_file)]
        assert main([*argv, "--epsilon", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == 1e-3
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == TOL.verdict

    def test_usage_error_then_a_good_call(self, zero_moments_file, capsys):
        # the failed call has parsed --epsilon before it finds --which missing
        with pytest.raises(SystemExit) as exc:
            main(["check", "--moments", str(zero_moments_file), "--epsilon", "1e-3"])
        assert exc.value.code == 2
        assert "--which" in capsys.readouterr().err
        assert main(["check", "--which", "weak", "--moments", str(zero_moments_file)]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == TOL.verdict


class TestFine:
    def test_infeasible_exit_one(self, moments_file, capsys):
        assert main(["fine", "--moments", str(moments_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["d_interval"] == pytest.approx([0.5, -0.5], abs=1e-12)
        assert "empty interval" in payload["certificate"]

    def test_feasible_exit_zero_with_witness(self, zero_moments_file, capsys):
        assert main(["fine", "--moments", str(zero_moments_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["d_interval"] == [-1.0, 1.0]
        assert payload["witness"]["weights"]["+++"] == pytest.approx(0.125, abs=0)

    @pytest.mark.parametrize("c13, code", [(-5e-10, 0), (-2e-9, 1)])
    def test_exits_like_check_weak_at_the_boundary(self, tmp_path, capsys, c13, code):
        # LG3.4 margin equals C13, and at four times LG4.4.hi = 2 - 4c equals
        # it too: inside epsilon = 1e-9 both commands pass, beyond it both fail
        c = 0.5 - c13 / 4
        for k, moments in enumerate([
            {"n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.5, 0.5, c13], "D": None},
            {"n": 4, "avg": [0] * 4, "pairs": [[1, 2], [2, 3], [3, 4], [1, 4]], "corr": [c, c, c, -c], "D": None},
        ]):
            p = tmp_path / f"edge{k}.json"
            p.write_text(json.dumps(moments))
            assert main(["check", "--moments", str(p), "--which", "weak"]) == code
            assert main(["fine", "--moments", str(p)]) == code

    @pytest.mark.parametrize("epsilon, code", [("1e-9", 1), ("1e-6", 1), ("1e-3", 0)])
    def test_four_time_epsilon_is_the_verdict_tolerance(self, tmp_path, capsys, epsilon, code):
        # LG4.4.hi = 2 - 4 * 0.5002 = -8e-4
        p = tmp_path / "m4.json"
        p.write_text(json.dumps({
            "n": 4, "avg": [0.0] * 4,
            "pairs": [[1, 2], [2, 3], [3, 4], [1, 4]], "corr": [0.5002, 0.5002, 0.5002, -0.5002], "D": None,
        }))
        assert main(["check", "--moments", str(p), "--which", "weak", "--epsilon", epsilon]) == code
        assert main(["fine", "--moments", str(p), "--epsilon", epsilon]) == code

    def test_four_time_moments_use_the_chord_interval(self, tmp_path, capsys):
        s = float(np.sqrt(2) / 2)
        p = tmp_path / "m4.json"
        p.write_text(json.dumps({
            "n": 4, "avg": [0.0] * 4,
            "pairs": [[1, 2], [2, 3], [3, 4], [1, 4]], "corr": [s, s, s, -s], "D": None,
        }))
        assert main(["fine", "--moments", str(p)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["d_interval"] == pytest.approx([2 * s - 1, 1 - 2 * s], abs=1e-12)
        assert "empty interval: chord correlator C13" in payload["certificate"]

    def test_env_epsilon_exits_like_check_weak(self, tmp_path, capsys):
        # LG3.4 margin -5e-7: outside the default epsilon, inside --epsilon 1e-6
        p = tmp_path / "edge.json"
        p.write_text(json.dumps({
            "n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.5, 0.5, -5e-7], "D": None,
        }))
        assert main(["fine", "--moments", str(p)]) == 1
        assert main(["check", "--moments", str(p), "--which", "weak", "--epsilon", "1e-6"]) == 0
        assert main(["fine", "--moments", str(p), "--epsilon", "1e-6"]) == 0
        assert main(["fine", "--moments", str(p), "--epsilon", "1e-9"]) == 1

    @pytest.mark.parametrize("value", ["inf", "-1"])
    def test_epsilon_flag_must_be_finite_nonnegative(self, zero_moments_file, capsys, value):
        assert main(["fine", "--moments", str(zero_moments_file), f"--epsilon={value}"]) == 2
        assert "--epsilon must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [3, 4])
    def test_given_triple_exits_two_from_check_and_fine(self, tmp_path, capsys, n):
        p = tmp_path / "m.json"
        # the zero set, which both commands pass with "D": null
        pairs = [[1, 2], [2, 3], [1, 3]] if n == 3 else [[1, 2], [2, 3], [3, 4], [1, 4]]
        p.write_text(json.dumps({"n": n, "avg": [0.0] * n, "pairs": pairs, "corr": [0.0] * n, "D": 0.5}))
        for command in ("check", "fine"):
            assert main(_argv(command, p)) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and len(err) < 200
            assert "moments: D must be null (the triple correlator is never measured), got 0.5" in err

    @pytest.mark.parametrize("moments, tolerance, flags", [
        ({**_THREE, "corr": [0, 0, 0]}, 1e-9, []),
        ({**_FOUR, "corr": [0, 0, 0, 0]}, 1e-9, []),
        # the near-boundary sets of TestCheckAndFineAgree mirrored just inside the boundary
        ({**_THREE, "corr": [0.5, 0.5, 5e-7]}, 1e-9, []),
        ({**_FOUR, "corr": [-0.5, -0.5, -0.5, 0.4999995]}, 1e-9, []),
        # those sets themselves have no joint: the witness is clipped inside the slack
        ({**_THREE, "corr": [0.5, 0.5, -5e-7]}, 1e-6, ["--epsilon", "1e-6"]),
        ({**_FOUR, "corr": [-0.5, -0.5, -0.5, 0.5000005]}, 1e-6, ["--epsilon", "1e-6"]),
        # distinct nonzero averages, so that a triangle reading the wrong average misses the moments
        ({**_THREE, "avg": [0.3, -0.2, 0.1], "corr": [0.2, -0.1, 0.3]}, 1e-9, []),
        ({**_FOUR, "avg": [0.3, -0.2, 0.1, 0.4], "corr": [0.2, -0.1, 0.3, 0.25]}, 1e-9, []),
    ], ids=["3-zero", "4-zero", "3-inside", "4-inside", "3-slack", "4-slack", "3-averages", "4-averages"])
    def test_witness_reproduces_the_moments(self, tmp_path, capsys, moments, tolerance, flags):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({**moments, "D": None}))
        assert main_strict(["fine", "--moments", str(p), *flags]) == 0
        want = moments["avg"] + moments["corr"]
        got = [0.0] * len(want)
        for key, w in json.loads(capsys.readouterr().out)["witness"]["weights"].items():
            s = [1 if ch == "+" else -1 for ch in key]
            products = s + [s[i - 1] * s[j - 1] for i, j in moments["pairs"]]
            got = [g + w * x for g, x in zip(got, products)]
        assert max(abs(g - x) for g, x in zip(got, want)) <= tolerance

    def test_triple_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "n": 3, "avg": [0.0] * 3,
            "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.0] * 3, "D": 0.5,
        }))
        assert main(["fine", "--moments", str(p)]) == 2
        assert "triple" in capsys.readouterr().err


class TestCheckAndFineAgree:
    """``fine`` reads its verdict from its own evaluation of the weak rows, so
    it exits as ``check --which weak`` does on every moments file, and prints
    the same with numpy warnings raised as errors: a warning on the witness
    path (the exact-boundary sets, the near-boundary sets clipped at 1e-6)
    fails."""

    # each set with its exit codes at the default epsilon, at 1e-6 and at 0
    SETS = [
        ({**_THREE, "corr": [0, 0, 0], "D": None}, (0, 0, 0)),
        # the third-turn set
        ({**_THREE, "corr": [0.5, 0.5, -0.5], "D": None}, (1, 1, 1)),
        # LG3.2 margin -5e-7
        ({**_THREE, "corr": [0.5, 0.5, -5e-7], "D": None}, (1, 0, 1)),
        ({**_THREE, "corr": [0, 0, 0], "D": 0.5}, (2, 2, 2)),
        ({**_FOUR, "corr": [0, 0, 0, 0], "D": None}, (0, 0, 0)),
        # fails LG4
        ({**_FOUR, "corr": [0.7, 0.7, 0.7, -0.7], "D": None}, (1, 1, 1)),
        # LG4.4.lo margin -5e-7
        ({**_FOUR, "corr": [-0.5, -0.5, -0.5, 0.5000005], "D": None}, (1, 0, 1)),
        # a negative two-time weight (LG2.12 margin -0.5) inside an open chord interval
        ({**_FOUR, "avg": [0.5, 0.5, 0, 0], "corr": [-0.5, 0, 0, 0], "D": None}, (1, 1, 1)),
        ({**_FOUR, "corr": [0, 0, 0, 0], "D": 0.5}, (2, 2, 2)),
        # sets 2 and 6 with their pairs out of canonical order, some reversed
        ({**_THREE, "pairs": [[3, 1], [2, 1], [3, 2]], "corr": [-0.5, 0.5, 0.5], "D": None}, (1, 1, 1)),
        ({**_FOUR, "pairs": [[4, 1], [3, 2], [2, 1], [4, 3]], "corr": [-0.7, 0.7, 0.7, 0.7], "D": None}, (1, 1, 1)),
        # exactly on the weak boundary: all averages 0, every correlator 1
        ({**_THREE, "corr": [1, 1, 1], "D": None}, (0, 0, 0)),
        ({**_FOUR, "corr": [1, 1, 1, 1], "D": None}, (0, 0, 0)),
        # set 15 is set 14 with its pairs out of canonical order, one reversed; its correlators are
        # distinct, so reading them in file order would give other moments, not a sign image
        ({**_THREE, "avg": [0.2, -0.1, 0], "corr": [0.6, 0.3, 0.1], "D": None}, (0, 0, 0)),
        ({**_THREE, "avg": [0.2, -0.1, 0], "pairs": [[2, 3], [3, 1], [1, 2]], "corr": [0.3, 0.1, 0.6], "D": None},
         (0, 0, 0)),
    ]
    TWINS = {10: 2, 11: 6, 15: 14}

    @pytest.mark.parametrize("k", range(1, len(SETS) + 1), ids=lambda k: f"set{k}")
    @pytest.mark.parametrize("e, flags", enumerate([[], ["--epsilon", "1e-6"], ["--epsilon", "0"]]),
                             ids=["eps-default", "eps-1e-6", "eps-0"])
    def test_exit_codes_and_output(self, tmp_path, capsys, k, e, flags):
        def run(command, moments, strict=False):
            p = tmp_path / "moments.json"
            p.write_text(json.dumps(moments))
            code = (main_strict if strict else main)([*_argv(command, p), *flags])
            return code, capsys.readouterr().out

        moments, codes = self.SETS[k - 1]
        fine = run("fine", moments)
        assert (run("check", moments)[0], fine[0]) == (codes[e], codes[e])
        assert run("fine", moments, strict=True) == fine
        if k in self.TWINS:
            assert run("fine", self.SETS[self.TWINS[k] - 1][0]) == fine


class TestModelAndMomentsRoutes:
    """A model file and the moments ``simulate`` prints for it give the same
    weak report, byte for byte, and ``fine`` on those moments exits alike."""

    @pytest.mark.parametrize("model", ["qubit_precession.json", "qubit_precession_4t.json", "commuting"])
    def test_check_and_fine_agree_across_routes(self, model, commuting_model_file, tmp_path, capsys):
        path = commuting_model_file if model == "commuting" else default_model_path().with_name(model)
        assert main(["simulate", "--model", str(path)]) == 0
        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps(json.loads(capsys.readouterr().out)["moments"]))
        by_model = main(["check", "--which", "weak", "--model", str(path)]), capsys.readouterr().out
        by_moments = main(["check", "--which", "weak", "--moments", str(moments)]), capsys.readouterr().out
        assert by_moments == by_model
        assert main(["fine", "--moments", str(moments)]) == by_model[0]


class TestSweep:
    def test_sweep_to_csv(self, tmp_path, capsys):
        spec = {
            "model": model_to_jsonable(precession_model()),
            "parameter": "tau", "from": 0.0, "to": float(2 * np.pi), "steps": 50,
            "outputs": ["correlators", "margins", "verdicts"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("tau,C_12")

    def test_t2_past_t3_exits_two_naming_the_times(self, tmp_path, capsys):
        spec = {
            "model": model_to_jsonable(precession_model()),
            "parameter": "t2", "from": 0.5, "to": 2.5, "steps": 11,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "times: must be non-decreasing, got (0.0, 2.1, 2.0)" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def assert_csv_equals_the_reference(tmp_path, spec):
        """The CSV ``sweep`` writes, under numpy warnings raised as errors, is
        the '%.17g' reference byte for byte."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        assert main_strict(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert out.read_bytes() == csv_reference(sweep_blocks(load_sweep_spec(spec_path))).encode()

    @pytest.mark.parametrize("name", list(sweep_specs()))
    def test_csv_equals_the_reference(self, tmp_path, name):
        self.assert_csv_equals_the_reference(tmp_path, sweep_specs()[name])

    def test_tau_to_100_equals_the_reference(self, tmp_path):
        # tau from 10 on puts the point among the digits after the first
        spec = json.loads(default_model_path().with_name("tau_sweep_lg3.json").read_text())
        self.assert_csv_equals_the_reference(tmp_path, {**spec, "to": 100})

    def test_unknown_output_rejected(self, tmp_path, capsys):
        spec = {
            "model": model_to_jsonable(precession_model()),
            "parameter": "tau", "from": 0.0, "to": 1.0, "steps": 5,
            "outputs": ["bogus"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown output" in capsys.readouterr().err


class TestCampaign:
    def test_small_campaign(self, capsys):
        assert main(["campaign", "--seed", "5", "--count", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"]["p_minus_q_identity"]["violations"] == 0

    @pytest.mark.parametrize("violating", [False, True])
    def test_prints_the_library_summary(self, capsys, monkeypatch, violating):
        if violating:
            # a contextual value past one, as in the harness campaign tests
            monkeypatch.setattr(harness, "sequential_moments", lambda tables: {("Q2", "1"): 0.5, ("Q3", "2"): -1.25})
        code = main(["campaign", "--seed", "1", "--count", "2", "--dim-min", "2", "--dim-max", "3"])
        summary = run_campaign(seed=1, count=2, dim_min=2, dim_max=3)
        assert capsys.readouterr().out == json.dumps(summary, indent=2) + "\n"
        assert bool(summary["violations"]) is violating
        assert code == (1 if summary["violations"] else 0)

    def test_thousand_models_keep_the_fine_and_dichotomy_checks(self, capsys):
        # fine_matches_mr_weak: the triple correlator's interval half width
        # against the smallest weak margin; dichotomy_preserved: Q(t)^2 = I after load
        assert main_strict(["campaign", "--seed", "3", "--count", "1000"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        for name, bound in (("fine_matches_mr_weak", 1e-12), ("dichotomy_preserved", 1e-10)):
            stats = checks[name]
            assert stats["samples"] == 1000 and stats["violations"] == 0 and stats["max_residual"] <= bound, stats

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "--count", "300"],
        # fine_matches_mr_weak does not read epsilon
        ["--seed", "3", "--count", "300", "--epsilon", "0"],
        # one factor per model at every block size
        ["--seed", "7", "--count", "200", "--dim-min", "2", "--dim-max", "16"],
    ], ids=["300", "300-eps-0", "200-dim-2-16"])
    def test_exits_zero_with_warnings_as_errors(self, capsys, argv):
        assert main_strict(["campaign", *argv]) == 0

    def test_zero_count(self, capsys):
        assert main(["campaign", "--seed", "5", "--count", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"] == {}

    def test_bad_dim_range(self, capsys):
        assert main(["campaign", "--seed", "5", "--count", "1", "--dim-min", "9",
                     "--dim-max", "2"]) == 2

    def test_negative_count(self, capsys):
        assert main(["campaign", "--seed", "1", "--count", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mrtest: error:") and "count must be nonnegative" in err
        assert "Traceback" not in err

    def test_negative_seed(self, capsys):
        assert main(["campaign", "--seed", "-1", "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mrtest: error:") and "seed" in err
        assert "Traceback" not in err


_MOMENTS = {
    "n": 3, "avg": [0.0, 0.0, 0.0],
    "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0.0, 0.0, 0.0], "D": None,
}
_SPEC = json.loads(default_model_path().with_name("tau_sweep_lg3.json").read_text())
_MODEL = _SPEC["model"]


def _argv(command, path):
    """The command line that reads ``path`` as its input file."""
    return {
        "fine": ["fine", "--moments", str(path)],
        "check": ["check", "--moments", str(path), "--which", "weak"],
        "sweep": ["sweep", "--spec", str(path), "--out", str(path.with_suffix(".csv"))],
        "simulate": ["simulate", "--model", str(path)],
    }[command]


class TestMalformedFiles:
    @pytest.mark.parametrize("command, obj, named", [
        ("fine", {**_MOMENTS, "corr": [0.0, 0.0]}, "pairs must be a list as long as corr"),
        ("fine", {**_MOMENTS, "D": "abc"}, "moments: D must"),
        ("fine", {**_MOMENTS, "n": "3"}, "moments: n must"),
        ("fine", {**_MOMENTS, "avg": [0.0, "x", 0.0]}, "moments: avg[1] must"),
        ("fine", {**_MOMENTS, "pairs": [[1, 2], [2, 3], [1]]}, "pairs[2] must"),
        ("fine", {**_MOMENTS, "pairs": [[1, 2], [2, 3], [1, 3], [2, 1]], "corr": [0.0] * 4},
         "pairs[3] repeats C12"),
        ("check", {**_MOMENTS, "corr": 0.5}, "moments: corr must"),
        ("sweep", {**_SPEC, "steps": "abc"}, "steps must"),
        ("sweep", {**_SPEC, "steps": 2.5}, "steps must"),
        ("sweep", {**_SPEC, "from": "abc"}, "from must"),
        ("sweep", {**_SPEC, "outputs": 5}, "outputs must"),
        ("sweep", {**_SPEC, "model": {**_MODEL, "dim": True}}, "dim must"),
        ("simulate", {**_MODEL, "dim": True}, "dim must"),
        # sigma_z with a boolean entry that would otherwise read as 1+0j
        ("simulate", {**_MODEL, "observable": [[[True, False], [0, 0]], [[0, 0], [-1, 0]]]},
         "observable[0][0]"),
        ("sweep", {**_SPEC, "to": float("inf")}, "to must be a finite number"),
        ("sweep", {**_SPEC, "parameter": "omega", "from": 0.0, "to": 1e308, "steps": 3},
         "omega to = 1e+308 scales the times"),
        # integers beyond the float range, one per field
        ("fine", {**_MOMENTS, "avg": [0, 10**400, 0]}, "moments: avg[1] must be within the float range"),
        ("check", {**_MOMENTS, "corr": [0, 0, -(10**400)]}, "moments: corr[2] must be within the float range"),
        ("fine", {**_MOMENTS, "D": 10**400}, "moments: D must be null (the triple correlator is never measured), "
         "got <401-digit integer>"),
        ("simulate", {**_MODEL, "times": [0, 10**400, 2]}, "model: times[1] must be within the float range"),
        ("simulate", {**_MODEL, "hamiltonian": [[[0, 0], [10**400, 0]], [[0.5, 0], [0, 0]]]},
         "hamiltonian[0][1] must be within the float range"),
        ("sweep", {**_SPEC, "from": 10**400}, "sweep: from must be within the float range"),
        ("sweep", {**_SPEC, "to": 10**400}, "sweep: to must be within the float range"),
        # huge values are echoed short
        ("simulate", {**_MODEL, "dim": 10**400}, "hamiltonian: expected <401-digit integer> rows"),
        ("fine", {**_MOMENTS, "n": 10**400}, "moments: n must be 3 or 4, got <401-digit integer>"),
        ("sweep", {**_SPEC, "steps": 10**400}, "sweep: steps must be in [2, 10^6], got <401-digit integer>"),
        ("check", {**_MOMENTS, "avg": [0.0] * 100_000 + ["x"]}, "moments: avg[100000] must be a number, got 'x'"),
        # the parameter is echoed as given, not as its str()
        ("sweep", {**_SPEC, "parameter": None}, "sweep: unknown parameter None,"),
        ("sweep", {**_SPEC, "parameter": 5}, "sweep: unknown parameter 5,"),
        # pair indices outside 1..n, a huge one echoed short
        ("fine", {**_MOMENTS, "pairs": [[1, 2], [2, 3], [1, 3], [1, 10**400]], "corr": [0.0] * 4},
         "moments: pairs[3] must be two time indices in 1..3, got [1, 1000"),
        ("check", {**_MOMENTS, "pairs": [[0, 1], [2, 3], [1, 3]]},
         "moments: pairs[0] must be two time indices in 1..3, got [0, 1]"),
        ("fine", {**_MOMENTS, "pairs": [[1, 2], [2, 3], [1, 3], [2, 2]], "corr": [0.0] * 4},
         "moments: unexpected pairs: C22"),
        # model invariants and shapes
        ("simulate", {**_MODEL, "dim": 17, **dict.fromkeys(("hamiltonian", "rho", "observable"), [[[0.0, 0.0]] * 17] * 17)},
         "hamiltonian: dimension must be in [2, 16], got 17"),
        ("simulate", {**_MODEL, "hamiltonian": [[[0.0, 0.0], [float("inf"), 0.0]], [[0.5, 0.0], [0.0, 0.0]]]},
         "hamiltonian: entries must be finite"),
        ("simulate", {**_MODEL, "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0]]]},
         "hamiltonian: row 1 must have 2 entries"),
        ("simulate", [_MODEL], "model: expected a JSON object"),
        ("simulate", {**_MODEL, "times": 5}, "model: times must be a list of numbers"),
        # sweep spec shapes, and a 2-time template
        ("sweep", [_SPEC], "sweep: expected a JSON object"),
        ("sweep", {k: v for k, v in _SPEC.items() if k != "steps"}, "sweep: missing fields: steps"),
        ("sweep", {**_SPEC, "parameter": "t3", "model": {**_MODEL, "times": [0.0, 1.0]}},
         "sweep: parameter t3 needs at least 3 times"),
        ("sweep", {**_SPEC, "parameter": "tau", "model": {**_MODEL, "times": [0.0, 1.0]}},
         "sweep: template must have 3 or 4 times, got 2"),
        # moments averages
        ("check", {**_MOMENTS, "avg": 5}, "moments: avg must be a list of numbers, got 5"),
        ("fine", {**_MOMENTS, "avg": [0.0, 0.0]}, "moments: expected 3 averages, got 2"),
        # model times read as the moments lists are
        ("simulate", {**_MODEL, "times": {"t": 0}}, "model: times must be a list of numbers, got {'t': 0}"),
        ("simulate", {**_MODEL, "times": [[0.0, 1.0, 2.0]]}, "model: times[0] must be a number, got [0.0, 1.0, 2.0]"),
    ])
    def test_exit_two_names_field(self, tmp_path, capsys, command, obj, named):
        p = tmp_path / "input.json"
        p.write_text(json.dumps(obj))
        assert main(_argv(command, p)) == 2
        err = capsys.readouterr().err
        assert err.startswith("mrtest: error:") and err.count("\n") == 1 and len(err) < 200
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        ("fine", b"\xff\xfe{"),
        ("simulate", b"\xff\xfe{"),
        ("sweep", b"\xff\xfe{"),
        ("fine", json.dumps({**_MOMENTS, "avg": [0, 0, 0]}).replace("[0, 0, 0]", "[0, " + "1" * 5000 + ", 0]", 1)),
        ("simulate", json.dumps({**_MODEL, "times": [0, 1, 2]}).replace("[0, 1, 2]", "[0, 1, " + "2" * 5000 + "]")),
        ("sweep", json.dumps({**_SPEC, "from": 0}).replace('"from": 0', '"from": ' + "1" * 5000)),
        ("check", "[" * 100_000),
    ], ids=["moments-not-utf8", "model-not-utf8", "sweep-not-utf8",
            "moments-long-int", "model-long-int", "sweep-long-int", "moments-deep-nesting"])
    def test_unreadable_file_exits_two_naming_the_path(self, tmp_path, capsys, command, text):
        p = tmp_path / "input.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(_argv(command, p)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mrtest: error: {p}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("parameter", ["tau", "omega"])
    def test_overflow_reports_only_the_error(self, tmp_path, capsys, parameter):
        # t0 + 2*tau and omega*t overflow: no numpy warning may precede the error line
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**_SPEC, "parameter": parameter, "from": 0.0, "to": 1e308, "steps": 3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--spec", str(p), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("mrtest: error:")


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mrtest.cli", "simulate", "--model", str(default_model_path())],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["times"] == [0.0, 1.0, 2.0]

    def test_main_guard_exits_with_mains_code(self, monkeypatch, capsys):
        # in process, as ``python -m mrtest.cli`` runs it: the weak check fails on the shipped model
        argv = ["mrtest", "check", "--which", "weak", "--model", str(default_model_path())]
        monkeypatch.setattr(sys, "argv", argv)
        # a fresh run, not the imported module, as runpy warns when it finds that one
        monkeypatch.delitem(sys.modules, "mrtest.cli")
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("mrtest.cli", run_name="__main__")
        guarded = capsys.readouterr()
        assert exit_info.value.code == main(argv[1:]) == 1
        assert capsys.readouterr() == guarded and guarded.out

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mrtest.cli", "check", "--which", "weird"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

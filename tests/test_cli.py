"""End-to-end runs of the command-line front end through main(argv)."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from hullgap.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_REFUSED,
    _build_parser,
    main,
)
from hullgap import cli
from hullgap.errors import InternalInconsistencyError, VerificationError
from hullgap.lipmetric import MAX_POINTS, dump_metric, geometric_chain, line_metric


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


class TestLip:
    def test_constant_function_has_zero_seminorm(self, capsys):
        code, doc = run_json(
            capsys, "lip", "--metric", "chain(0.1,4)", "--values", "3,3,3,3"
        )
        assert code == EXIT_OK
        assert doc["seminorm"] == 0.0
        assert doc["points"] == 4

    def test_distance_to_base_point_has_seminorm_one(self, capsys, tmp_path):
        M = line_metric([0.0, 1.0, 2.5, 7.0])
        path = tmp_path / "line.metric"
        path.write_text(dump_metric(M))
        vals = ",".join(repr(M.d(i, 0)) for i in range(M.size))
        code, doc = run_json(capsys, "lip", "--metric", str(path), "--values", vals)
        assert code == EXIT_OK
        assert doc["seminorm"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_three_level_chain(self, capsys):
        # oracle: max over the three pairs of |f_i - f_j| / d_ij
        M = geometric_chain(0.1, 3)
        f = np.array([0.0, 0.1, 0.01])
        quot = max(
            abs(f[i] - f[j]) / M.d(i, j)
            for i in range(3)
            for j in range(i + 1, 3)
        )
        code, doc = run_json(
            capsys, "lip", "--metric", "chain(0.1,3)", "--values", "0,0.1,0.01"
        )
        assert code == EXIT_OK
        assert doc["seminorm"] == pytest.approx(quot, abs=1e-12)
        assert doc["seminorm"] == pytest.approx(1.0, abs=1e-12)

    def test_masked_extension_agrees_and_matches_restricted(self, capsys):
        code, doc = run_json(
            capsys,
            "lip", "--metric", "chain(0.5,5)",
            "--values", "0,1,0,0,0", "--mask", "0,1",
        )
        assert code == EXIT_OK
        ext = doc["extension"]
        assert ext["agrees_on_mask"] is True
        assert ext["seminorm"] == pytest.approx(doc["seminorm"], abs=1e-12)
        assert len(ext["values"]) == 5

    def test_values_file_input(self, capsys, tmp_path):
        vf = tmp_path / "vals.txt"
        vf.write_text("0 0.1 0.01\n")
        code, doc = run_json(
            capsys, "lip", "--metric", "chain(0.1,3)", "--values", f"@{vf}"
        )
        assert code == EXIT_OK
        assert doc["seminorm"] == pytest.approx(1.0, abs=1e-12)

    def test_wrong_value_count_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "lip", "--metric", "chain(0.1,3)", "--values", "0,1"
        )
        assert code == EXIT_INPUT
        assert "3 points" in err

    @pytest.mark.parametrize("values", ["1,2,3,nan", "1,inf,3,4"])
    def test_non_finite_value_is_input_error(self, capsys, values):
        code, out, err = run(capsys, "lip", "--metric", "chain(0.5,4)", "--values", values)
        assert code == EXIT_INPUT
        assert out == "" and "non-finite" in err

    def test_csv_format_rejected(self, capsys):
        # lip writes JSON only, so it takes no --format at all
        for fmt in ("csv", "json"):
            code, out, err = run(
                capsys,
                "lip", "--metric", "chain(0.1,3)", "--values", "0,1,2",
                "--format", fmt,
            )
            assert code == EXIT_INPUT

    def test_config_echoed(self, capsys):
        code, doc = run_json(
            capsys, "lip", "--metric", "chain(0.1,3)", "--values", "1,2,3"
        )
        assert doc["config"]["command"] == "lip"
        assert doc["config"]["metric"] == "chain(0.1,3)"
        assert doc["config"]["values"] == "1,2,3"
        # every flag of every command, the ones lip does not read at their defaults
        assert set(doc["config"]) == {
            "command", "space", "metric", "family", "values", "mask", "n", "eps", "alpha",
            "k", "m", "budget", "seed", "resolution", "out", "format",
        }
        assert doc["config"]["alpha"] == 1.0 and doc["config"]["budget"] == 8
        assert doc["config"]["seed"] is None and doc["config"]["format"] is None


class TestRings:
    def test_chain_family_of_three(self, capsys, tmp_path):
        out_path = tmp_path / "family.json"
        code, out, err = run(
            capsys,
            "rings", "--metric", "chain(0.01,12)", "--eps", "0.5",
            "--k", "3", "--out", str(out_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["size"] >= 3
        assert doc["validation"]["passed"] is True
        assert len(doc["family"]["entries"]) == doc["size"]

    def test_two_point_space_not_found(self, capsys, tmp_path):
        path = tmp_path / "two.metric"
        path.write_text(dump_metric(line_metric([0.0, 1.0])))
        code, doc = run_json(
            capsys, "rings", "--metric", str(path), "--eps", "0.5", "--k", "2"
        )
        assert code == EXIT_NOT_FOUND
        assert doc["not_found"]["accepted"] < 2
        assert doc["not_found"]["pairs_examined"] >= 1

    def test_malformed_metric_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.metric"
        path.write_text("3\n0 1 2\n1 0 oops\n2 1 0\n")
        code, out, err = run(
            capsys, "rings", "--metric", str(path), "--eps", "0.5", "--k", "2"
        )
        assert code == EXIT_INPUT
        assert "line 3" in err

    def test_missing_eps_is_input_error(self, capsys):
        code, out, err = run(capsys, "rings", "--metric", "chain(0.01,12)", "--k", "3")
        assert code == EXIT_INPUT
        assert "--eps" in err


class TestCert:
    def test_centralizer_sup8_passes_quarter_bound(self, capsys):
        code, doc = run_json(
            capsys,
            "cert", "--space", "lp(inf,8)", "--n", "2", "--eps", "0.2",
            "--m", "8", "--seed", "7",
        )
        assert code == EXIT_OK
        assert doc["route"] == "partition"
        assert doc["report"]["passed"] is True
        mix = [c for c in doc["report"]["checks"] if c["name"].startswith("mix-approx")]
        assert mix
        assert all(c["value"] <= 0.25 + 1e-12 for c in mix)

    def test_ivakhno_chain_passes_five_thirds(self, capsys):
        code, doc = run_json(
            capsys,
            "cert", "--metric", "chain(0.01,12)", "--n", "2", "--eps", "0.5",
            "--k", "3", "--seed", "3",
        )
        assert code == EXIT_OK
        assert doc["route"] == "annulus"
        assert doc["family_validation"]["passed"] is True
        assert doc["report"]["passed"] is True
        mix = [c for c in doc["report"]["checks"] if c["name"].startswith("mix-approx")]
        assert mix
        assert all(c["value"] <= 5.0 / 3.0 + 1e-9 for c in mix)

    def test_family_file_round_trip(self, capsys, tmp_path):
        fam_path = tmp_path / "family.json"
        code, _, _ = run(
            capsys,
            "rings", "--metric", "chain(0.01,12)", "--eps", "0.5",
            "--k", "3", "--out", str(fam_path),
        )
        assert code == EXIT_OK
        code, doc = run_json(
            capsys,
            "cert", "--metric", "chain(0.01,12)", "--family", str(fam_path),
            "--n", "1", "--eps", "0.5", "--k", "3", "--seed", "11",
        )
        assert code == EXIT_OK
        assert doc["report"]["passed"] is True

    def test_corrupted_family_fails_named_check(self, capsys, tmp_path):
        fam_path = tmp_path / "family.json"
        run(
            capsys,
            "rings", "--metric", "chain(0.01,12)", "--eps", "0.5",
            "--k", "3", "--out", str(fam_path),
        )
        doc = json.loads(fam_path.read_text())
        doc["family"]["entries"][0]["R"] *= 0.01
        fam_path.write_text(json.dumps(doc["family"]))
        code, rep = run_json(
            capsys,
            "cert", "--metric", "chain(0.01,12)", "--family", str(fam_path),
            "--n", "1", "--eps", "0.5", "--k", "3", "--seed", "11",
        )
        assert code == EXIT_FAIL
        assert rep["family_validation"]["passed"] is False
        failing = [
            c["name"] for c in rep["family_validation"]["checks"] if not c["passed"]
        ]
        assert any("outer-ratio" in name or "radius-order" in name for name in failing)
        assert rep["report"] is None

    def test_space_and_metric_together_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "cert", "--space", "lp(inf,8)", "--metric", "chain(0.1,3)",
            "--n", "1", "--eps", "0.2", "--m", "2", "--seed", "0",
        )
        assert code == EXIT_INPUT
        assert "exactly one" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--space", "lp(inf,8)", "--m", "2", "--family", "f.json"], "--family"),
        (["--space", "lp(inf,8)", "--m", "2", "--k", "2"], "--k"),
        (["--metric", "chain(0.01,12)", "--k", "3", "--m", "3"], "--m"),
    ])
    def test_flags_of_the_other_route_are_refused(self, capsys, argv, flag):
        # the family file is never opened: the refusal comes first
        code, out, err = run(capsys, "cert", *argv, "--n", "1", "--eps", "0.5", "--seed", "0")
        assert code == EXIT_INPUT
        assert out == "" and flag in err

    @pytest.mark.parametrize("route", [
        ["--space", "lp(inf,8)", "--m", "2"],
        ["--metric", "chain(0.01,12)", "--k", "2"],
    ])
    def test_empty_tuple_is_input_error(self, capsys, route):
        code, out, err = run(capsys, "cert", *route, "--n", "0", "--eps", "0.5", "--seed", "0")
        assert code == EXIT_INPUT
        assert out == "" and "n must be a positive integer" in err

    def test_seed_required(self, capsys):
        code, out, err = run(
            capsys, "cert", "--space", "lp(inf,8)", "--n", "1", "--eps", "0.2",
            "--m", "2",
        )
        assert code == EXIT_INPUT
        assert "--seed" in err


FAMILY = "<a family built by rings --eps 0.5 --k 3>"
EPS_OUTSIDE = ("0", "-0.5", "nan", "inf", "2")
CERT_SPACE = ["cert", "--space", "lp(inf,4)", "--n", "2", "--seed", "5"]
CERT_METRIC = ["cert", "--metric", "chain(0.01,12)", "--n", "2", "--k", "3", "--seed", "7"]


@pytest.mark.parametrize("argv, says", [
    *[pytest.param(CERT_SPACE + ["--m", "4", f"--eps={e}"], "epsilon must lie in (0, 1)",
                   id=f"cert-space-eps={e}") for e in EPS_OUTSIDE],
    *[pytest.param(CERT_METRIC + [f"--eps={e}"], "epsilon must lie in (0, 1)",
                   id=f"cert-metric-eps={e}") for e in EPS_OUTSIDE],
    pytest.param(CERT_SPACE + ["--m", "0", "--eps", "0.2"], "m must be a positive integer",
                 id="cert-space-m=0"),
    *[pytest.param(CERT_METRIC + ["--family", FAMILY, "--eps", e], "family was built for epsilon=0.5",
                   id=f"cert-family-eps={e}") for e in ("0.1", "0.01")],
    *[pytest.param(["dk", "--space", "lp(inf,2)", "--n", "2", "--eps", "0.2", "--k", "1..2",
                    "--seed", "0", f"--budget={b}"], "--budget: must be at least 1",
                   id=f"dk-budget={b}") for b in ("0", "-3")],
])
def test_parameters_outside_their_domain_exit_two(capsys, tmp_path, argv, says):
    # cert on both routes and dk accept the same n, eps and m (CmParams), a
    # supplied family only at the eps it was built for, and a budget of at least 1
    fam_path, out_path = tmp_path / "family.json", tmp_path / "x.out"
    if FAMILY in argv:
        assert main(["rings", "--metric", "chain(0.01,12)", "--eps", "0.5", "--k", "3",
                     "--out", str(fam_path)]) == EXIT_OK
        argv = [str(fam_path) if a == FAMILY else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_INPUT
    assert out == "" and says in err and not out_path.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["dk", "--space", "lp(2", "--n", "2", "--eps", "2", "--k", "x", "--seed", "0"], id="dk"),
    pytest.param(["cert", "--space", "lp(2", "--n", "2", "--eps", "2", "--m", "1", "--seed", "0"], id="cert"),
])
def test_the_parameter_check_comes_before_the_space(capsys, argv):
    # an input bad in its epsilon and in its space (and, on dk, its k range)
    # gets the same first refusal on both commands
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert "epsilon must lie in (0, 1)" in err and "lp(2" not in err


class TestDk:
    def test_scalar_grid_profile_csv(self, capsys):
        code, out, err = run(
            capsys,
            "dk", "--space", "lp(2,1)", "--n", "2", "--eps", "0.1",
            "--alpha", "1", "--k", "1..4", "--resolution", "0.01", "--seed", "0",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        preamble = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# command=") for ln in preamble)
        body = [ln for ln in lines if not ln.startswith("# ")]
        assert body[0] == "k,lower,upper,method,witness-id"
        rows = {}
        for ln in body[1:]:
            k, lower, upper, method, wid = ln.split(",")
            rows[int(k)] = (float(lower), float(upper), method, wid)
        assert set(rows) == {1, 2, 3, 4}
        lo1, up1, _, wid1 = rows[1]
        assert 1.75 <= lo1 <= 1.8 <= up1 <= 1.85
        assert wid1
        for k in (2, 3, 4):
            lo, up, _, _ = rows[k]
            assert 0.85 <= lo <= 0.9 <= up <= 0.95

    def test_function_module_constructive_route(self, capsys):
        code, out, err = run(
            capsys,
            "dk", "--space", "fmod(8, lp(2,1))", "--n", "2", "--eps", "0.2",
            "--k", "1..8", "--seed", "1",
        )
        assert code == EXIT_OK
        body = [ln for ln in out.splitlines() if not ln.startswith("# ")]
        assert body[0] == "k,lower,upper,method,witness-id"
        for ln in body[1:]:
            k, _, upper, method, _ = ln.split(",")
            assert float(upper) == pytest.approx(2.0 / int(k), abs=1e-15)
            assert method == "partition-ceiling"
        assert len(body) == 9

    def test_json_format(self, capsys):
        code, doc = run_json(
            capsys,
            "dk", "--space", "fmod(4, lp(2,1))", "--n", "1", "--eps", "0.2",
            "--k", "1,2", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        assert doc["route"] == "partition-ceiling"
        assert set(doc["profile"]["entries"]) == {"1", "2"}

    def test_function_module_refuses_alpha_below_one(self, capsys):
        # the partition panel is verified for alpha = 1 only
        code, out, err = run(
            capsys,
            "dk", "--space", "fmod(4, lp(2,1))", "--n", "2", "--eps", "0.2",
            "--alpha", "0.85", "--k", "1..4", "--seed", "0", "--format", "json",
        )
        assert code == EXIT_INPUT
        assert not out and "--alpha" in err

    def test_function_module_ceilings_hold_above_alpha_one(self, capsys):
        # the hull only grows with alpha, so the alpha = 1 ceilings stand
        docs = {}
        for alpha in ("1", "1.2"):
            code, docs[alpha] = run_json(
                capsys,
                "dk", "--space", "fmod(4, lp(2,1))", "--n", "2", "--eps", "0.2",
                "--alpha", alpha, "--k", "1..4", "--seed", "0", "--format", "json",
            )
            assert code == EXIT_OK
        assert docs["1.2"]["profile"]["alpha"] == 1.2
        assert docs["1.2"]["profile"]["entries"] == docs["1"]["profile"]["entries"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        argv = [
            "dk", "--space", "lp(2,2)", "--n", "2", "--eps", "0.25",
            "--k", "1..3", "--resolution", "0.25", "--seed", "9",
            "--out", str(out),
        ]
        assert main(list(argv)) == EXIT_OK
        first = out.read_bytes()
        assert main(list(argv)) == EXIT_OK
        assert out.read_bytes() == first

    def test_cert_byte_identical_reruns(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "cert", "--space", "lp(inf,4)", "--n", "2", "--eps", "0.2",
            "--m", "4", "--seed", "21", "--out", str(out),
        ]
        assert main(list(argv)) == EXIT_OK
        first = out.read_bytes()
        assert main(list(argv)) == EXIT_OK
        assert out.read_bytes() == first

    def test_grid_guard_refusal(self, capsys):
        code, doc = run_json(
            capsys,
            "dk", "--space", "lp(inf,4)", "--n", "4", "--eps", "0.2",
            "--k", "1..2", "--resolution", "0.05", "--seed", "0",
        )
        assert code == EXIT_REFUSED
        assert "refusal" in doc
        assert doc["report"]["required_resolution"] > 0.05

    def test_grid_too_coarse_refusal(self, capsys):
        # no grid point at step 0.3 is a strict member: (0.9, 0.9) has mean 0.9
        code, doc = run_json(
            capsys,
            "dk", "--space", "lp(2,1)", "--n", "2", "--eps", "0.05",
            "--k", "1..2", "--resolution", "0.3", "--seed", "0",
        )
        assert code == EXIT_REFUSED
        assert doc["refusal"] == "grid too coarse: no members at this resolution"
        assert doc["report"]["strict_members"] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--resolution", "0"), ("--resolution", "inf"), ("--resolution", "nan"), ("--alpha", "inf"),
    ])
    def test_bad_grid_and_alpha_values_are_input_errors(self, capsys, flag, value):
        code, out, err = run(
            capsys,
            "dk", "--space", "lp(2,1)", "--n", "2", "--eps", "0.2",
            "--k", "1..2", "--seed", "0", flag, value,
        )
        assert code == EXIT_INPUT
        assert out == "" and flag[2:] in err

    def test_empty_constraint_set_is_refused_before_the_grid_guard(self, capsys):
        # alpha 0.5 <= 1 - eps, and a step of 1e-4 is far over the guard
        code, out, err = run(
            capsys,
            "dk", "--space", "lp(2,1)", "--n", "2", "--eps", "0.2", "--alpha", "0.5",
            "--k", "1..2", "--seed", "0", "--resolution", "1e-4",
        )
        assert code == EXIT_INPUT
        assert out == "" and "empty" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_ceiling_route_checks_alpha_like_the_sweep(self, capsys, value):
        code, out, err = run(
            capsys,
            "dk", "--space", "fmod(4, lp(2,1))", "--n", "2", "--eps", "0.2",
            "--k", "1..2", "--seed", "0", "--alpha", value, "--format", "json",
        )
        assert code == EXIT_INPUT
        assert out == "" and "alpha" in err

    def test_function_module_refuses_resolution(self, capsys):
        # the partition-ceiling route runs no grid
        code, out, err = run(
            capsys,
            "dk", "--space", "fmod(4, lp(2,1))", "--n", "2", "--eps", "0.2",
            "--k", "1..2", "--seed", "0", "--resolution", "0.1",
        )
        assert code == EXIT_INPUT
        assert out == "" and "--resolution" in err

    def test_bad_space_grammar(self, capsys):
        code, out, err = run(
            capsys,
            "dk", "--space", "wedge(2)", "--n", "1", "--eps", "0.2",
            "--k", "1", "--seed", "0",
        )
        assert code == EXIT_INPUT
        assert "constructor" in err

    @pytest.mark.parametrize("depth, code", [(190, EXIT_OK), (450, EXIT_INPUT), (1200, EXIT_INPUT)])
    def test_deep_nesting(self, capsys, depth, code):
        # past 200 nested parentheses the grammar refuses the space; below,
        # every walker of the space runs within the recursion limit
        space = "sup(1, " * depth + "lp(2,1)" + ")" * depth
        got, out, err = run(
            capsys,
            "dk", "--space", space, "--n", "2", "--eps", "0.2",
            "--k", "1..2", "--budget", "1", "--seed", "0",
        )
        assert got == code
        assert (out != "") == (code == EXIT_OK)
        assert "Traceback" not in err

    def test_empty_k_range(self, capsys):
        code, out, err = run(
            capsys,
            "dk", "--space", "lp(2,1)", "--n", "1", "--eps", "0.2",
            "--k", "4..1", "--seed", "0",
        )
        assert code == EXIT_INPUT

    def test_seed_required(self, capsys):
        code, out, err = run(
            capsys, "dk", "--space", "lp(2,1)", "--n", "1", "--eps", "0.2", "--k", "1"
        )
        assert code == EXIT_INPUT
        assert "--seed" in err


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        ["lip", "--metric", "chain(0.5,4)", "--values", "1,2,3,4"],
        # a refusal document goes to --out too
        ["dk", "--space", "lp(inf,4)", "--n", "4", "--eps", "0.2",
         "--k", "1..2", "--resolution", "0.05", "--seed", "0"],
    ])
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing_dir" / "x.json")
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == EXIT_INPUT
        assert out == "" and path in err

    @pytest.mark.parametrize("error", [VerificationError, InternalInconsistencyError])
    def test_failed_check_exits_one(self, capsys, monkeypatch, error):
        def failing(cfg):
            raise error("a check failed")

        monkeypatch.setitem(cli._COMMANDS, "lip", (failing,) + cli._COMMANDS["lip"][1:])
        code, out, err = run(capsys, "lip", "--metric", "chain(0.5,4)", "--values", "1,2,3,4")
        assert code == EXIT_FAIL
        assert out == "" and err == "hullgap lip: a check failed\n"

    @pytest.mark.parametrize("argv", [
        ["lip", "--metric", "chain(0.5,4)", "--values", "1,2,3,4", "--seed", "3"],
        ["rings", "--metric", "chain(0.01,12)", "--eps", "0.5", "--k", "3", "--budget", "99"],
        ["cert", "--space", "lp(inf,8)", "--n", "1", "--eps", "0.2", "--m", "2",
         "--seed", "0", "--alpha", "2"],
        ["dk", "--space", "lp(2,1)", "--n", "1", "--eps", "0.2", "--k", "1",
         "--seed", "0", "--m", "2"],
    ])
    def test_unread_flag_is_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "x.out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_INPUT
        assert out == "" and argv[-2] in err and not path.exists()

    def test_no_arguments_is_input_error(self, capsys):
        assert main([]) == EXIT_INPUT
        capsys.readouterr()

    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        cap = capsys.readouterr()
        assert "rings" in cap.out

    def test_missing_metric_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "lip", "--metric", str(tmp_path / "nope.metric"), "--values", "0",
        )
        assert code == EXIT_INPUT

    def test_ray_generator_accepted(self, capsys):
        code, doc = run_json(
            capsys, "lip", "--metric", "ray(2,4)", "--values", "0,1,2,3"
        )
        assert code == EXIT_OK
        assert doc["points"] == 4

    @pytest.mark.parametrize("metric", [
        "chain(0.5,8.7)", "chain(0.5,8.0)", "chain(0.5,8e0)", "ray(2,1e400)", "ray(2,4.5)",
    ])
    def test_level_count_must_be_an_integer(self, capsys, metric):
        code, out, err = run(capsys, "lip", "--metric", metric, "--values=0,1,2,3,4,5,6,7")
        assert code == EXIT_INPUT
        assert out == "" and "must be an integer" in err

    def test_inline_metric_above_the_point_cap_is_refused(self, capsys, tmp_path):
        # refused before the chain is built: its triangle sweep would run for hours
        path = tmp_path / "refusal.json"
        start = time.perf_counter()
        code, out, err = run(
            capsys, "lip", "--metric", "chain(0.999,100000)", "--values", "0", "--out", str(path)
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_REFUSED and out == ""
        doc = json.loads(path.read_text())
        assert doc["report"] == {"points": 100000, "cap": MAX_POINTS}

    def test_metric_file_above_the_point_cap_is_refused(self, capsys, tmp_path):
        # the header alone decides: no row is read
        path = tmp_path / "big.metric"
        path.write_text("100000\n0 1\n1 0\n")
        start = time.perf_counter()
        code, doc = run_json(capsys, "lip", "--metric", str(path), "--values", "0,1")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_REFUSED
        assert doc["report"] == {"points": 100000, "cap": MAX_POINTS}

    def test_oversized_metric_file_is_refused_before_its_rows_are_read(self, capsys, tmp_path):
        # 3,000 rows of 3,000 entries (36 MB) under a header of 100000 points
        path = tmp_path / "huge.metric"
        with open(path, "w") as fh:
            fh.write("\n100000\n")
            row = "0.0 " * 3000 + "\n"
            for _ in range(3000):
                fh.write(row)
        _build_parser()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "lip", "--metric", str(path), "--values", "0",
                                 "--out", str(tmp_path / "refusal.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_REFUSED and out == ""
        assert peak < 1_000_000, peak

    def test_ray_past_the_float_range_is_input_error(self, capsys):
        # 2.0 ** 1999 raises OverflowError in Python; the metric refuses it
        code, out, err = run(capsys, "lip", "--metric", "ray(2,2000)", "--values", "0")
        assert code == EXIT_INPUT
        assert out == "" and "overflows" in err

    @pytest.mark.parametrize("argv", [
        ["rings", "--m", "chain(0.01,12)", "--eps", "0.5", "--k", "3"],
        ["rings", "--metric", "chain(0.01,12)", "--ep", "0.5", "--k", "3"],
        ["lip", "--metric", "chain(0.5,4)", "--val", "1,2,3,4"],
        ["cert", "--space", "lp(inf,8)", "--n", "1", "--eps", "0.2", "--m", "2", "--se", "0"],
        ["dk", "--space", "lp(2,1)", "--n", "1", "--eps", "0.2", "--k", "1", "--seed", "0",
         "--res", "0.1"],
        ["dk", "--space", "lp(2,1)", "--n", "1", "--eps", "0.2", "--k", "1", "--seed", "0",
         "--form", "json"],
    ])
    def test_abbreviated_flag_is_input_error(self, capsys, tmp_path, argv):
        # argparse's prefix matching is off: a shortened flag names no flag
        path = tmp_path / "x.out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_INPUT
        assert out == "" and not path.exists()

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process: a refused parse and another
        # command in between leave the same dk run byte-identical
        dk = ["dk", "--space", "lp(inf,3)", "--n", "2", "--eps", "0.2", "--k", "1..2",
              "--budget", "1", "--seed", "5", "--format", "json"]
        code, first, _ = run(capsys, *dk)
        assert code == EXIT_OK and first
        assert run(capsys, *dk, "--frobnicate")[0] == EXIT_INPUT
        assert run(capsys, "lip", "--metric", "chain(0.1,4)", "--values", "3,3,3,3")[0] == EXIT_OK
        assert run(capsys, *dk) == (EXIT_OK, first, "")
        assert _build_parser() is _build_parser()

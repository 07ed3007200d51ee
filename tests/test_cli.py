import io
import json
import sys
from fractions import Fraction

import pytest

from helpers import CLI_GOLDEN, MALFORMED_CONFIGS, cli_golden_lines
from hyperoct.cli import FISHER_MAX, PROPERTY_G_MAX, main
from hyperoct.orbit import DesignConfig, make_config
from hyperoct.tight import fisher_bound, tight_5_3d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def write_config(tmp_path, cfg: DesignConfig):
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return str(path)


class TestFisher:
    def test_published_value(self, capsys):
        code, data = run_json(capsys, "fisher", "--n", "3", "--p", "3", "--t", "7")
        assert code == 0 and data["value"] == 26

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "--pretty", "fisher", "--n", "4", "--p", "2", "--t", "7")
        assert code == 0 and "48" in out

    def test_cap(self, capsys):
        # the largest accepted --n, --p and --t compute; one more on any of them is refused
        # before the bound is computed
        code, data = run_json(capsys, "fisher", "--n", str(FISHER_MAX), "--p", "2", "--t", str(FISHER_MAX))
        assert code == 0 and data["value"] == fisher_bound(FISHER_MAX, 2, FISHER_MAX).value
        for option in ("--n", "--p", "--t"):
            argv = {"--n": "3", "--p": "2", "--t": "5", option: str(FISHER_MAX + 1)}
            code, out, err = run(capsys, "fisher", *(item for pair in argv.items() for item in pair))
            assert code == 2 and out == "" and f"{option} {FISHER_MAX + 1}" in err


class TestPropertyG:
    def test_full_list(self, capsys):
        from helpers import PROPERTY_G_LE_100

        code, data = run_json(capsys, "property-g", "--max", "100")
        assert code == 0
        assert data["values"] == PROPERTY_G_LE_100
        assert data["witnesses"]["8"] == [1, 4]

    def test_cap(self, capsys):
        # the largest accepted --max scans; one more is refused before any scan
        from helpers import PROPERTY_G_LE_100

        code, data = run_json(capsys, "property-g", "--max", str(PROPERTY_G_MAX))
        assert code == 0 and data["values"][: len(PROPERTY_G_LE_100)] == PROPERTY_G_LE_100
        code, out, err = run(capsys, "property-g", "--max", str(PROPERTY_G_MAX + 1))
        assert code == 2 and out == "" and str(PROPERTY_G_MAX) in err


class TestOrbit:
    def test_count_only(self, capsys):
        code, data = run_json(capsys, "orbit", "--n", "3", "--k", "2", "--count-only")
        assert code == 0 and data["count"] == 12 and "points" not in data

    def test_points(self, capsys):
        code, data = run_json(capsys, "orbit", "--n", "3", "--k", "1")
        assert code == 0 and len(data["points"]) == 6

    def test_bad_k_is_usage_error(self, capsys):
        code, out, err = run(capsys, "orbit", "--n", "3", "--k", "7")
        assert code == 2 and "error" in err


class TestVerifyAndClassify:
    def test_verify_pass(self, capsys, tmp_path):
        path = write_config(tmp_path, tight_5_3d(1, 2, 1))
        code, data = run_json(capsys, "verify", "--config", path, "--t", "5")
        assert code == 0 and data["is_design"] is True

    def test_verify_fail_exit_code_and_witness(self, capsys, tmp_path):
        path = write_config(tmp_path, tight_5_3d(1, 2, 1))
        code, out, _ = run(capsys, "verify", "--config", path, "--t", "7")
        data = json.loads(out)
        assert code == 1 and data["is_design"] is False
        assert data["first_failure"]["degree"] == 6

    def test_classify(self, capsys, tmp_path):
        path = write_config(tmp_path, make_config(3, [(2, 1, 1)]))
        code, data = run_json(capsys, "classify", "--config", path)
        assert code == 0 and data["strength"] == 3
        assert data["method"] == "closed-form"

    def test_verify_and_classify_agree(self, capsys, tmp_path):
        for cfg in (tight_5_3d(1, 2, 1), make_config(4, [(2, 1, 1)])):
            path = write_config(tmp_path, cfg)
            _, report = run_json(capsys, "classify", "--config", path)
            t = report["strength"]
            assert run(capsys, "verify", "--config", path, "--t", str(t))[0] == 0
            assert run(capsys, "verify", "--config", path, "--t", str(t + 1))[0] == 1

    def test_negative_strength_is_usage_error(self, capsys, tmp_path):
        path = write_config(tmp_path, tight_5_3d(1, 2, 1))
        code, out, err = run(capsys, "verify", "--config", path, "--t", "-3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("field", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MALFORMED_CONFIGS[field]))
        code, out, err = run(capsys, "classify", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--config", "/nonexistent.json", "--t", "3")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv", [["classify"], ["verify", "--t", "3"]])
    def test_integer_over_the_digit_limit_is_a_config_error(self, capsys, tmp_path, argv):
        # the interpreter's own text named no field and advised a call a CLI user cannot make
        path = tmp_path / "config.json"
        path.write_text('{"n": ' + "1" * 5000 + ', "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}')
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: configuration: an integer has more than {limit} digits, the limit for reading one\n"

    @pytest.mark.parametrize(
        "content, message",
        [(b"{n: 3}", "error: Expecting property name"), (b"\xff{}", "error: 'utf-8' codec can't decode byte 0xff")],
    )
    def test_syntax_and_encoding_errors_keep_their_messages(self, capsys, tmp_path, content, message):
        # both are ValueError subclasses, which the digit-limit message must not swallow
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "classify", "--config", str(path))
        assert code == 2 and out == "" and err.startswith(message)


@pytest.mark.parametrize(
    "config, argv",
    [
        ("[" * 100_000, ["classify", "--config", "{path}"]),
        (json.dumps({"n": 10**20, "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}), ["verify", "--config", "{path}", "--t", "7"]),
        (json.dumps({"n": 10**20, "layers": [{"k": 10**20, "r_squared": "1", "weight": "1"}]}), ["classify", "--config", "{path}"]),
        (None, ["orbit", "--n", str(10**20), "--k", str(10**20), "--count-only"]),
        (None, ["tau", "--n", str(10**20)]),
        (None, ["tau", "--n", str(10**12)]),
        (None, ["basis", "--n", "1000", "--s", "8", "--criterion"]),
        (json.dumps({"n": 10**5, "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}), ["verify", "--config", "{path}", "--t", "3"]),
        (None, ["orbit", "--n", str(10**5), "--k", "1"]),
        (None, ["property-g", "--max", str(10**6)]),
        (None, ["fisher", "--n", str(10**6), "--p", "1", "--t", str(10**6)]),
        (None, ["fisher", "--n", "3", "--p", str(10**9), "--t", "5"]),
        ('{"n": ' + "1" * 5000 + ', "layers": [{"k": 1, "r_squared": "1", "weight": "1"}]}', ["classify", "--config", "{path}"]),
    ],
    ids=[
        "config-nested-100000-deep", "verify-n-1e20", "classify-k-1e20", "orbit-count-k-1e20", "tau-n-1e20", "tau-n-1e12",
        "basis-criterion-n-1000", "verify-n-1e5-k-1", "orbit-points-n-1e5-k-1", "property-g-max-1e6",
        "fisher-n-t-1e6", "fisher-p-1e9", "config-n-5000-digits",
    ],
)
def test_hostile_input_is_usage_error(capsys, tmp_path, config, argv):
    # json.load's RecursionError, an n too large for [0] * n, two orbit indices whose 2^k would
    # not fit in memory, an n too large to scan and one too slow to scan, a criterion basis of about 4.2e10 embedded
    # polynomials, two orbits of 2 * 10^5 points under the point cap whose 2 * 10^10
    # coordinates would not fit in memory, a property-G scan quadratic in its --max, a Fisher
    # bound whose binomials grow with --n, --p and --t, and an integer past the interpreter's
    # limit on int-string conversion
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_failed_write_is_usage_error(capsys, monkeypatch, pretty):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main([*pretty, "fisher", "--n", "3", "--p", "2", "--t", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestSolve:
    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_answer_longer_than_the_digit_limit(self, capsys, pretty):
        # a_1 > 0 > a_5000, so the system is feasible; the weight of I^10000_5000 has a
        # denominator of more than 4,300 digits, the interpreter's default limit on
        # int-string conversion, which the command lifts for its answer and then restores
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *pretty, "solve", "--n", "10000", "--J", "1,5000", "--t", "5")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        if pretty:
            weight = out.splitlines()[-1].split("w=")[1]
        else:
            weight = json.loads(out)["solution"]["layers"][1]["weight"]
        assert len(weight.split("/")[1]) > 4300

    def test_feasible(self, capsys):
        code, data = run_json(
            capsys, "solve", "--n", "3", "--J", "1,3", "--t", "5", "--r2", "1=1,3=1"
        )
        assert code == 0 and data["feasible"] is True
        assert data["solution"]["layers"][1]["weight"] == "9/8"

    def test_infeasible_exit_code(self, capsys):
        code, data = run_json(capsys, "solve", "--n", "6", "--J", "3", "--t", "5")
        assert code == 1 and data["feasible"] is False

    def test_malformed_rational_position(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--n", "3", "--J", "1,3", "--t", "5", "--r2", "1=1,3=x/y"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "entry 2" in err and "x/y" in err

    def test_repeated_orbit_index(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--n", "5", "--J", "1,2", "--t", "5", "--r2", "1=1,2=1,2=3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "entry 3" in err and "'2=3'" in err

    def test_malformed_index_set(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--n", "3", "--J", "1;3", "--t", "5"])
        assert excinfo.value.code == 2


class TestTight:
    def test_certificate(self, capsys):
        code, data = run_json(
            capsys, "tight", "--family", "7-4d", "--r2", "1", "--rho2", "2"
        )
        assert code == 0
        assert data["tight"] is True and data["size"] == 48

    def test_malformed_rational(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tight", "--family", "5-3d", "--r2", "1..2", "--rho2", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("family", ["5-3d", "7-3d", "7-4d"])
    def test_zero_radius_is_usage_error(self, capsys, family):
        code, out, err = run(capsys, "tight", "--family", family, "--r2", "1", "--rho2", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestTau:
    def test_table_for_n4(self, capsys):
        code, data = run_json(capsys, "tau", "--n", "4")
        assert code == 0
        assert data["tau"]["p=3,j=3"] == 5
        assert data["tau"]["p=1,j=3"] == 7


class TestBasis:
    def test_full(self, capsys):
        code, data = run_json(capsys, "basis", "--n", "3", "--s", "2")
        assert code == 0 and len(data["elements"]) == 5

    def test_fully_even(self, capsys):
        code, data = run_json(capsys, "basis", "--n", "3", "--s", "2", "--fully-even")
        assert code == 0 and len(data["elements"]) == 2

    def test_criterion(self, capsys):
        code, data = run_json(capsys, "basis", "--n", "4", "--s", "8", "--criterion")
        assert code == 0 and len(data["elements"]) == 15
        assert data["elements"][0] == "x1^8-28*x1^6*x2^2+70*x1^4*x2^4-28*x1^2*x2^6+x2^8"


def test_round_trip_through_cli_json(capsys, tmp_path):
    cfg = tight_5_3d(Fraction(5, 8), Fraction(7, 3), Fraction(2, 9))
    path = write_config(tmp_path, cfg)
    assert DesignConfig.from_json_dict(json.loads((tmp_path / "config.json").read_text())) == cfg
    code, _ = run_json(capsys, "classify", "--config", path)
    assert code == 0


def test_cli_output_matches_golden_file():
    # the file was written by helpers.cli_golden_lines() before Polynomial moved onto the
    # frozen record base and the symmetric criteria onto partition tables; its four
    # hostile_n_5000_digits rows were rewritten when the digit limit became a config error
    expected = CLI_GOLDEN.read_text().splitlines(keepends=True)
    actual = cli_golden_lines()
    changed = [line.split("\t")[0] for line, want in zip(actual, expected) if line != want]
    assert not changed, f"first argv whose line changed: {changed[0]}"
    assert len(actual) == len(expected)

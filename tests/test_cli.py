"""Command line driver: exit codes, output formats, determinism."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qhaar import QContext, SphericalParams, build_rep, cli, element, qpoch, qsu2rep
from qhaar.cli import main
from qhaar.haarverify import VerifyConfig, VerifyRow


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImport:
    def test_cli_import_loads_no_scipy(self) -> None:
        # scipy is a test-only dependency; loading it would more than double
        # the cold-start time of every command
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, qhaar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"


class TestExitCodes:
    def test_pass_is_zero(self, capsys) -> None:
        code, out, err = run_cli(capsys, "verify", "thm4", "--trunc-n", "80")
        assert code == 0
        assert "wall_time_s" in err and "wall_time_s" not in out

    def test_check_failure_is_one(self, capsys) -> None:
        code, _, _ = run_cli(capsys, "verify", "thm4", "--trunc-n", "80", "--tol", "1e-30")
        assert code == 1

    def test_domain_error_is_two(self, capsys) -> None:
        code, _, err = run_cli(capsys, "verify", "thm4", "--q", "1.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [("verify", "thm6", "--sigma", "200"), ("verify", "thm6", "--sigma", "1e6"),
         ("spectrum", "rho-sigma", "--sigma", "1e6"), ("identity", "bailey", "--sigma", "1e6")],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_is_three(self, capsys, argv) -> None:
        # no nan rows, no overflow traceback and no numpy warning: the run
        # refuses with exit 3
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, key, value",
        [(("identity", "poisson"), "seed", -1)]
        + [(("identity", target), "tol", value)
           for target in ("mass", "bailey") for value in (math.nan, -1.0, 0.0, math.inf)]
        + [(("spectrum", "rho-inf"), "tol", math.nan)],
    )
    def test_bad_seed_or_tol_is_two(self, capsys, tmp_path, source, argv, key, value) -> None:
        # a negative seed, or a tol that is not finite and positive, is refused
        # for every command before it runs, whether a flag or the file sets it
        if source == "flag":
            extra = ("--" + key, str(value))
        else:
            cfile = tmp_path / "run.json"
            cfile.write_text(json.dumps({key: value}))  # NaN and Infinity load back
            extra = ("--config", str(cfile))
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_policy_trip_is_three(self, capsys) -> None:
        code, _, err = run_cli(capsys, "verify", "thm4", "--q", "0.99", "--trunc-n", "50")
        assert code == 3
        assert "non-convergence" in err

    def test_policy_message_names_element_degree(self, capsys) -> None:
        code, _, err = run_cli(capsys, "verify", "thm6", "--trunc-n", "20")
        assert code == 3
        assert "for rho_tau_sigma at degree 6 (reach 2)" in err


class TestParserCache:
    def test_two_runs_build_one_parser(self, capsys) -> None:
        cli._build_parser.cache_clear()
        run_cli(capsys, "identity", "mass")
        run_cli(capsys, "identity", "mass")
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_fresh_defaults_after_argparse_error(self, capsys) -> None:
        cli._build_parser.cache_clear()
        code, fresh, _ = run_cli(capsys, "identity", "mass")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["identity", "mass", "--q", "0.3", "--tol", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, again, _ = run_cli(capsys, "identity", "mass")
        assert code == 0
        assert again == fresh
        assert json.loads(again)["config"]["q"] == 0.5
        assert cli._build_parser.cache_info().misses == 1


class TestJsonOutput:
    def test_schema_and_sorted_keys(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "verify", "thm4", "--trunc-n", "80")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        top = list(doc.keys())
        # the serializer writes every object with sorted keys
        assert top == sorted(top)
        assert json.loads(out) == json.loads(json.dumps(doc))

    def test_byte_determinism(self, capsys) -> None:
        _, out1, _ = run_cli(capsys, "verify", "thm5", "--trunc-n", "120")
        _, out2, _ = run_cli(capsys, "verify", "thm5", "--trunc-n", "120")
        assert out1 == out2

    def test_thm4_quadratic_row(self, capsys) -> None:
        _, out, _ = run_cli(capsys, "verify", "thm4", "--trunc-n", "80")
        doc = json.loads(out)
        rows = doc["reports"][0]["rows"]
        x2 = next(r for r in rows if r["label"] == "x^2")
        assert x2["measure_side"] == pytest.approx(0.25, abs=1e-12)
        assert x2["passed"] is True

    def test_config_echoed(self, capsys) -> None:
        _, out, _ = run_cli(capsys, "verify", "thm4", "--trunc-n", "80", "--tau", "0.7")
        doc = json.loads(out)
        assert doc["config"]["tau"] == 0.7
        assert doc["config"]["trunc_n"] == 80


def reference_to_json(obj) -> str:
    """The report encoding written value by value: sorted keys, floats with
    17 significant digits and nan and +-inf quoted; only the exact types a
    report holds."""
    kind = type(obj)
    if kind is dict:
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{reference_to_json(v)}" for k, v in items) + "}"
    if kind is list:
        return "[" + ",".join(reference_to_json(v) for v in obj) + "]"
    if kind is bool:
        return "true" if obj else "false"
    if kind is float:
        return "%.17g" % obj if math.isfinite(obj) else '"%r"' % obj
    if kind in (int, str):
        return json.dumps(obj)
    raise TypeError(kind.__name__)


class TestJsonFastPath:
    class Row(dict):
        pass

    def test_mixed_types(self) -> None:
        obj = {
            "b": [True, False, 0, 1, -7, 2**70, -(2**70)],
            "a": [0.1, -0.0, 1e-300, 5e-324, 2.5, -1e20, math.nan, math.inf, -math.inf],
            "é \"q\"": "",
            "s": ["x", "\u2203", {"z": 1, "y": [{}, []]}],
            "row": {"k": 1.5, "j": [-1e20]},
        }
        assert cli._to_json(obj) == reference_to_json(obj)
        assert json.loads(cli._to_json(obj))["a"][-3:] == ["nan", "inf", "-inf"]

    @pytest.mark.parametrize("target", ["cocentral", "rho-inf", "rho-sigma"])
    def test_spectrum_reports(self, target) -> None:
        report, _, _ = cli._run_spectrum(target, cli.RunConfig(trunc_n=120))
        assert cli._to_json(report) == reference_to_json(report)

    @pytest.mark.parametrize(
        "value",
        [np.float64(0.5), np.int64(3), np.bool_(True), (0.1,), None, Row(a=1.0), [Row(a=1.0)] * 9],
        ids=["float64", "int64", "bool_", "tuple", "None", "dict-subclass", "dict-subclass-rows"],
    )
    def test_other_types_raise(self, value) -> None:
        # every handler builds its report from Python values; anything else is a bug
        for obj in (value, [value], {"v": value}, [{"v": 1.0}, {"v": value}]):
            with pytest.raises(TypeError):
                cli._to_json(obj)


ROW_LISTS = [
    [{"x": v, "n": i, "ok": i % 2 == 0, "s": f"r{i}"} for i, v in enumerate(
        [0.1, -0.0, 1e-300, 5e-324, -1e20, math.nan, math.inf, -math.inf, 2.5, 1.0, 1e16]
    )],
    [{"k": 2**70, "big%": -7, "é \"q\" %s": "\u2203 %d"}] * 9,
    [{"f": float(i) - 4.5, "i": i - 4, "b": i % 3 == 0} for i in range(10)],
    [{"mixed": 1.5}, {"mixed": 2}, {"mixed": True}, {"mixed": "%s"}] * 3,
    [{"nested": {"z": 1.0, "y": [1, 2.5]}, "l": [math.nan], "t": [0.1]}] * 12,
    [{"a": float(i) / 7.0, "b": i} for i in range(9)],
    # one, three and seven rows: eval-series, identity mass and a verify block
    [{"value_re": -0.0, "value_im": 5e-324}],
    [{"a": 1.6, "k": 0, "residual": v, "passed": v <= 1e-7} for v in (1e-17, math.inf, -0.0)],
    [{"label": f"x^{d}", "side": 0.5**d, "n%": 2**70, "route": "100 % of N=%d"} for d in range(7)],
]

# lists that are not one nonempty key set of dicts go value by value
PER_VALUE_LISTS = [
    [{"a": 1.0}] * 9 + [{"a": 1.0, "b": 2}],
    [{"a": 1.0}] * 9 + [{"b": 1.0}],
    [{}] * 9,
    [{"a": 1.0}] * 9 + [[1.0]],
    [1.0] * 9,
    [],
    [{"a": 1.0}, {"b": 2}],
    [{"a": 1.0}, {"a": 2.0, "b": 3}],
    [{}],
    [[{"a": 1.0}], [{"a": 2.0}]],
    [0.1, -0.0, 5e-324, math.nan, math.inf, -math.inf, 2**70, True, "%s"],
    ["a", {"a": 1.0}],
    [{"a": 1.0}, 1.0],
]


class TestRowEncoder:
    @pytest.mark.parametrize("rows", ROW_LISTS)
    def test_columns_give_the_per_value_bytes(self, rows) -> None:
        assert cli._rows_json(rows) is not None
        assert cli._to_json(rows) == reference_to_json(rows)
        assert cli._to_json({"rows": rows}) == reference_to_json({"rows": rows})

    @pytest.mark.parametrize("rows", PER_VALUE_LISTS)
    def test_other_lists_per_value(self, rows) -> None:
        assert cli._rows_json(rows) is None
        assert cli._to_json(rows) == reference_to_json(rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all"),
            ("verify", "thm4"),
            ("verify", "thm6"),
            ("identity", "bailey"),
            ("identity", "poisson"),
            ("identity", "mass"),
            ("spectrum", "rho-inf"),
            ("spectrum", "rho-sigma"),
            ("spectrum", "rho-sigma", "--q", "0.9", "--tau", "0.3", "--sigma", "0.7047"),
            ("spectrum", "cocentral", "--trunc-n", "161"),
        ],
    )
    def test_stdout_of_the_per_value_path(self, capsys, monkeypatch, argv) -> None:
        code, out, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_rows_json", lambda rows: None)
        assert run_cli(capsys, *argv)[:2] == (code, out)
        assert out == reference_to_json(json.loads(out)) + "\n"


class TestCsvOutput:
    def test_thm5_rows_and_closed_form(self, capsys, ctx: QContext) -> None:
        code, out, _ = run_cli(
            capsys, "verify", "thm5", "--trunc-n", "160", "--output", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        xrow = next(r for r in rows if r["label"] == "x")
        q = ctx.q
        want = (q**0.8 - 1.0) / (1.0 + q * q)
        assert float(xrow["measure_side"]) == pytest.approx(want, abs=1e-10)
        assert xrow["passed"] == "true"


class TestTextOutput:
    def test_wall_time_in_body(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "verify", "thm4", "--trunc-n", "80", "--output", "text"
        )
        assert code == 0
        assert "wall_time_s" in out
        assert "passed: true" in out


VERIFY_HEADER = [
    "theorem", "label", "trace_side", "measure_side", "abs_err", "rel_err", "passed",
    "trace_route", "measure_route",
]
# (argv, CSV header, number of rows) for each command's stock invocation
EVERY_COMMAND = [
    (("verify", "all", "--trunc-n", "80"), VERIFY_HEADER, 21),
    (
        ("identity", "bailey"),
        ["theta", "residual", "variant_residual", "raw_residual", "passed"],
        5,
    ),
    (("identity", "mass"), ["a", "b", "k", "residual", "passed"], 3),
    (("identity", "poisson"), ["kind", "t", "x", "y", "a", "b", "residual", "passed"], 20),
    (("spectrum", "cocentral", "--trunc-n", "80"), ["index", "eigenvalue", "weight"], 81),
    (
        ("spectrum", "rho-inf", "--trunc-n", "80"),
        ["index", "eigenvalue", "weight", "nearest_ladder", "ladder_distance"],
        81,
    ),
    (
        ("spectrum", "rho-sigma", "--trunc-n", "80"),
        ["index", "eigenvalue", "weight", "support_distance"],
        81,
    ),
    (("eval-series", "--upper", "8", "--z", "0.0875", "--q", "0.5"), ["value_re", "value_im"], 1),
]
COMMAND_IDS = [" ".join(a for a in argv[:2] if a[0] != "-") for argv, _, _ in EVERY_COMMAND]


class TestEveryCommandFormats:
    """Every command reaches CSV and text through the one report envelope."""

    def test_verify_header_follows_verify_row(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "verify", "thm4", "--trunc-n", "80", "--output", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["theorem"] + [f.name for f in fields(VerifyRow) if f.name != "coeffs"]
        assert header == VERIFY_HEADER

    @pytest.mark.parametrize("argv, header, count", EVERY_COMMAND, ids=COMMAND_IDS)
    def test_csv(self, capsys, argv, header, count) -> None:
        code, out, err = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        assert "wall_time_s" in err and "wall_time_s" not in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header
        assert len(rows) == count + 1
        # the envelope stays out of the row table
        assert not {"schema", "command", "config"} & set(rows[0])
        col = rows[0].index("passed") if "passed" in rows[0] else None
        assert col is None or all(r[col] == "true" for r in rows[1:])

    @pytest.mark.parametrize("argv, header, count", EVERY_COMMAND, ids=COMMAND_IDS)
    def test_text(self, capsys, argv, header, count) -> None:
        code, out, _ = run_cli(capsys, *argv, "--output", "text")
        assert code == 0
        lines = out.splitlines()
        command = argv[0] if argv[0] == "eval-series" else " ".join(argv[:2])
        assert lines[0] == f"command: {command}"
        assert lines[1].startswith("config: ") and "q=" in lines[1]
        assert lines[-2] == "passed: true"
        assert lines[-1].startswith("wall_time_s: ")
        table = lines[2:-2]
        if argv[:2] == ("identity", "bailey"):
            assert table.pop() == "display_form_inconsistent: true"
        assert table[0].split() == header
        assert len(table) == count + 1


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path) -> None:
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"tau": 0.2, "trunc_n": 80}))
        _, out, _ = run_cli(
            capsys, "verify", "thm5", "--config", str(cfile), "--tau", "1.0"
        )
        doc = json.loads(out)
        assert doc["config"]["tau"] == 1.0  # flag wins
        assert doc["config"]["trunc_n"] == 80  # file beats default

    def test_unknown_key_rejected(self, capsys, tmp_path) -> None:
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(capsys, "verify", "thm4", "--config", str(cfile))
        assert code == 2
        assert "unknown config key" in err

    def test_missing_file_is_two(self, capsys, tmp_path) -> None:
        code, _, _ = run_cli(
            capsys, "verify", "thm4", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "values",
        [{"q": "abc"}, {"trunc_n": 170.9}, {"trunc_n": "80"}, {"tol": True},
         {"max_degree": False}, {"output": 1}, {"tau": None}, {"sigma": [1.5]}],
    )
    def test_wrong_value_type_is_two(self, capsys, tmp_path, values) -> None:
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "verify", "thm4", "--config", str(cfile))
        assert code == 2 and out == ""
        (key,) = values
        assert err.startswith("error: ") and repr(key) in err

    def test_int_accepted_for_float(self, capsys, tmp_path) -> None:
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"tau": 1, "trunc_n": 80}))
        code, out, _ = run_cli(capsys, "verify", "thm5", "--config", str(cfile))
        assert code == 0
        assert json.loads(out)["config"]["tau"] == 1.0

    def test_defaults_match_library(self) -> None:
        # RunConfig and VerifyConfig each declare tau, sigma, N, the degree and tol
        run = cli.RunConfig()
        got, want = run.verify_config(), VerifyConfig(run.context())
        for f in fields(VerifyConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestIdentity:
    def test_bailey_flags_display_form(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "identity", "bailey")
        assert code == 0
        doc = json.loads(out)
        assert doc["display_form_inconsistent"] is True
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            assert row["residual"] < 1e-8
            assert row["raw_residual"] < 1e-8
            assert row["variant_residual"] > 1e-3

    def test_mass_rows(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "identity", "mass")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert all(r["residual"] < 1e-9 for r in doc["rows"])

    def test_poisson_seeded_and_deterministic(self, capsys) -> None:
        code, out1, _ = run_cli(capsys, "identity", "poisson")
        assert code == 0
        _, out2, _ = run_cli(capsys, "identity", "poisson")
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["rows"]) == 20
        assert sum(1 for r in doc["rows"] if r["kind"] == "q-hermite") == 10
        assert all(r["passed"] for r in doc["rows"])
        _, out3, _ = run_cli(capsys, "identity", "poisson", "--seed", "99")
        assert out3 != out1


class TestSpectrum:
    def test_rho_inf_sits_on_ladders(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "spectrum", "rho-inf", "--trunc-n", "160")
        assert code == 0
        doc = json.loads(out)
        assert max(r["ladder_distance"] for r in doc["rows"]) < 1e-8

    def test_rho_sigma_mass_points(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "spectrum", "rho-sigma", "--trunc-n", "160")
        assert code == 0
        doc = json.loads(out)
        xs = sorted(m["x"] for m in doc["mass_points"])
        assert xs[0] == pytest.approx(-1.2009763571708807, rel=1e-10)
        assert xs[1] == pytest.approx(1.0024032270365502, rel=1e-10)
        assert max(r["support_distance"] for r in doc["rows"]) < 1e-4

    def test_element_built_from_band(self, capsys, monkeypatch) -> None:
        # same eigenvalues as the element of build_rep's dense view, which
        # the command no longer fills, in the real gauge diag(i^n)* M diag(i^n)
        M = element(build_rep(QContext(0.5), 0.0, 80), "rho_tau_sigma", SphericalParams(0.4, 1.5))
        n = np.arange(81)
        M = np.array([1.0, 1j, -1.0, -1j])[(n[None, :] - n[:, None]) % 4] * M
        assert not np.any(M.imag)
        M = M.real
        calls = []
        for module in (qsu2rep, cli):
            for fn_name in ("build_rep", "element"):
                monkeypatch.setattr(
                    module, fn_name, lambda *a, n=fn_name: calls.append(n), raising=False
                )
        code, out, _ = run_cli(capsys, "spectrum", "rho-sigma", "--trunc-n", "80")
        assert code == 0
        assert calls == []
        eigs = [r["eigenvalue"] for r in json.loads(out)["rows"]]
        assert eigs == np.linalg.eigh(M)[0].tolist()

    def test_complex_band_is_two(self, capsys, monkeypatch) -> None:
        # off angle 0 rho-inf has no real gauge; the command refuses it
        real = cli._element_band
        monkeypatch.setattr(cli, "_element_band", lambda *a: real(*a[:3], 0.7, a[4]))
        code, out, err = run_cli(capsys, "spectrum", "rho-inf", "--trunc-n", "40")
        assert code == 2
        assert out == ""
        assert "not real" in err

    def test_zero_size_is_two(self, capsys) -> None:
        code, _, err = run_cli(capsys, "spectrum", "cocentral", "--trunc-n", "0")
        assert code == 2
        assert "size must be at least 1" in err

    def test_cocentral_weights_normalized(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "spectrum", "cocentral", "--trunc-n", "80")
        assert code == 0
        doc = json.loads(out)
        total = sum(r["weight"] for r in doc["rows"])
        assert total == pytest.approx(1.0, abs=1e-10)


def scanned_ladder(x: float, q: float, tau: float) -> tuple[float, float]:
    """The former nearest-rung scan over k < 2000, kept as the reference."""
    best, dist = 0.0, abs(x)
    for k in range(2000):
        for cand in (-(q ** (2 * k)), q ** (2 * tau + 2 * k)):
            d = abs(x - cand)
            if d < dist:
                best, dist = cand, d
        if q ** (2 * k) < 0.5 * dist:
            break
    return best, dist


class TestNearestLadder:
    def test_matches_scan(self) -> None:
        rng = random.Random(20261018)
        draws = 0

        def rung(q, t):
            k = rng.randrange(60)
            return rng.choice((q ** (2 * t + 2 * k), -(q ** (2 * k))))

        def midpoint(q, t):
            # about 40 % of these are exact ties, which go to the lower rung
            k = rng.randrange(60)
            if rng.random() < 0.5:
                return 0.5 * (q ** (2 * t + 2 * k) + q ** (2 * t + 2 * k + 2))
            return -0.5 * (q ** (2 * k) + q ** (2 * k + 2))

        # (count, draw) per kind: the scan of a draw at distance 0 runs all
        # 2000 rungs, 1 ms, so those kinds are rarer.  These counts catch the
        # mutants that a tenfold count catches (floor(u) - 1 is defensive:
        # no double rounding of u moves the nearest rung out of floor(u)..+3)
        kinds = (
            (6_400, lambda q, t: rng.uniform(-1.5, 1.5)),
            (2_500, lambda q, t: rung(q, t) * (1.0 + rng.choice((-1e-12, 1e-12)))),
            (300, lambda q, t: rung(q, t)),
            # above q^{2 tau} or below -1
            (600, lambda q, t: rng.choice((q ** (2 * t) * rng.uniform(1.0, 3.0),
                                           -rng.uniform(1.0, 3.0)))),
            # any magnitude down to e^-60
            (460, lambda q, t: rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-60.0, 0.0))),
            (100, lambda q, t: rng.choice((0.0, -0.0))),
            (200, midpoint),
        )
        for count, draw in kinds:
            for _ in range(count):
                q, tau = rng.uniform(0.05, 0.99), rng.uniform(0.0, 3.0)
                x = draw(q, tau)
                assert cli._nearest_ladder(x, q, tau) == scanned_ladder(x, q, tau), (x, q, tau)
                draws += 1
        # the bracketing rungs lie past the scan's k < 2000
        for _ in range(400):
            q, tau = rng.uniform(0.9, 0.99), rng.uniform(0.0, 3.0)
            x = rng.choice((-1.0, 1.0)) * q ** rng.uniform(3980.0, 4600.0)
            assert cli._nearest_ladder(x, q, tau) == scanned_ladder(x, q, tau), (x, q, tau)
            draws += 1
        assert draws >= 10_000


class TestEvalSeries:
    def test_q_binomial_value(self, capsys, ctx: QContext) -> None:
        # 1phi0(q^-3; -; q, q^3 z) = (z; q)_3 at z = 0.7
        code, out, _ = run_cli(
            capsys, "eval-series", "--upper", "8", "--z", "0.0875", "--q", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        val = doc["rows"][0]["value_re"]
        assert val == pytest.approx(qpoch(0.7, ctx, 3), rel=1e-13)
        assert doc["rows"][0]["value_im"] == pytest.approx(0.0, abs=1e-15)

    def test_bad_argument_is_two(self, capsys) -> None:
        code, _, _ = run_cli(capsys, "eval-series", "--z", "zap")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("--upper", "1e400", "--z", "0.1"), ("--z", "nan"), ("--z", "inf"),
         ("--lower", "0.3,-inf", "--z", "0.1"), ("--upper", "nanj", "--z", "0.1")],
    )
    def test_non_finite_argument_is_two(self, capsys, argv) -> None:
        code, out, err = run_cli(capsys, "eval-series", *argv)
        assert code == 2 and out == ""
        assert "not finite" in err

    def test_base_is_q(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "eval-series", "--z", "0.1", "--q", "0.3")
        assert code == 0
        assert json.loads(out)["base"] == 0.3

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
from pathlib import Path

import numpy as np
import pytest

from qhaar import QContext, SphericalParams, build_rep, cli, element, qpoch, qsu2rep
from qhaar.cli import main


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

        # (count, draw) per kind: the scan of a draw at distance 0 runs all
        # 2000 rungs, 1 ms, so those kinds are rarer
        kinds = (
            (64_000, lambda q, t: rng.uniform(-1.5, 1.5)),
            (25_000, lambda q, t: rung(q, t) * (1.0 + rng.choice((-1e-12, 1e-12)))),
            (300, lambda q, t: rung(q, t)),
            # above q^{2 tau} or below -1
            (6_000, lambda q, t: rng.choice((q ** (2 * t) * rng.uniform(1.0, 3.0),
                                             -rng.uniform(1.0, 3.0)))),
            # any magnitude down to e^-60
            (4_600, lambda q, t: rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-60.0, 0.0))),
            (100, lambda q, t: rng.choice((0.0, -0.0))),
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
        assert draws >= 100_000


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

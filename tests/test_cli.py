import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plucker import RunReport, format_matrix, reports
from plucker.cli import main
from plucker.reports import ClaimReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_projective_line_over_gf2(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "1", "--n", "2", "--q", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_locus_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--k", "2", "--n", "4", "--q", "2",
            "--spec", "w", "--beta", "{1,2}", "--gamma", "{3,4}",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # q^2 (q-1)^2 at q=2

    def test_missing_subsets_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--k", "2", "--n", "4", "--q", "2", "--spec", "w")
        assert code == 2 and "error" in err

    def test_budget_guard(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--k", "4", "--n", "14", "--q", "2")
        assert code == 2 and "budget" in err


class TestCount:
    def test_w_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count",
            "--k", "2", "--n", "4", "--q", "3",
            "--spec", "w", "--beta", "{1,2}", "--gamma", "{3,4}",
        )
        assert code == 0 and out.strip() == "36"

    def test_full_grassmannian_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "3")
        assert code == 0 and out.strip() == "130"

    def test_subset_literals_take_ascii_digits_only(self, capsys):
        # int() reads "+1" and "\u0662" (Arabic-Indic two) as 1 and 2, and "1_0" as 10
        for beta in ("{+1,\u0662}", "{1_0,2}"):
            code, out, err = run_cli(
                capsys,
                "count",
                "--k", "2", "--n", "12", "--q", "2",
                "--spec", "richardson", "--beta", beta, "--gamma", "{11,12}",
            )
            assert code == 2 and out == "", beta
            assert err.startswith("error: bad subset literal") and "Traceback" not in err

    @pytest.mark.parametrize(
        "option,value",
        [("--k", "\u0662"), ("--n", "+4"), ("--q", "1_1"), ("--t", "+1"), ("--budget", "1_000")],
    )
    def test_integer_options_take_ascii_digits_only(self, capsys, option, value):
        # int() reads each of these, and "count --k \u0662 --n +4 --q 1_1" printed 16226
        argv = {"--k": "2", "--n": "4", "--q": "11", "--t": "1", "--budget": "1000", option: value}
        with pytest.raises(SystemExit) as exit_:
            main(["count", "--spec", "divisor", "--beta", "{1,2}", "--gamma", "{3,4}",
                  *(item for pair in argv.items() for item in pair)])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert f"argument {option}: {value!r} is not a nonnegative integer" in captured.err
        assert "Traceback" not in captured.err

    def test_subset_size_other_than_k_exits_2_before_enumerating(self, capsys, monkeypatch):
        import plucker.cli as cli_mod

        def no_enumeration(*args):
            raise AssertionError("enumerated before checking --k")

        monkeypatch.setattr(cli_mod, "enumerate_grassmannian", no_enumeration)
        monkeypatch.setattr(cli_mod, "candidate_points", no_enumeration)
        monkeypatch.setattr(cli_mod, "_supports", no_enumeration)
        for command in ("count", "enumerate"):
            code, out, err = run_cli(
                capsys,
                command,
                "--k", "2", "--n", "4", "--q", "3",
                "--spec", "w", "--beta", "{1,2,3}", "--gamma", "{2,3,4}",
            )
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "--k 2" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("t", ["0", "2", "3"])
    def test_divisor_cut_out_of_range_exits_2(self, capsys, t):
        code, out, err = run_cli(
            capsys,
            "count",
            "--k", "2", "--n", "4", "--q", "2",
            "--spec", "divisor", "--beta", "{1,2}", "--gamma", "{3,4}", "--t", t,
        )
        assert code == 2 and out == ""
        assert err == f"error: t={t} out of range 1..1\n"

    def test_huge_modulus_exits_2_at_once(self):
        # 2**61 - 1 is prime; trial division of it would run for minutes, so a
        # subprocess with a timeout keeps a regression from hanging the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        base = [sys.executable, "-m", "plucker.cli"]
        count = ["count", "--k", "2", "--n", "4", "--q", str(2**61 - 1)]
        for args in (count, count + ["--budget", str(10**40)], ["verify-all", "--q", str(2**61 - 1)]):
            done = subprocess.run(base + args, env=env, capture_output=True, text=True, timeout=10)
            assert done.returncode == 2, done.stderr
            assert done.stderr.startswith("error:") and "Traceback" not in done.stderr

    def test_largest_modulus_with_one_point(self):
        # Gr(2,2) has one point over any field, so q = 2**31 - 1 (prime) is
        # within budget; only the residues a point uses may be made
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "plucker.cli", "count", "--k", "2", "--n", "2", "--q", str(2**31 - 1)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


class TestCellReader:
    """``count`` and ``enumerate`` of a spec read only the Schubert cells whose
    pivot coordinate the spec allows; no point may be lost or reordered."""

    @pytest.mark.parametrize("k,n,q", [(2, 4, 3), (3, 5, 2), (2, 5, 2)])
    def test_every_locus_matches_full_enumeration(self, capsys, k, n, q):
        from plucker import (
            ParameterError,
            count_points,
            divisor_spec,
            enumerate_grassmannian,
            iter_comparable_pairs,
            membership,
            richardson_spec,
            w_spec,
        )

        points = enumerate_grassmannian(k, n, q)
        lines = {p: "  ".join(" ".join(map(str, row)) for row in p.matrix.rows) for p in points}
        head = ["--k", str(k), "--n", str(n), "--q", str(q)]
        assert run_cli(capsys, "count", *head) == (0, f"{len(points)}\n", "")
        # byte for byte: each row formatted entry by entry
        assert run_cli(capsys, "enumerate", *head)[1] == "".join(f"{line}\n" for line in lines.values())
        for beta, gamma in iter_comparable_pairs(k, n):
            loci = [
                ("richardson", None, richardson_spec(beta, gamma)),
                ("open-richardson", None, richardson_spec(beta, gamma, open_=True)),
                ("w", None, w_spec(beta, gamma)),
            ]
            loci += [("divisor", t, None) for t in range(1, k)]
            for name, t, spec in loci:
                argv = head + ["--spec", name, "--beta", str(beta), "--gamma", str(gamma)]
                argv += [] if t is None else ["--t", str(t)]
                if name == "divisor":
                    try:
                        spec = divisor_spec(beta, gamma, t)
                    except ParameterError:  # the pivot is beta or gamma: a contradiction
                        assert run_cli(capsys, "count", *argv)[0] == 2, argv
                        continue
                expected = [lines[p] for p in points if membership(p, spec)]
                assert run_cli(capsys, "count", *argv) == (0, f"{count_points(spec, q)}\n", ""), argv
                code, out, _ = run_cli(capsys, "enumerate", *argv)
                assert code == 0 and out.splitlines() == expected, argv


class TestCertificate:
    def test_trivial_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certificate",
            "--n", "4", "--beta", "{1,2}", "--gamma", "{3,4}", "--t", "1",
            "--alpha", "{1,4}",
        )
        assert code == 0
        assert "target {1,4}" in out and "pivot {1,4}" in out
        assert "cofactor 1\n1\n" in out  # the constant 1

    def test_unit_default_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "certificate", "--n", "5", "--beta", "{1,4}", "--gamma", "{2,5}", "--t", "1"
        )
        assert code == 0 and "pivot-inverse" in out

    def test_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "certificate",
            "--n", "4", "--beta", "{1,2}", "--gamma", "{3,4}", "--t", "1",
            "--alpha", "{2,3}",
        )
        assert code == 2 and "error" in err

    def test_target_of_another_size_names_the_mismatch(self, capsys):
        code, out, err = run_cli(
            capsys,
            "certificate",
            "--n", "4", "--beta", "{1,2}", "--gamma", "{3,4}", "--t", "1",
            "--alpha", "{1,2,3}",
        )
        assert code == 2 and out == ""
        assert err == "error: {1,2,3} has (k, n) = (3, 4), but beta {1,2} has (2, 4)\n"


class TestParam:
    def test_round_trip_bytes(self, capsys, tmp_path):
        from plucker import QQ, KSubset, phi, sample_y

        beta, gamma = KSubset((1, 3), 5), KSubset((3, 5), 5)
        n_mat = phi(sample_y(beta, gamma, QQ, seed=77), beta, gamma)
        src = tmp_path / "echelon.txt"
        src.write_text(format_matrix(n_mat))

        code, out, _ = run_cli(
            capsys,
            "param", "--beta", "{1,3}", "--gamma", "{3,5}",
            "--direction", "psi", "--matrix-file", str(src),
        )
        assert code == 0
        banded = tmp_path / "banded.txt"
        banded.write_text(out)

        code, out2, _ = run_cli(
            capsys,
            "param", "--beta", "{1,3}", "--gamma", "{3,5}",
            "--direction", "phi", "--matrix-file", str(banded),
        )
        assert code == 0
        assert out2 == src.read_text()

    def test_vanishing_beta_minor_exits_2(self, capsys, tmp_path):
        # identity at gamma = {2}, but the beta = {1} block is zero
        src = tmp_path / "echelon.txt"
        src.write_text("field rational\n0 1 0\n")
        code, out, err = run_cli(
            capsys,
            "param", "--beta", "{1}", "--gamma", "{2}",
            "--direction", "psi", "--matrix-file", str(src),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "leading principal minor 1" in err
        assert "Traceback" not in err

    def test_non_utf8_matrix_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfef\x00i\x00")
        code, out, err = run_cli(
            capsys,
            "param", "--beta", "{1}", "--gamma", "{2}",
            "--direction", "phi", "--matrix-file", str(bad),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read matrix file {bad}: ")
        assert "Traceback" not in err

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("field rational\n1 x\n")
        code, _, err = run_cli(
            capsys,
            "param", "--beta", "{1}", "--gamma", "{2}",
            "--direction", "phi", "--matrix-file", str(bad),
        )
        assert code == 2 and "line 2" in err


class TestVerifyAll:
    def test_tiny_sweep_passes(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "k_range = 1:2\nn_range = 1:4\nprimes = 2\nrational_samples = 5\n"
            "matrix_samples = 5\n"
        )
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify-all", "--config", str(cfg), "--report", str(report_path)
        )
        assert code == 0
        assert "overall: PASS" in out
        doc = json.loads(report_path.read_text())
        assert doc["overall"] == "pass"
        assert [c["claim"] for c in doc["claims"]] == [
            "Eq1-relations",
            "Thm3-roundtrip",
            "Thm6-positroidset",
            "Lem4-certificates",
            "Cor5-unit",
            "Thm7-divisor",
            "S7-complement",
            "S7-shifted-schubert",
            "W-count",
        ]

    def test_only_runs_the_named_claims_in_claim_order(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "k_range = 2:2\nn_range = 4:4\nprimes = 2\nrational_samples = 3\nmatrix_samples = 3\n"
        )
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify-all", "--config", str(cfg), "--report", str(report_path),
            "--only", "W-count, Eq1-relations,W-count",
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert [c["claim"] for c in doc["claims"]] == ["Eq1-relations", "W-count"]
        assert [line.split()[0] for line in out.splitlines()[:2]] == ["Eq1-relations", "W-count"]

    def test_only_with_an_unknown_id_exits_2_listing_the_valid_ids(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify-all", "--report", str(report_path), "--only", "Eq1-relations,Lem5"
        )
        assert code == 2 and out == "" and "Traceback" not in err
        assert "unknown claim id(s) Lem5" in err
        assert "valid ids: Eq1-relations, Thm3-roundtrip" in err and "W-count" in err
        assert not report_path.exists()

    def test_seed_changes_keep_verdicts(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "k_range = 2:2\nn_range = 4:4\nprimes = 2\nrational_samples = 3\n"
            "matrix_samples = 3\n"
        )
        verdicts = []
        for seed in ("1", "2"):
            report_path = tmp_path / f"report{seed}.json"
            code, _, _ = run_cli(
                capsys,
                "verify-all", "--config", str(cfg), "--seed", seed,
                "--report", str(report_path),
            )
            assert code == 0
            doc = json.loads(report_path.read_text())
            verdicts.append([c["verdict"] for c in doc["claims"]])
        assert verdicts[0] == verdicts[1]

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("primes = 4\n")
        code, _, err = run_cli(capsys, "verify-all", "--config", str(cfg))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("source", ["file", "env", "flag"])
    def test_repeated_prime_exits_2(self, capsys, tmp_path, monkeypatch, source):
        # 2,2 would run every GF(2) check twice and report twice the counts
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("primes = 2,2\n" if source == "file" else "primes = 2\n")
        if source == "env":
            monkeypatch.setenv("PLUCKER_PRIMES", "2,2")
        argv = ["verify-all", "--config", str(cfg), "--report", str(tmp_path / "r.json")]
        argv += ["--q", "2,2"] if source == "flag" else []
        code, out, err = run_cli(capsys, *argv, "--only", "Cor5-unit")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "primes must be nonempty and distinct, got (2, 2)" in err
        assert not (tmp_path / "r.json").exists()

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfes\x00e\x00e\x00d\x00")
        code, out, err = run_cli(capsys, "verify-all", "--config", str(cfg), "--report", str(tmp_path / "r.json"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [(["--seed", "+7"], "'+7' is not an integer"), (["--budget", "-5"], "'-5' is not a nonnegative integer"),
         (["--seed", "\u0667"], "is not an integer")],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, tmp_path, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(["verify-all", "--report", str(tmp_path / "r.json"), *argv])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and message in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_certificate_integers_take_ascii_digits_only(self, capsys):
        for argv in (["--n", "+4", "--t", "1"], ["--n", "4", "--t", "\u0661"]):
            with pytest.raises(SystemExit) as exit_:
                main(["certificate", "--beta", "{1,2}", "--gamma", "{3,4}", *argv])
            assert exit_.value.code == 2 and "is not a nonnegative integer" in capsys.readouterr().err

    def test_flag_and_env_overrides(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("k_range = 2:2\nn_range = 4:4\nprimes = 2,3\nrational_samples = 3\nmatrix_samples = 3\n")
        monkeypatch.setenv("PLUCKER_SEED", "77")
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify-all", "--config", str(cfg), "--q", "2",
            "--report", str(report_path),
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["config"]["primes"] == "2"  # flag beats file
        assert doc["config"]["seed"] == 77  # env beats file

    def test_failing_claim_exits_1(self, capsys, tmp_path, monkeypatch):
        def fake_run_all(cfg):
            rep = RunReport(config=cfg.to_dict(), version="test")
            rep.claims.append(ClaimReport("Thm3-roundtrip", {}, reports.FAIL, "forced"))
            return rep

        monkeypatch.setattr("plucker.claims.run_all", fake_run_all)
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify-all", "--report", str(report_path))
        assert code == 1 and "overall: FAIL" in out

    def test_low_budget_skips_interpolation_with_a_note(self):
        from plucker import SweepConfig
        from plucker.claims import claim_w_count

        report = claim_w_count(SweepConfig(budget=300).validate())
        assert report.verdict == reports.PASS
        assert report.params["checks"] > 0  # the closed-formula counts still run
        notes = report.params["notes"]
        skipped = "(k=2,n=4,q=5) skipped: Grassmannian(2,4) over GF(5) has 806 points, over the budget 300"
        assert skipped in notes
        assert notes[-1] == "interpolation skipped: a degree certificate needs every interpolation prime"

    def test_strata_are_read_at_the_configured_budget(self, monkeypatch):
        # Gr(2,4) over GF(3) has 130 points: within the configured 1000, over a
        # library default lowered to 100, which the claims must not fall back to
        from plucker import SweepConfig, varieties
        from plucker.claims import run_all

        default = varieties.DEFAULT_BUDGET
        for fn in vars(varieties).values():
            defaults = getattr(fn, "__defaults__", None) or ()
            if default in defaults:
                monkeypatch.setattr(fn, "__defaults__", tuple(100 if d == default else d for d in defaults))
        varieties._buckets.cache_clear()
        cfg = SweepConfig(k_range=(2, 2), n_range=(4, 4), rational_samples=5, budget=1000).validate()
        report = run_all(cfg, ("Lem4-certificates", "Cor5-unit", "Thm7-divisor"))
        assert [c.claim for c in report.claims] == ["Lem4-certificates", "Cor5-unit", "Thm7-divisor"]
        for claim in report.claims:
            assert claim.verdict == reports.PASS, claim.witness
            assert "notes" not in claim.params


class TestReportDeterminism:
    def test_same_config_same_report_modulo_timing(self):
        from plucker import SweepConfig
        from plucker.claims import run_all

        cfg = SweepConfig(
            k_range=(2, 2), n_range=(2, 4), primes=(2,),
            rational_samples=3, matrix_samples=3,
        ).validate()

        def stripped(report):
            doc = json.loads(report.to_json())
            for claim in doc["claims"]:
                del claim["seconds"]
            del doc["version"]
            return doc

        assert stripped(run_all(cfg)) == stripped(run_all(cfg))


class TestReportRoundTrip:
    def test_json_round_trip(self):
        rep = RunReport(
            claims=[ClaimReport("W-count", {"checks": 3}, "pass", None, 0.5)],
            config={"seed": 1},
            version="0.1.0",
        )
        back = RunReport.from_json(rep.to_json())
        assert back.claims[0].claim == "W-count"
        assert back.overall == "pass"

    def test_overall_is_conjunction(self):
        rep = RunReport(claims=[ClaimReport("a", {}, "pass"), ClaimReport("b", {}, "flag")])
        assert rep.overall == "pass"
        rep.claims.append(ClaimReport("c", {}, "fail", "bad"))
        assert rep.overall == "fail"

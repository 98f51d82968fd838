import json
import math
import sys

import pytest

from aliquot.beta import EULER_KERNEL
from aliquot.cli import build_parser, combine_lambda, run

# The dest of beta's removed early-stop flag, spelled in parts so that the
# removed name itself appears nowhere in the tree.
EARLY_STOP = "_".join(("stop", "after", "blocks"))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert run(["alpha", "--frobs", "3"]) == 1

    def test_parameter_error(self, tmp_path):
        assert run(["alpha", "--N", "2", "--out", str(tmp_path)]) == 1

    def test_resource_error(self, tmp_path):
        # Sieve range beyond the supported bound.
        assert run(["means", "--class", "even", "--N", "1e11",
                    "--out", str(tmp_path)]) == 2

    def test_success(self, tmp_path):
        assert run(["means", "--class", "even", "--N", "1e3",
                    "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["lambda"],
        ["alpha", "--N", "1e4"],
        ["beta", "--J", "2", "--Nj", "1e4"],
        ["means", "--class", "even", "--N", "1e3"],
    ], ids=["lambda", "alpha", "beta", "means"])
    def test_workers_below_one_is_a_parameter_error(self, tmp_path, capsys, argv, workers):
        assert run([*argv, "--workers", workers, "--out", str(tmp_path)]) == 1
        assert "parameter error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no report records the bad count

    @pytest.mark.parametrize("argv", [
        ["trace", "12", "--workers", "0"],
        ["selftest", "--block-size", "4096"],
    ], ids=["trace", "selftest"])
    def test_block_flags_only_on_block_verbs(self, tmp_path, argv):
        # trace and selftest run no blocks, so they take neither flag.
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert not list(tmp_path.iterdir())


class TestMeansVerb:
    def test_reference_value_and_reports(self, tmp_path):
        assert run(["means", "--class", "even", "--N", "1e4",
                    "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "means.json")
        assert abs(doc["log_mean"] - (-0.0335201796)) < 1e-8
        assert doc["class"] == "even"
        csv_text = (tmp_path / "means.csv").read_text().splitlines()
        assert csv_text[0] == "class,N,arithmetic_mean,log_mean,closed_form,error_radius"
        assert csv_text[1].startswith("even,10000,")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e-3", "4/2", "1e4300", "1e999999999"])
    def test_non_integer_flag_is_a_usage_error(self, tmp_path, value):
        assert run(["means", "--N", value, "--out", str(tmp_path)]) == 1

    def test_scientific_notation_flag(self, tmp_path):
        assert run(["means", "--class", "odd", "--N", "2e3",
                    "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "means.json")["N"] == 2000

    @pytest.mark.parametrize("text, value", [("1e23", 10**23), ("2.5e1", 25), ("1E6", 10**6)])
    def test_scientific_notation_is_exact(self, text, value):
        # 1e23 has no float; rounding through one gave 99999999999999991611392.
        assert build_parser().parse_args(["trace", text]).start == value


class TestTraceVerb:
    def test_amicable(self, tmp_path):
        assert run(["trace", "220", "--max-steps", "10", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "trace.json")
        assert doc["classification"]["kind"] == "cycle"
        assert doc["classification"]["cycle_length"] == 2
        assert doc["terms"] == ["220", "284", "220"]

    def test_terms_past_the_default_digit_limit(self, tmp_path):
        # n = 6 10^4299 = 2^4300 3 5^4299, so s(n) = (2^4301 - 1)(5^4300 - 1) - n,
        # which has 4,301 digits: one past what str() writes by default.
        n = 6 * 10**4299
        assert run(["trace", "6e4299", "--max-steps", "1", "--out", str(tmp_path)]) == 0
        terms = read_json(tmp_path / "trace.json")["terms"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(n), str((2**4301 - 1) * (5**4300 - 1) - n)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(terms[1]) == 4301
        assert terms == expected

    def test_negative_rho_budget_is_a_parameter_error(self, tmp_path, capsys):
        assert run(["trace", "12", "--rho-budget", "-5", "--out", str(tmp_path)]) == 1
        assert "parameter error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestAlphaVerb:
    def test_reference_sums(self, tmp_path):
        assert run(["alpha", "--N", "1e4", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "alpha.json")
        assert abs(doc["sums_value"] - 0.6983072233) < 1e-9
        assert doc["params"] == {"N": 10000, "L": 15, "M": 15}

    def test_reference_sums_1e6(self, tmp_path):
        assert run(["alpha", "--N", "1e6", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "alpha.json")
        assert abs(doc["sums_value"] - 0.6983169710) < 1e-9

    def test_depth_flags_are_gone(self, tmp_path):
        # The series depths L = M = 15 are constants of the alpha module.
        assert run(["alpha", "--L", "15", "--out", str(tmp_path)]) == 1
        assert not list(tmp_path.iterdir())

    def test_depth_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 1000, "L": 15}))
        assert run(["alpha", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "no alpha flag takes L=15" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBetaVerb:
    def test_small_run_writes_reports(self, tmp_path):
        assert run(["beta", "--J", "2", "--Nj", "1e4", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "beta.json")
        assert doc["lower_bound"] > 0.6
        assert len(doc["terms"]) == 2
        csv_lines = (tmp_path / "beta.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_stop_and_resume(self, tmp_path, killed_at_block):
        # A run killed at block 3 writes no report and keeps blocks 0-2;
        # the same command resumes it to the one-shot bits.
        ckpt = tmp_path / "ckpt"
        args = ["beta", "--J", "1", "--Nj", "2e5",
                "--block-size", "16384", "--checkpoint-dir", str(ckpt),
                "--out", str(tmp_path / "a")]
        with killed_at_block(3, 16384):
            run(args)
        assert not (tmp_path / "a").exists()
        (stored,) = ckpt.iterdir()
        assert stored.name.startswith("beta-euler-")  # the prime pass's records
        assert len(read_json(stored)["blocks"]) == 3
        assert run(args) == 0
        resumed = read_json(tmp_path / "a" / "beta.json")
        assert run(["beta", "--J", "1", "--Nj", "2e5",
                    "--block-size", "16384", "--out", str(tmp_path / "b")]) == 0
        oneshot = read_json(tmp_path / "b" / "beta.json")
        assert resumed["lower_bound"] == oneshot["lower_bound"]
        assert resumed["terms"][0]["main_term"] == oneshot["terms"][0]["main_term"]

    def test_resume_discards_malformed_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        args = ["beta", "--J", "1", "--Nj", "2e5",
                "--block-size", "16384", "--checkpoint-dir", str(ckpt),
                "--out", str(tmp_path / "a")]
        assert run(args) == 0
        (stored,) = ckpt.iterdir()
        stored.write_text("[]")
        assert run(args) == 0
        resumed = read_json(tmp_path / "a" / "beta.json")
        assert run(["beta", "--J", "1", "--Nj", "2e5",
                    "--block-size", "16384", "--out", str(tmp_path / "b")]) == 0
        assert resumed["lower_bound"] == read_json(tmp_path / "b" / "beta.json")["lower_bound"]

    def test_early_stop_flag_is_gone(self, tmp_path):
        # A prime pass ends complete or killed; there is no partial report.
        flag = "--" + EARLY_STOP.replace("_", "-")
        assert run(["beta", "--J", "1", "--Nj", "2e5", flag, "3",
                    "--out", str(tmp_path)]) == 1
        assert not list(tmp_path.iterdir())

    def test_auto_s_mode_is_a_usage_error(self, tmp_path):
        assert run(["beta", "--J", "2", "--Nj", "1e4", "--s-mode", "auto",
                    "--out", str(tmp_path)]) == 1

    def test_enumerate_past_node_budget_is_a_resource_error(self, tmp_path, capsys):
        # --s-mode takes "bound" only.
        assert run(["beta", "--J", "2", "--Nj", "1e4",
                    "--s-mode", "enumerate", "--node-budget", "50",
                    "--out", str(tmp_path)]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_bound_mode_runs_past_the_paper_exponents(self, tmp_path):
        assert run(["beta", "--J", "9", "--Nj", "1e4", "--out", str(tmp_path)]) == 0
        terms = read_json(tmp_path / "beta.json")["terms"]
        assert [t["j"] for t in terms] == list(range(1, 10))
        assert all("e" not in t for t in terms)
        header, *rows = (tmp_path / "beta.csv").read_text().splitlines()
        assert len(rows) == 9
        assert "e" not in header.split(",")

    @pytest.mark.parametrize("flags", [["--Nj", "999"], ["--J", "0"], ["--J", "1025"]])
    def test_cutoff_and_J_outside_their_domain(self, tmp_path, capsys, flags):
        assert run(["beta", "--J", "2", "--Nj", "1e4", *flags, "--out", str(tmp_path)]) == 1
        assert "parameter error" in capsys.readouterr().err

    def test_cutoff_past_the_sieve_is_a_resource_error(self, tmp_path, capsys):
        assert run(["beta", "--J", "1", "--Nj", str(10**30), "--out", str(tmp_path)]) == 2
        assert "resource error" in capsys.readouterr().err

    def test_reports_name_the_prime_cutoff(self, tmp_path):
        assert run(["beta", "--J", "2", "--Nj", "1e4", "--out", str(tmp_path)]) == 0
        (term, _) = read_json(tmp_path / "beta.json")["terms"]
        assert (term["P"], "N" in term, "s_tail_bound" in term) == (10**4, False, False)
        assert term["log_product"] < 0 < term["tail_charge"] < 1e-4
        header = (tmp_path / "beta.csv").read_text().splitlines()[0].split(",")
        assert header[:2] == ["j", "P"] and "tail_charge" in header

    def test_exponent_flag_is_gone(self, tmp_path):
        assert run(["beta", "--J", "2", "--Nj", "1e4", "--e", "1,0.75",
                    "--out", str(tmp_path)]) == 1


class TestLambdaVerb:
    def test_small_lambda_run(self, tmp_path):
        assert run(["lambda", "--N", "1e4", "--J", "2", "--Nj", "1e4",
                    "--out", str(tmp_path)]) == 0
        alpha_doc = read_json(tmp_path / "alpha.json")
        beta_doc = read_json(tmp_path / "beta.json")
        lam_doc = read_json(tmp_path / "lambda.json")
        expected = alpha_doc["upper_bound"] - beta_doc["lower_bound"]
        assert abs(lam_doc["lambda_upper"] - expected) < 1e-14
        assert lam_doc["mu_upper"] >= math.exp(lam_doc["lambda_upper"])
        assert (lam_doc["mu_upper"] < 1.0) == (lam_doc["lambda_upper"] < 0.0)

    def test_provenance_keys(self, tmp_path):
        assert run(["lambda", "--N", "1e4", "--J", "2", "--Nj", "1e4",
                    "--out", str(tmp_path)]) == 0
        provenance = read_json(tmp_path / "lambda.json")["provenance"]
        for key in ("version", "python", "numpy", "cpu_count", "workers", "block_size"):
            assert key in provenance
        assert provenance["python"].count(".") == 2
        assert provenance["params"] == {"alpha": {"N": 10000, "L": 15, "M": 15},
                                        "beta": {"J": 2, "P": 10000}}
        # The engine the pass ran on, and beta's kernel where it ran.
        assert provenance["engine"] == "serial"
        assert provenance["kernel"] == EULER_KERNEL
        assert read_json(tmp_path / "beta.json")["provenance"]["kernel"] == EULER_KERNEL
        assert read_json(tmp_path / "alpha.json")["provenance"]["engine"] == "serial"

    @pytest.mark.parametrize("argv, name", [
        (["lambda", "--N", "1e4", "--J", "2", "--Nj", "1e4"], "lambda"),
        (["alpha", "--N", "1e4"], "alpha"),
        (["beta", "--J", "2", "--Nj", "1e4"], "beta"),
        (["means", "--N", "1e4"], "means"),
    ], ids=["lambda", "alpha", "beta", "means"])
    def test_provenance_names_the_engine_run(self, tmp_path, monkeypatch, argv, name):
        # Two workers on a pass this small run serially, and say so; with
        # the serial threshold at 0 the same pass forks.
        from aliquot import numerics

        assert run([*argv, "--workers", "2", "--block-size", "4096",
                    "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(numerics, "SERIAL_INTEGERS", 0)
        assert run([*argv, "--workers", "2", "--block-size", "4096",
                    "--out", str(tmp_path / "b")]) == 0
        engines = [read_json(tmp_path / d / f"{name}.json")["provenance"]["engine"] for d in "ab"]
        assert engines == ["serial", "processes"]

    def test_killed_lambda_resumes_and_shares_beta_records(self, tmp_path, monkeypatch,
                                                            killed_at_block):
        # One prime pass serves alpha (to N = 3e5, 19 blocks) and beta (to
        # P = 2e5, 13 blocks).  Killed at block 3, lambda writes no report
        # and keeps beta's blocks 0-2; beta resumes that file (checking
        # blocks 0 and 2, then running 3 and 4 before its kill at block 5),
        # and lambda resumes beta's file to the one-shot bits.
        from aliquot import beta

        beta_flags = ["--J", "2", "--Nj", "2e5", "--block-size", "16384"]
        ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
        lam = ["lambda", "--N", "3e5", *beta_flags]
        with killed_at_block(3, 16384):
            run([*lam, *ckpt, "--out", str(tmp_path / "a")])
        assert not (tmp_path / "a").exists()
        (stored,) = (tmp_path / "ckpt").iterdir()
        assert len(read_json(stored)["blocks"]) == 3

        kernel, calls = beta._log_beta_terms, []
        monkeypatch.setattr(beta, "_log_beta_terms",
                            lambda primes, J: calls.append(int(primes[0]) // 16384)
                            or kernel(primes, J))
        with killed_at_block(5, 16384):
            run(["beta", *beta_flags, *ckpt, "--out", str(tmp_path / "a")])
        assert calls == [0, 2, 3, 4]
        assert not (tmp_path / "a").exists()
        assert len(read_json(stored)["blocks"]) == 5

        assert run([*lam, *ckpt, "--out", str(tmp_path / "a")]) == 0
        assert run([*lam, "--out", str(tmp_path / "b")]) == 0
        resumed, oneshot = (read_json(tmp_path / d / "lambda.json") for d in "ab")
        assert resumed["lambda_upper"].hex() == oneshot["lambda_upper"].hex()
        assert resumed["alpha"] | {"elapsed_seconds": 0} == oneshot["alpha"] | {"elapsed_seconds": 0}
        assert resumed["beta"]["terms"] == oneshot["beta"]["terms"]

    @pytest.mark.parametrize("flags, code", [
        (["--N", "2"], 1),
        (["--block-size", "0"], 1),
        (["--M", "15"], 1),
        (["--N", "2e10"], 2),
    ])
    def test_bad_alpha_flags_fail_before_beta(self, tmp_path, monkeypatch, flags, code):
        from aliquot import beta

        def no_beta(*args, **kwargs):
            raise AssertionError("beta ran")

        monkeypatch.setattr(beta, "euler_pass", no_beta)
        assert run(["lambda", *flags, "--J", "2", "--Nj", "1e4", "--out", str(tmp_path)]) == code
        assert not list(tmp_path.iterdir())


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 500, "mean_class": "odd"}))
        assert run(["means", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "means.json")["class"] == "odd"
        assert read_json(tmp_path / "means.json")["N"] == 500
        assert run(["means", "--config", str(cfg), "--N", "700",
                    "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "means.json")["N"] == 700

    def test_missing_config_file(self, tmp_path):
        assert run(["means", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 1


class TestConfigValues:
    def _means(self, tmp_path, config, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return run(["means", "--config", str(cfg), "--out", str(tmp_path), *flags])

    @pytest.mark.parametrize("value", ["1e4", 1e4])
    def test_value_parsed_by_the_flag_type(self, tmp_path, value):
        assert self._means(tmp_path, {"N": value}) == 0
        assert read_json(tmp_path / "means.json")["N"] == 10000

    @pytest.mark.parametrize(
        "config",
        [{"N": 5000.5}, "N", ["N", 500], {"N": None}, {"N": True},
         {"class": "odd"}, {"mean_class": "prime"}],
        ids=["fraction", "string", "list", "null", "bool", "unknown-key", "bad-choice"],
    )
    def test_rejected_config_exits_1(self, tmp_path, capsys, config):
        assert self._means(tmp_path, config) == 1
        assert "error" in capsys.readouterr().err

    def test_unparsable_config_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        assert run(["means", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_common_flags_from_config(self, tmp_path):
        out = tmp_path / "elsewhere"
        config = {"N": 3000, "workers": 2, "block_size": 1024, "out": str(out)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["means", "--config", str(cfg)]) == 0
        provenance = read_json(out / "means.json")["provenance"]
        assert (provenance["workers"], provenance["block_size"]) == (2, 1024)
        assert run(["means", "--config", str(cfg), "--workers", "1"]) == 0
        assert read_json(out / "means.json")["provenance"]["workers"] == 1

    def test_checkpoint_flags_from_config(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        cfg = tmp_path / "cfg.json"
        config = {"J": 2, "Nj": 1e5, "block_size": 16384, "checkpoint_dir": str(ckpt)}
        cfg.write_text(json.dumps(config))
        assert run(["beta", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert len(read_json(tmp_path / "a" / "beta.json")["terms"]) == 2
        assert len(list(ckpt.iterdir())) == 1
        # The early stop names no flag: the config is rejected, no report.
        cfg.write_text(json.dumps({**config, EARLY_STOP: 2}))
        assert run(["beta", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
        assert f"no beta flag takes {EARLY_STOP}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


class TestReproducibility:
    def test_rerun_reproduces_results(self, tmp_path):
        run(["means", "--class", "even", "--N", "5e3", "--out", str(tmp_path / "a")])
        run(["means", "--class", "even", "--N", "5e3", "--out", str(tmp_path / "b")])
        a = read_json(tmp_path / "a" / "means.json")
        b = read_json(tmp_path / "b" / "means.json")
        a.pop("provenance")
        b.pop("provenance")
        assert a == b


class TestCombineLambda:
    def test_equal_bounds_give_zero(self):
        from aliquot.alpha import AlphaResult
        from aliquot.beta import BetaSummary
        from aliquot.numerics import CertifiedValue

        alpha_result = AlphaResult(10, CertifiedValue(0.7, 0.0), 0.0, 0.7, 0, 0.0)
        beta_result = BetaSummary(CertifiedValue(0.7, 0.0), [], 0.0)
        report = combine_lambda(alpha_result, beta_result)
        assert abs(report.lambda_upper) < 1e-15
        assert report.mu_upper >= 1.0

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "alq"

    @pytest.mark.parametrize("verb", ["alpha", "beta", "lambda", "means"])
    def test_block_size_default_is_the_package_default(self, verb):
        # The parser repeats the literal so that alq starts without numpy.
        from aliquot.numerics import DEFAULT_BLOCK_SIZE

        assert build_parser().parse_args([verb]).block_size == DEFAULT_BLOCK_SIZE

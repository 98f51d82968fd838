"""End-to-end certificate bits at a small scale, pinned as hex floats.

Recorded with numpy 2.4.6, like the block goldens.  Any change to the
block kernels, the summation or the tails that moves a single bit of
these reports fails here.
"""

import json

from aliquot.cli import run


def _report(tmp_path, argv, name):
    assert run([*argv, "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.json") as fh:
        return json.load(fh)


def test_lambda_bits(tmp_path):
    doc = _report(tmp_path, ["lambda", "--N", "1e5", "--Nj", "4e5"], "lambda")
    assert doc["alpha"]["upper_bound"].hex() == "0x1.658b04442eb33p-1"
    assert doc["beta"]["lower_bound"].hex() == "0x1.769126681c3f4p-1"
    assert doc["lambda_upper"].hex() == "-0x1.1062223ed8c3dp-5"


def test_beta_series_bits(tmp_path):
    # P = 5e6 runs the power-series pass for the primes past 2^20.
    doc = _report(tmp_path, ["beta", "--J", "32", "--Nj", "5e6"], "beta")
    assert doc["lower_bound"].hex() == "0x1.76913134d34d6p-1"


def test_even_means_bits(tmp_path):
    doc = _report(tmp_path, ["means", "--class", "even", "--N", "1e5"], "means")
    assert doc["log_mean"].hex() == "-0x1.10b7f788ea01fp-5"
    assert doc["log_mean_error_radius"].hex() == "0x1.0e568ef0dfecep-38"


def test_default_lambda_bits(tmp_path):
    # alq lambda at its defaults: alpha at N = 1e6, beta's J = 32 j-terms
    # over the odd primes to P = 1e6.
    doc = _report(tmp_path, ["lambda"], "lambda")
    assert doc["alpha"]["upper_bound"].hex() == "0x1.6589eeebdb468p-1"
    assert doc["beta"]["lower_bound"].hex() == "0x1.76912dab006a3p-1"
    assert doc["lambda_upper"].hex() == "-0x1.1073ebf2523cdp-5"

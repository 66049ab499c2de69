import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from mpmath import mp

import zetaforms
from zetaforms import criterion, linear_forms, saddle
from zetaforms.cli import main


def run(argv):
    return main(argv)


def test_forms_command_writes_certificate(tmp_path):
    out = tmp_path / "forms.json"
    code = run(["forms", "--a", "7", "--r", "1", "--n", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["schema"] == "zetaforms/forms-certificate@1"
    assert len(doc["forms"]) == 2
    for f in doc["forms"]:
        assert f["denominator_check"]["pass"]
    # deterministic: second run produces identical bytes
    out2 = tmp_path / "forms2.json"
    run(["forms", "--a", "7", "--r", "1", "--n", "2", "--out", str(out2)])
    assert out.read_text() == out2.read_text()
    assert (tmp_path / "forms.json.meta.json").exists()


def test_forms_command_rejects_even_a(capsys):
    assert run(["forms", "--a", "8", "--r", "1", "--n", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid-spec"


def test_forms_command_rejects_6r_gt_a():
    assert run(["forms", "--a", "7", "--r", "2", "--n", "1"]) == 2


def test_forms_residual_digits_below_50_is_input_error(capsys):
    assert run(["forms", "--a", "7", "--r", "1", "--n", "1", "--residual-digits", "30"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invalid-digits"


def test_forms_broken_structure_is_a_failed_check(monkeypatch, capsys):
    # one unit more in the order-1 column at the pole j = 0: the column no
    # longer sums to 0, and no zeta form can be made from the table
    spec = linear_forms.FormSpec(7, 1, 2)
    held = linear_forms.table_for(spec)
    num = [row[:] for row in held.num]
    num[spec.a - 1][spec.n] += 1
    broken = linear_forms.PartialFractionTable(spec=spec, num=num, den=held.den)
    monkeypatch.setattr(linear_forms, "table_for", lambda _spec: broken)
    assert run(["forms", "--a", "7", "--r", "1", "--n", "2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "structure"


def test_forms_residual_check_fails_on_a_shifted_constant(monkeypatch, tmp_path):
    # the plain form's constant moved by an exact 10^-120: its residual
    # against the series reads 1e-120, above the 1e-125 threshold
    real = linear_forms.zeta_form_plain

    def shifted(table):
        form = real(table)
        return replace(form, constant=form.constant + Fraction(1, 10 ** 120))

    monkeypatch.setattr(linear_forms, "zeta_form_plain", shifted)
    out = tmp_path / "forms.json"
    assert run(["forms", "--a", "7", "--r", "1", "--n", "1", "--residual-digits", "250",
                "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert abs(float(doc["residuals"]["plain"]) - 1e-120) < 1e-125
    assert float(doc["residuals"]["double_derived"]) < 1e-125


def test_forms_denominator_check_fails_on_a_shifted_constant(monkeypatch, tmp_path):
    # the plain form's constant moved by an exact 1/101: 101 > 2n is prime,
    # so no power of d_2n clears it, and only that form's check fails
    real = linear_forms.zeta_form_plain

    def shifted(table):
        form = real(table)
        return replace(form, constant=form.constant + Fraction(1, 101))

    monkeypatch.setattr(linear_forms, "zeta_form_plain", shifted)
    out = tmp_path / "forms.json"
    assert run(["forms", "--a", "7", "--r", "1", "--n", "2", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    plain, derived = doc["forms"]
    assert plain["denominator_check"]["pass"] is False
    assert plain["denominator_check"]["smallest_clearing_exponent"] is None
    assert derived["denominator_check"]["pass"] is True


def test_forms_residual_out_of_reach_is_numeric_failure(capsys):
    # the Laurent tail of (7,1,1) cannot reach 10^-40010 within its order cap
    assert run(["forms", "--a", "7", "--r", "1", "--n", "1", "--residual-digits", "40000"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "residual"
    assert "does not reach" in err["error"]["message"]
    assert "lower the precision target (--residual-digits" in err["error"]["message"]
    assert "split point" not in err["error"]["message"]


def test_forms_past_the_int_string_cap():
    # the constant of (7,1,320) has 4454 digits, past Python's default cap
    # of 4300 on int <-> str conversion; run in a child with its address
    # space limited, as a large input would be
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from zetaforms.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(zetaforms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, "forms", "--a", "7", "--r", "1",
                           "--n", "320"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert max(len(form["constant"]["num"]) for form in doc["forms"]) > 4300


def test_asymptotics_command(tmp_path):
    out = tmp_path / "saddle.json"
    code = run(["asymptotics", "--a", "13", "--r", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["eps_pp_lt_eps"] and doc["eps_a_lt_1"]
    assert "assumption_report" in doc
    assert doc["schema"] == "zetaforms/saddle-certificate@1"


def test_asymptotics_small_a_warns(capsys):
    # a = 5 admits no r with 6r <= a: explained refusal, input-error exit
    code = run(["asymptotics", "--a", "5"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "asymptotic" in err["error"]["message"]


def test_rank_bound_small_a_is_numeric_failure():
    assert run(["rank-bound", "--a", "13"]) == 3


def test_rank_bound_1001(tmp_path):
    out = tmp_path / "rank.json"
    code = run(["rank-bound", "--a", "1001", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"]
    assert doc["tau1"] > 0 and doc["tau2"] > 0 and float(doc["tau_gap"]) > 0
    assert doc["bound"] == 2 + doc["tau1"] + doc["tau2"]


def test_asymptotics_check_fails_on_a_negated_gap(monkeypatch, tmp_path):
    # log eps - log eps'' negated exactly: eps'' < eps no longer holds, so
    # the certificate is written with pass false and the exit is 1
    real = saddle.compute_constants

    def negated(*args, **kwargs):
        data = real(*args, **kwargs)
        return replace(data, log_eps_gap=-data.log_eps_gap)

    monkeypatch.setattr(saddle, "compute_constants", negated)
    out = tmp_path / "asym.json"
    assert run(["asymptotics", "--a", "13", "--r", "2", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert doc["eps_pp_lt_eps"] is False and doc["eps_a_lt_1"] is True


def test_rank_bound_check_fails_on_a_negated_gap(monkeypatch, tmp_path):
    # tau2 - tau1 negated exactly (its decimal string's sign): the
    # certificate is written with pass false and the exit is 1
    real = criterion.zeta_rank_bound

    def negated(a):
        cert = real(a)
        assert not cert["tau_gap"].startswith("-")
        return {**cert, "tau_gap": "-" + cert["tau_gap"]}

    monkeypatch.setattr(criterion, "zeta_rank_bound", negated)
    out = tmp_path / "rank.json"
    assert run(["rank-bound", "--a", "1001", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert mp.mpf(doc["tau_gap"]) < 0 and doc["tau1"] > 0


def test_rank_bound_distinct_past_float_resolution(tmp_path):
    # tau1 and tau2 round to the same double at 1e10+1 and agree to working
    # precision at 1e30+1 (gap 9.2e-593 at 370 digits); the gap decides
    for a in (10**10 + 1, 10**30 + 1):
        out = tmp_path / f"rank-{a}.json"
        code = run(["rank-bound", "--a", str(a), "--out", str(out)])
        assert code == 0, a
        doc = json.loads(out.read_text())
        assert doc["pass"]
        assert doc["tau1"] == doc["tau2"]
        assert mp.mpf(doc["tau_gap"]) > 0


def test_asymptotics_uncertified_root_is_numeric_failure(monkeypatch, capsys):
    # a root run stopped short must be refused with the numeric-failure code
    monkeypatch.setattr(saddle, "_STEP_CAP", 1)
    assert run(["asymptotics", "--a", "13", "--r", "2"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "not certified" in err["error"]["message"]


@pytest.mark.parametrize("dps, code", [("1", 3), ("10", 3), ("20", 0), (None, 0)])
def test_asymptotics_low_precision_root_is_refused(dps, code, capsys):
    # at 1 and 10 digits the iteration stops at mu1 = 7.875 and 11.64441
    # (true 11.64471), with scaled residuals 0.355 and 9.9e-6, each below
    # 10^-(dps//2) but far from a root
    argv = ["asymptotics", "--a", "13"] + ([] if dps is None else ["--dps", dps])
    assert run(argv) == code
    if code:
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "root-finding"
    else:
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_asymptotics_root_below_the_resolution_of_c(tmp_path):
    # mu1 - c is about 1.08e-100 at 100 digits, so mu1 itself rounds to c
    out = tmp_path / "saddle.json"
    assert run(["asymptotics", "--a", "1001", "--r", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    gap = float(doc["assumption_report"]["cond1_mu1_window"]["mu1_minus_c"])
    assert 1e-101 < gap < 1e-99
    assert doc["pass"] and doc["eps_pp_lt_eps"]
    assert doc["certificates"]["mu1"]["method"] == "log-offset-newton"


def test_criterion_rank_fixture(tmp_path):
    src = resources.files("zetaforms.data") / "gutnik_log2_zeta.json"
    out = tmp_path / "report.json"
    code = run(["criterion", "--in", str(src), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rank"] == 4 and doc["pass"]


def test_criterion_type2_fixture(tmp_path):
    src = resources.files("zetaforms.data") / "sqrt2_type2.json"
    code = run(["criterion", "--in", str(src)])
    assert code == 0


def test_criterion_type2_beyond_float_range_is_numeric_failure(tmp_path, capsys):
    # the box caps Q^tau of Q = 10^400 exceed the double range
    doc = json.loads((resources.files("zetaforms.data") / "sqrt2_type2.json").read_text())
    doc["Q"] = 10**400
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert run(["criterion", "--in", str(big)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "criterion"


def test_criterion_projective_distance_fixture(tmp_path):
    src = resources.files("zetaforms.data") / "golden_projective_distance.json"
    out = tmp_path / "report.json"
    assert run(["criterion", "--in", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # the golden convergents (55, 89) .. (832040, 1346269) are the points decided
    assert doc["pass"] and doc["violations"] == [] and doc["checked"] == 21
    assert -2.25 <= doc["best_exponent"] <= -1.95


def test_import_leaves_numpy_out():
    code = "import sys, zetaforms, zetaforms.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(zetaforms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_criterion_oscillation_fixture():
    src = resources.files("zetaforms.data") / "golden_oscillation.json"
    assert run(["criterion", "--in", str(src)]) == 0


@pytest.mark.parametrize("fixture, field, change", [
    ("gutnik_log2_zeta.json", "expected_rank", lambda rank: rank + 1),
    ("sqrt2_type2.json", "tau", lambda taus: [t + 0.5 for t in taus]),
    ("golden_projective_distance.json", "norm_threshold", lambda _threshold: 1.0),
], ids=["rank", "type2", "projective-distance"])
def test_criterion_fails_on_a_changed_fixture(fixture, field, change, tmp_path):
    # a shipped instance with one field changed: the check it reports fails
    doc = json.loads((resources.files("zetaforms.data") / fixture).read_text())
    doc[field] = change(doc[field])
    src, out = tmp_path / fixture, tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    assert run(["criterion", "--in", str(src), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["pass"] is False


def test_criterion_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "rational_rank",\n  broken')
    assert run(["criterion", "--in", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "malformed-json"
    assert "line" in err["error"]


def test_criterion_zero_divisor_is_malformed_instance(tmp_path, capsys):
    data = resources.files("zetaforms.data")
    rank = json.loads((data / "gutnik_log2_zeta.json").read_text())
    rank["columns"][0][0]["1"]["den"] = "0"
    dist = json.loads((data / "golden_projective_distance.json").read_text())
    dist.update(tau=0, p_max=1000)
    for doc in (rank, dist):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        assert run(["criterion", "--in", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "malformed-instance"


def test_criterion_unknown_kind(tmp_path):
    f = tmp_path / "u.json"
    f.write_text(json.dumps({"kind": "mystery"}))
    assert run(["criterion", "--in", str(f)]) == 2


@pytest.mark.parametrize("argv, kind", [
    (["rates", "--a", "1", "--n-range", "1..2"], "invalid-a"),
    (["rates", "--a", "5", "--n-range", "1..2"], "no-admissible-r"),
    (["rates", "--a", "13", "--r", "3", "--n-range", "1..2"], "invalid-r"),
    (["rates", "--a", "13", "--n-range", "0..2"], "invalid-range"),
    (["rates", "--a", "13", "--n-range", "5..3"], "invalid-range"),
    (["rates", "--a", "13", "--r", "-2", "--n-range", "1..2"], "invalid-r"),
    (["asymptotics", "--a", "13", "--r", "-1"], "invalid-r"),
    (["asymptotics", "--a", "13", "--dps", "-5"], "invalid-digits"),
], ids=["rates-a1", "rates-a5", "rates-r3", "rates-n0", "rates-empty-range", "rates-r-2",
        "asymptotics-r-1", "asymptotics-dps-5"])
def test_input_errors_exit_2_before_computing(argv, kind, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the input was checked")

    monkeypatch.setattr(saddle, "compute_constants", refuse)
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == kind
    assert not out.exists()


def test_unreadable_digits_variable_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("ZETAFORMS_DIGITS", "abc")
    for argv in (["asymptotics", "--a", "13"], ["rates", "--a", "13", "--n-range", "20..20"]):
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invalid-digits"


def test_dps_option_takes_precedence_over_the_digits_variable(monkeypatch, tmp_path):
    # the variable applies only where the option is not given
    monkeypatch.setenv("ZETAFORMS_DIGITS", "30")
    out = tmp_path / "saddle.json"
    for argv, dps in ((["--dps", "60"], 60), ([], 30)):
        assert run(["asymptotics", "--a", "13", "--r", "2", *argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["precision_dps"] == dps


def test_rates_csv(tmp_path):
    out = tmp_path / "rates.csv"
    code = run(["rates", "--a", "13", "--r", "2", "--n-range", "20..22",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,logSn_over_n,logSppn_over_n,sign,cos_reference"
    assert len(lines) == 4
    # recorded with the direct-summation route; the exact forms must give
    # the same bytes
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "05c011b2cff667341884c48e088d4330c18f87bc597e407ddc4a0586850e66af"


def test_every_command_writes_the_same_bytes_whatever_ran_before(tmp_path):
    # each command twice in a row, then once more after all the others:
    # every main artifact is a function of its command line alone
    fixture = resources.files("zetaforms.data") / "gutnik_log2_zeta.json"
    commands = {
        "forms": ["forms", "--a", "7", "--r", "1", "--n", "2", "--residual-digits", "250"],
        "asymptotics": ["asymptotics", "--a", "13", "--r", "2"],
        "rank-bound": ["rank-bound", "--a", "1001"],
        "rates": ["rates", "--a", "13", "--r", "2", "--n-range", "20..21", "--format", "csv"],
        "criterion": ["criterion", "--in", str(fixture)],
    }

    def artifact(name, k):
        out = tmp_path / f"{name}-{k}"
        assert run(commands[name] + ["--out", str(out)]) == 0, name
        return out.read_bytes()

    runs = {name: [artifact(name, 0), artifact(name, 1)] for name in commands}
    for name in commands:
        runs[name].append(artifact(name, 2))
    for name, (first, *later) in runs.items():
        assert later == [first, first], name
    residuals = json.loads(runs["forms"][0])["residuals"]
    assert (residuals["plain"], residuals["double_derived"]) == ("4.9273e-263", "1.25351e-262")

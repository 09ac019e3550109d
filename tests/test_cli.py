import json
import math
import re
import subprocess
import sys

import pytest

from decogate.cli import main


CSV_HEADER = "gate,tau,omega_tau,fractional_error,one_minus_fidelity,stderr"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_fidelity_one_bit_json(capsys):
    code, out = run(capsys, "fidelity", "--gate", "one-bit", "--rotation", "pi")
    assert code == 0
    doc = strict_json(out)
    assert doc["gate"] == "one-bit"
    assert doc["method"] == "analytic"
    assert doc["one_minus_fidelity"] == pytest.approx(5.885859331267e-4, rel=1e-9)
    assert doc["fidelity"] + doc["one_minus_fidelity"] == pytest.approx(1.0)
    assert doc["params"]["omega"] == 1e5
    assert doc["params"]["tau"] == 1e-8
    assert doc["params"]["seed"] == 0


def test_fidelity_two_bit_mc(capsys):
    code, out = run(capsys, "fidelity", "--gate", "two-bit", "--method", "mc",
                    "--samples", "20000", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["stderr"] > 0
    assert doc["one_minus_fidelity"] == pytest.approx(2.634e-5, rel=0.05)


@pytest.mark.parametrize("gate", [["one-bit", "--rotation", "pi"], ["two-bit"]])
@pytest.mark.parametrize("samples", ["-5", "0", "999"])
def test_fidelity_mc_too_few_samples_is_usage_error(capsys, gate, samples):
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--gate", *gate, "--method", "mc", "--samples", samples])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["analytic", "mc"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--gate", "two-bit", "--tau", "nan"],
        ["--gate", "two-bit", "--omega", "inf"],
        ["--gate", "two-bit", "--eta", "nan"],
        ["--gate", "one-bit", "--time", "nan"],
        ["--gate", "one-bit", "--time", "inf"],
    ],
)
def test_fidelity_non_finite_parameter_is_usage_error(capsys, method, flags):
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--method", method, "--samples", "2000", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_fidelity_requires_time_or_rotation():
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--gate", "one-bit"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--gate", "one-bit", "--time", "3e-5", "--rotation", "pi"],
        ["--gate", "two-bit", "--time", "3e-5"],
        ["--gate", "two-bit", "--rotation", "pi"],
        ["--gate", "two-bit", "--time", "3", "--rotation", "pi"],
    ],
)
def test_fidelity_flag_it_would_ignore_is_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--time" in captured.err or "--rotation" in captured.err


def test_sweep_csv_schema(capsys):
    code, out = run(capsys, "sweep", "--gate", "one-bit",
                    "--tau-min", "1e-10", "--tau-max", "1e-8", "--points", "5", "--fit")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7  # header + 5 rows + fit comment
    for line in lines[1:6]:
        fields = line.split(",")
        assert fields[0] == "one-bit"
        for value in fields[1:]:
            assert "e" in value  # scientific notation
            float(value)
    assert lines[6].startswith("# slope=")
    slope = float(lines[6].split("slope=")[1].split()[0])
    r2 = float(lines[6].split("r2=")[1])
    assert slope == pytest.approx(2.0, abs=0.05)
    assert r2 > 0.9999


def test_sweep_mc_byte_identical_per_seed(capsys):
    argv = ["sweep", "--gate", "one-bit", "--tau-min", "1e-10", "--tau-max", "1e-9",
            "--points", "3", "--method", "mc", "--samples", "5000", "--seed", "7"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_sweep_single_point_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--gate", "one-bit", "--tau-min", "1e-10",
              "--tau-max", "1e-8", "--points", "1"])
    assert exc.value.code == 2


def test_sweep_fit_on_two_points_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--gate", "one-bit", "--tau-min", "1e-10",
              "--tau-max", "1e-8", "--points", "2", "--fit"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_sweep_bad_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--gate", "one-bit", "--tau-min", "1e-8",
              "--tau-max", "1e-10", "--points", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--omega", "nan"], ["--eta", "inf"]])
def test_sweep_non_finite_parameter_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--gate", "one-bit", "--tau-min", "1e-10",
              "--tau-max", "1e-8", "--points", "5", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "tau_min, tau_max, field",
    [("nan", "1e-8", "tau_min"), ("inf", "1e-8", "tau_min"),
     ("1e-10", "nan", "tau_max"), ("1e-10", "inf", "tau_max")],
)
def test_sweep_non_finite_tau_bound_is_usage_error(capsys, tau_min, tau_max, field):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--gate", "two-bit", "--tau-min", tau_min, "--tau-max", tau_max])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite" in captured.err


def test_shor_four_bit_report(capsys):
    code, out = run(capsys, "shor", "--bits", "4")
    assert code == 0
    doc = strict_json(out)
    assert doc["n_ions"] == 20
    assert doc["gamma"] == pytest.approx(0.1, rel=1e-9)
    assert doc["decoherence_time"] == pytest.approx(10.0, rel=1e-9)
    assert doc["n_ops"] == 64000
    assert doc["total_time"] == pytest.approx(359.6705142292852, rel=1e-9)
    assert doc["ratio"] == pytest.approx(35.96705142292852, rel=1e-9)
    assert doc["feasible"] is False


def test_shor_says_on_stderr_that_it_ignores_ions(capsys):
    # an L-bit register has 5L ions; the flag changes neither stdout nor the exit code
    _, plain = run(capsys, "shor", "--bits", "4")
    code = main(["shor", "--bits", "4", "--ions", "7"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == plain
    assert "--ions" in captured.err and len(captured.err.splitlines()) == 1


def test_shor_at_tau_zero_writes_a_null_decoherence_time(capsys):
    code, out = run(capsys, "shor", "--bits", "4", "--tau", "0")
    assert code == 0
    doc = strict_json(out)
    assert doc["decoherence_time"] is None
    assert doc["gamma"] == 0.0 and doc["feasible"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gate", [["one-bit", "--rotation", "pi"], ["two-bit"]])
def test_fidelity_at_a_subnormal_tau_is_the_delta_limit(capsys, gate):
    # t/tau overflows; the answer is the tau = 0 one, in strict JSON
    code, out = run(capsys, "fidelity", "--gate", *gate, "--tau", "5e-324")
    assert code == 0
    _, exact = run(capsys, "fidelity", "--gate", *gate, "--tau", "0")
    doc, want = strict_json(out), strict_json(exact)
    assert (doc["fidelity"], doc["one_minus_fidelity"]) == (want["fidelity"], want["one_minus_fidelity"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gate", [["one-bit", "--rotation", "pi"], ["two-bit"]])
def test_fidelity_mc_at_a_subnormal_tau_is_the_delta_limit(capsys, gate):
    code, out = run(capsys, "fidelity", "--gate", *gate, "--method", "mc",
                    "--samples", "1000", "--tau", "5e-324")
    assert code == 0
    doc = strict_json(out)
    assert (doc["one_minus_fidelity"], doc["stderr"]) == (0.0, 0.0)


def test_fidelity_mc_at_a_huge_shape_draws_resolved_deviations(capsys):
    # t/tau = 1e308: the deviations spread over many turns, so 1 - F is 3/8;
    # drawn as a Gamma area less its mean, they were multiples of its ulp
    code, out = run(capsys, "fidelity", "--gate", "one-bit", "--time", "1e300",
                    "--method", "mc", "--samples", "1000")
    assert code == 0
    doc = strict_json(out)
    assert abs(doc["one_minus_fidelity"] - 0.375) <= 5 * doc["stderr"]


@pytest.mark.parametrize("gate", [["one-bit", "--rotation", "pi"], ["two-bit"]])
def test_fidelity_mc_at_an_overflowing_tau_is_usage_error(capsys, gate):
    # the area distribution's scale omega*tau overflows
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--gate", *gate, "--method", "mc", "--samples", "1000", "--tau", "1e305"])
    assert exc.value.code == 2
    assert "overflows" in capsys.readouterr().err


def test_fidelity_refuses_to_print_a_nan(capsys, monkeypatch):
    import decogate.fidelity as fidelity
    from decogate.fidelity import GateFidelityResult, Method

    def nan_result(ctx, *args):
        return GateFidelityResult(math.nan, math.nan, Method.ANALYTIC, 0.0, ctx, 1.0)

    monkeypatch.setattr(fidelity, "fidelity_two_bit", nan_result)
    assert main(["fidelity", "--gate", "two-bit"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error")
def test_sweep_and_evolve_at_a_subnormal_tau_print_finite_rows(tmp_path, capsys):
    code, out = run(capsys, "sweep", "--gate", "one-bit", "--tau-min", "5e-324",
                    "--tau-max", "1e-300", "--points", "3")
    assert code == 0
    rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)
    h = tmp_path / "h.json"
    _write_hamiltonian(h)
    code, out = run(capsys, "evolve", "--hamiltonian", str(h), "--t", "3e-5",
                    "--tau", "5e-324", "--points", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_shor_bad_bits_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["shor", "--bits", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag",
    [["--tau", "nan"], ["--threshold", "nan"], ["--omega", "inf"], ["--eta", "-inf"],
     ["--threshold", "inf"]],
)
def test_shor_non_finite_parameter_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["shor", "--bits", "4", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("eta", ["1", "2"])
def test_shor_eta_outside_the_lamb_dicke_range_is_usage_error(capsys, eta):
    # the same domain, and the same message, as fidelity --eta
    for command in (["shor", "--bits", "4"], ["fidelity", "--gate", "two-bit"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--eta", eta])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Lamb-Dicke parameter must be in (0, 1)" in captured.err


def test_sweep_fit_at_tiny_noise(capsys):
    # Omega*tau from 1e-16 to 1e-13: 1-F stays positive and quadratic in the
    # fractional area error
    code, out = run(capsys, "sweep", "--gate", "one-bit", "--tau-min", "1e-21",
                    "--tau-max", "1e-18", "--points", "5", "--fit")
    assert code == 0
    slope = float(out.strip().splitlines()[-1].split()[1].removeprefix("slope="))
    assert slope == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("gate", ["one-bit", "two-bit"])
def test_mc_sweep_fit_at_tiny_noise(capsys, gate):
    # every per-sample F rounds to 1 here; the per-sample infidelity keeps
    # each 1-F positive, so the fit runs and finds the quadratic law
    argv = ["sweep", "--gate", gate, "--tau-min", "1e-21", "--tau-max", "1e-18",
            "--points", "3", "--method", "mc", "--fit"]
    code, _ = run(capsys, *argv, "--samples", "1000")
    assert code == 0
    code, out = run(capsys, *argv, "--samples", "100000")
    assert code == 0
    slope = float(out.strip().splitlines()[-1].split()[1].removeprefix("slope="))
    assert slope == pytest.approx(2.0, abs=0.05)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "shor", "--bits", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["feasible"] is False


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 2e5  # trailing comment\ntau = 2e-8\n# full comment\n")
    code, out = run(capsys, "fidelity", "--gate", "one-bit", "--rotation", "pi",
                    "--config", str(cfg), "--tau", "1e-8")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["omega"] == 2e5  # from config
    assert doc["params"]["tau"] == 1e-8  # flag wins over config


def test_config_malformed_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega 2e5\n")
    with pytest.raises(SystemExit) as exc:
        main(["shor", "--bits", "4", "--config", str(cfg)])
    assert exc.value.code == 2
    # a value that does not parse, or a misspelt key, names the key and the file
    for line, key in [("seed = abc", "seed"), ("samples = 1e6", "samples"), ("tua = 1e-6", "tua")]:
        cfg.write_text(line + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["shor", "--bits", "4", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert key in err and str(cfg) in err


def _write_hamiltonian(path, omega=1e5):
    doc = [[[0.0, 0.0], [omega / 2, 0.0]], [[omega / 2, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps(doc))


def test_evolve_csv(tmp_path, capsys):
    h = tmp_path / "h.json"
    _write_hamiltonian(h)
    code, out = run(capsys, "evolve", "--hamiltonian", str(h),
                    "--t", str(math.pi / 1e5), "--tau", "1e-8", "--points", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "time,trace_distance,max_offdiag_error"
    assert len(lines) == 5
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(math.pi / 1e5, rel=1e-9)
    assert 0 <= last[1] < 1e-5


def test_evolve_eigenbasis_initial_state_is_stationary(tmp_path, capsys):
    h = tmp_path / "h.json"
    _write_hamiltonian(h)
    code, out = run(capsys, "evolve", "--hamiltonian", str(h),
                    "--t", str(math.pi / 1e5), "--tau", "1e-7",
                    "--points", "4", "--rho0-eigenbasis")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) < 1e-10


def test_evolve_malformed_matrix_names_position(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(json.dumps([[[0.0, 0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--hamiltonian", str(h), "--t", "1e-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "row 0" in err and "column 1" in err


def test_evolve_boolean_hamiltonian_entry_is_usage_error(tmp_path, capsys):
    # JSON true and false are not numbers, though Python's bool is an int
    h = tmp_path / "h.json"
    h.write_text(json.dumps([[[True, False], [0, 0]], [[0, 0], [False, False]]]))
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--hamiltonian", str(h), "--t", "1e-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "row 0, column 0: expected [re, im]" in captured.err


def test_evolve_non_hermitian_is_usage_error(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--hamiltonian", str(h), "--t", "1e-5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--tau", "nan"],
        ["--tau=-1e-8"],
        ["--tau", "inf"],
        ["--t", "nan"],
        ["--t", "inf"],
        ["--t=-1e-5"],
        ["--points", "0"],
        ["--points=-2"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_evolve_out_of_domain_flag_is_usage_error(tmp_path, capsys, flags):
    h = tmp_path / "h.json"
    _write_hamiltonian(h)
    argv = ["evolve", "--hamiltonian", str(h), "--t", "1e-5"] + flags
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_evolve_non_finite_hamiltonian_is_usage_error(tmp_path, capsys, bad):
    h = tmp_path / "h.json"
    h.write_text(f"[[[0, 0], [{bad}, 0]], [[{bad}, 0], [0, 0]]]")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--hamiltonian", str(h), "--t", "1e-5"])
    assert exc.value.code == 2
    assert "non-finite" in capsys.readouterr().err


def test_validate_too_few_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--samples", "999"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_validate_small_sample_run(capsys):
    code, out = run(capsys, "validate", "--samples", "20000")
    assert code == 0
    lines = out.strip().split("\n")
    assert all("PASS" in line for line in lines)
    assert lines[-1].startswith("TOTAL")


def test_validate_out_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run(capsys, "validate", "--samples", "20000", "--out", str(target))
    assert code == 0
    assert out == ""
    _, report = run(capsys, "validate", "--samples", "20000")
    assert target.read_text() == report


# one valid invocation of every subcommand; "h.json" stands for a Hamiltonian file
EVERY_SUBCOMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--gate", "one-bit", "--rotation", "pi"],
        ["sweep", "--gate", "two-bit", "--tau-min", "1e-10", "--tau-max", "1e-8", "--points", "2"],
        ["shor", "--bits", "4"],
        ["evolve", "--hamiltonian", "h.json", "--t", "1e-5"],
        ["validate"],
    ],
    ids=lambda argv: argv[0],
)


@EVERY_SUBCOMMAND
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv, source):
    _write_hamiltonian(tmp_path / "h.json")
    argv = [str(tmp_path / a) if a == "h.json" else a for a in argv]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "cfg").write_text("seed = -1\n")
        argv += ["--config", str(tmp_path / "cfg")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


@EVERY_SUBCOMMAND
def test_usage_error_prints_the_subcommand_usage(tmp_path, capsys, argv):
    _write_hamiltonian(tmp_path / "h.json")
    argv = [str(tmp_path / a) if a == "h.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: decogate {argv[0]} ")


@EVERY_SUBCOMMAND
def test_unwritable_out_is_an_error_without_traceback(tmp_path, capsys, argv):
    _write_hamiltonian(tmp_path / "h.json")
    argv = [str(tmp_path / a) if a == "h.json" else a for a in argv]
    target = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.exists()


def loaded_modules(*args):
    """The modules a fresh `python *args` imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, check=True)
    return set(re.findall(r"^import time:\s+\d+ \|\s+\d+ \| *(\S+)$", proc.stderr, re.M))


def decogate_modules(modules):
    return {m.removeprefix("decogate.") for m in modules if m.split(".")[0] == "decogate"}


NUMERIC_CORE = {"decogate", "bounds", "statemath", "decoherence", "gates", "fidelity"}


@pytest.mark.parametrize(
    "args, own",
    [
        (["-c", "import decogate"], {"decogate"}),
        (["-c", "import decogate.cli"], {"decogate", "bounds", "cli"}),
        (["-m", "decogate.cli", "shor", "--bits", "4"], {"decogate", "bounds"}),
        (["-m", "decogate.cli", "--help"], {"decogate", "bounds"}),
    ],
    ids=["import-package", "import-cli", "shor", "help"],
)
def test_no_numerics_loads_no_numpy(args, own):
    modules = loaded_modules(*args)
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
    assert decogate_modules(modules) == own


@pytest.mark.parametrize(
    "argv, own",
    [
        (["fidelity", "--gate", "one-bit", "--rotation", "pi"], NUMERIC_CORE),
        (["fidelity", "--gate", "two-bit"], NUMERIC_CORE),
        (["sweep", "--gate", "two-bit", "--tau-min", "1e-10", "--tau-max", "1e-8"],
         NUMERIC_CORE | {"sweep"}),
    ],
    ids=["fidelity-one-bit", "fidelity-two-bit", "sweep"],
)
def test_analytic_subcommand_loads_only_what_it_calls(argv, own):
    # no dynamics or validate, and no numpy.random: nothing is sampled
    modules = loaded_modules("-m", "decogate.cli", *argv)
    assert decogate_modules(modules) == own
    assert "numpy.random" not in modules


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: only the test oracles use it
    code = "import sys, decogate.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"

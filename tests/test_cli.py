import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadrics import cli, quadric
from quadrics.action import GroupContext
from quadrics.cli import main
from quadrics.fields import Field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_json(capsys):
    code, out = run(capsys, "count", "--n", "2", "--field", "3")
    record = json.loads(out)
    assert code == 0
    assert record["count"] == record["closed_form"] == 90
    assert record["match"] is True
    assert record["strata"] == {"open": 54, "closed": 36}


def test_count_symbolic(capsys):
    code, out = run(capsys, "count", "--n", "6", "--q", "9")
    record = json.loads(out)
    assert code == 0
    assert record["closed_form"] == 9 ** 12 + 9 ** 6 == record["recursive"]
    assert "count" not in record


def test_count_n0(capsys):
    code, out = run(capsys, "count", "--n", "0", "--field", "7")
    record = json.loads(out)
    assert code == 0 and record["closed_form"] == 2


def test_count_rejects_bad_q(capsys):
    code = main(["count", "--n", "1", "--q", "6"])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


USAGE_ERRORS = [
    (["transport", "--n", "1", "--field", "3", "--point", "0,0,0,1", "--all"],
     "argument --all: not allowed with argument --point"),
    (["transport", "--n", "1", "--field", "3"], "one of the arguments --point --all is required"),
    (["count", "--n", "1", "--field", "2^2", "--q", "9"],
     "argument --q: not allowed with argument --field"),
    (["count", "--n", "1"], "one of the arguments --field --q is required"),
    (["verify", "homogeneous", "--n", "1", "--field", "3", "--q", "3"],
     "argument --q: not allowed with argument --field"),
    (["verify", "recursion", "--n", "1"], "one of the arguments --field --q is required"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_conflicting_or_missing_options_are_usage_errors(capsys, argv, message):
    # each combination used to be dropped silently or refused by a hand check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert "Traceback" not in captured.err


def test_verify_homogeneous(capsys):
    code, out = run(capsys, "verify", "homogeneous", "--n", "1", "--field", "3")
    record = json.loads(out)
    assert code == 0 and record["pass"]
    assert record["orbit_size"] * record["stab_size"] == 24


def test_verify_spin(capsys):
    code, out = run(capsys, "verify", "spin", "--n", "2", "--field", "2")
    record = json.loads(out)
    assert code == 0
    assert record["idempotents"] == record["quadric_points"] == 20


def test_verify_similitude(capsys):
    code, out = run(capsys, "verify", "similitude", "--n", "1", "--field", "2^2")
    record = json.loads(out)
    assert code == 0 and record["orbit_size"] == 180


def test_verify_similitude_f2_fails_honestly(capsys):
    # the generated-subgroup shadow genuinely misses half of {q != 0} over F_2
    code, out = run(capsys, "verify", "similitude", "--n", "1", "--field", "2")
    record = json.loads(out)
    assert code == 1 and not record["pass"]
    assert record["orbit_size"] == 3 and record["nonzero_norm_vectors"] == 6


def test_verify_recursion(capsys):
    code, out = run(capsys, "verify", "recursion", "--n", "6", "--q", "5")
    record = json.loads(out)
    assert code == 0 and record["pass"] and record["all_ranks_match"]


@pytest.mark.parametrize("argv", [
    ["count", "--n", "100000", "--q", "2"],
    ["verify", "recursion", "--n", "1000", "--q", "1021"],   # about 6,019 digits
    ["count", "--n", "100000", "--field", "2"],
    ["count", "--n", "7143", "--q", "2"],            # 4301 digits: one over
], ids=" ".join)
def test_unprintable_counts_are_refused_up_front(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1.0
    assert captured.err.startswith("error: q^(2n) + q^n has about ")
    assert "digits" in captured.err and captured.err.count("\n") == 1


def test_count_at_the_digit_guard_prints():
    """2^14284 + 2^7142 has 4300 digits, the most a report prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["count", "--n", "7142", "--q", "2"])
    record = json.loads(buf.getvalue())
    assert code == 0 and record["closed_form"] == 2 ** 14284 + 2 ** 7142
    assert len(str(record["closed_form"])) == 4300 == len(str(record["recursive"]))


@pytest.fixture
def int_digit_limit():
    """Set the interpreter's int-to-string limit for one test, then restore it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_digit_guard_follows_a_lowered_limit(capsys, int_digit_limit):
    """At the floor of 640 digits, 2^2126 + 2^1063 (640 digits) prints and
    the next rank, 641 digits, is refused before it is computed."""
    int_digit_limit(640)
    code, out = run(capsys, "count", "--n", "1063", "--q", "2")
    assert code == 0 and json.loads(out)["closed_form"] == 2 ** 2126 + 2 ** 1063
    for argv in (["count", "--n", "1064", "--q", "2"],
                 ["verify", "recursion", "--n", "1064", "--q", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: q^(2n) + q^n has about 641 digits")


@pytest.mark.parametrize("limit", [0, 5000])
def test_digit_guard_follows_a_raised_or_lifted_limit(capsys, int_digit_limit, limit):
    """0 lifts the limit; either way 2^14286 + 2^7143, 4301 digits, prints."""
    int_digit_limit(limit)
    code, out = run(capsys, "verify", "recursion", "--n", "7143", "--q", "2")
    record = json.loads(out)
    assert code == 0 and record["all_ranks_match"]
    assert record["closed_form"] == record["recursive"] == 2 ** 14286 + 2 ** 7143


def test_verify_recursion_checks_the_library_recursion(capsys, monkeypatch):
    """count_recursive and verify recursion share one recursion, and every
    rank is compared: a fault at rank 3 alone fails the check at n = 5."""
    honest = quadric._recursive_counts

    def faulty(n, q):
        for m, total in enumerate(honest(n, q)):
            yield total + (m == 3)

    monkeypatch.setattr(quadric, "_recursive_counts", faulty)
    assert quadric.count_recursive(3, 2) == quadric.count_closed_form(3, 2) + 1
    code, out = run(capsys, "verify", "recursion", "--n", "5", "--q", "2")
    record = json.loads(out)
    assert code == 1 and not record["all_ranks_match"] and not record["pass"]
    assert record["closed_form"] == record["recursive"]


@pytest.mark.parametrize("argv,digest", [
    ("verify recursion --n 6 --q 5",
     "a9c0bc64a216cdb133c24a8dd039be14be788fbcb33a33360d916908427042d2"),
    ("verify recursion --n 0 --q 2",
     "e1ab81a9f5f9c0eaf3758740650e85992489da8309de5518730861d305b7772c"),
    ("verify recursion --n 3 --field 2^2",
     "70ef88ee5b311c7e7812f5e68e63eeb16aea12af690bea479586200d9cae9443"),
    ("verify recursion --n 40 --q 7",
     "7a723cd908ab36ea5cd9f9f3453f5b062da343875726428a08b7495a0a22eb14"),
    ("count --n 6 --q 9",
     "749afd76a31940a57ff09d29cf4f689f400cd22792f8674bafb3efabb50c868f"),
    ("count --n 0 --q 3",
     "1d6dc595014a977dd1405c336a7184a9278bb5f6fb382b4b01457e38fda3a24b"),
    ("count --n 40 --q 7",
     "3b49083fe261092dff9bac0d732a16d60546fcebd09d86f0992e0f386dbb622f"),
    ("count --n 7142 --q 2",
     "c6ce3102531a2aafec2a6d534474ea79718fb337d4b710c1e9601f02875bddc1"),
])
def test_symbolic_reports_keep_their_bytes(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_recursion_takes_one_pass(capsys):
    """Every rank's closed form and recursion come from one pass: 3000 ranks
    over F_2 once took 11.5 s, rebuilding count(m) from scratch for each m."""
    start = time.perf_counter()
    code, out = run(capsys, "verify", "recursion", "--n", "3000", "--q", "2")
    elapsed = time.perf_counter() - start
    record = json.loads(out)
    assert code == 0 and record["all_ranks_match"] and elapsed < 2.0
    assert record["closed_form"] == record["recursive"] == 2 ** 6000 + 2 ** 3000


def test_transport_point(capsys):
    code, out = run(capsys, "transport", "--n", "1", "--field", "3",
                    "--point", "0,1,0,0")
    record = json.loads(out)
    assert code == 0
    assert record["word"] == [["0", "1", "0", "2"], ["1", "0", "1", "0"]]
    assert record["dickson"] == 0 and record["verified"]


def test_transport_all(capsys):
    code, out = run(capsys, "transport", "--n", "1", "--field", "2", "--all")
    record = json.loads(out)
    assert code == 0
    assert record["total"] == record["verified"] == 6
    assert set(record["paths"]) == {"identity", "case1", "case2"}
    assert sum(record["paths"].values()) == 6


# SHA-256 of the whole --all report: its certificates follow the quadric
# sweep's (x, z, y) order, so these bytes pin that order end to end.
TRANSPORT_ALL_SHA256 = {
    ("2", "2^2"): "9663fe14172a79b0d0ce36896a406c01c00297382a98044542b3208eaf1537fe",
    ("1", "5"): "802b543e6318c5e4d43bf00c66e9bd4de2397c629c0c1dbcf4b1b500e1ded600",
}


@pytest.mark.parametrize("n,spec", sorted(TRANSPORT_ALL_SHA256))
def test_transport_all_golden_digest(capsys, n, spec):
    code, out = run(capsys, "transport", "--n", n, "--field", spec, "--all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSPORT_ALL_SHA256[(n, spec)]


def test_transport_height_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transport", "--n", "1", "--field", "Q", "--point", "0,0,0,1",
              "--height", "3"])
    assert exc.value.code == 2


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transport", "--n", "1", "--field", "2", "--all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# case-2 reports (w_{n+1} = 0) as the trace-0 search printed them; the
# closed-form vector a = e_{n+1} - e_{2n+2} must reproduce them byte for byte
TRANSPORT_GOLDEN = {
    ("5", "1,2,0,3,1,1"): """{
  "word": [
    [
      "1",
      "2",
      "4",
      "3",
      "1",
      "1"
    ],
    [
      "0",
      "0",
      "1",
      "0",
      "0",
      "4"
    ]
  ],
  "scalar": null,
  "dickson": 0,
  "source": [
    "0",
    "0",
    "0",
    "0",
    "0",
    "1"
  ],
  "target": [
    "1",
    "2",
    "0",
    "3",
    "1",
    "1"
  ],
  "path": "case2",
  "verified": true
}
""",
    ("Q", "1/2,3,0,-6,1,1"): """{
  "word": [
    [
      "1/2",
      "3",
      "-1",
      "-6",
      "1",
      "1"
    ],
    [
      "0",
      "0",
      "1",
      "0",
      "0",
      "-1"
    ]
  ],
  "scalar": null,
  "dickson": 0,
  "source": [
    "0",
    "0",
    "0",
    "0",
    "0",
    "1"
  ],
  "target": [
    "1/2",
    "3",
    "0",
    "-6",
    "1",
    "1"
  ],
  "path": "case2",
  "verified": true
}
""",
}


@pytest.mark.parametrize("spec,point", sorted(TRANSPORT_GOLDEN))
def test_transport_case2_golden_bytes(capsys, spec, point):
    code, out = run(capsys, "transport", "--n", "2", "--field", spec, "--point", point)
    assert code == 0
    assert out == TRANSPORT_GOLDEN[(spec, point)]


def test_transport_rational_case2_at_n3_is_fast(capsys):
    # the trace-0 search built 11^7 candidate vectors for this point
    start = time.perf_counter()
    code, out = run(capsys, "transport", "--n", "3", "--field", "Q",
                    "--point", "1,0,0,0,0,0,0,1")
    elapsed = time.perf_counter() - start
    record = json.loads(out)
    assert code == 0 and record["path"] == "case2" and record["verified"]
    assert elapsed < 5.0


def test_transport_not_on_quadric(capsys):
    code = main(["transport", "--n", "1", "--field", "3", "--point", "0,1,0,1"])
    assert code == 1


@pytest.mark.parametrize("spec,point,token", [
    ("Q", "1/0,0,0,1", "'1/0'"),
    ("Q", "x,0,0,1", "'x'"),
    ("Q", ",0,0,1", "''"),
    ("3", "1/2,0,0,1", "'1/2'"),
    ("3", "g,0,0,1", "'g'"),
    ("2^2", "2*h,0,0,1", "'2*h'"),
    ("2^2", "1+-g,0,0,1", "''"),
    ("2^2", "g^,0,0,1", "'g^'"),
    ("2^2", "3g,0,0,1", "'3g'"),
])
def test_bad_point_coordinate_names_the_token(capsys, spec, point, token):
    code = main(["transport", "--n", "1", "--field", spec, "--point", point])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot read ") and token in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("point,same_as", [
    ("1*g^5,0,0,1", "1+1*g,0,0,1"),   # g^5 = g^2 = g + 1 in GF(4)
    ("g^2,0,0,1", "1+1*g,0,0,1"),
    ("-g+1,0,0,1", "1+1*g,0,0,1"),    # -1 = 1 in characteristic 2
    ("g,0,0,1", "0+1*g,0,0,1"),
])
def test_extension_point_accepts_powers_and_signs(capsys, point, same_as):
    code, out = run(capsys, "transport", "--n", "1", "--field", "2^2", "--point=" + point)
    assert code == 0
    assert out == run(capsys, "transport", "--n", "1", "--field", "2^2", "--point=" + same_as)[1]


def test_determinism(capsys):
    # the chain, the similitude orbit and transport --all twice in one
    # process: no state kept from the first run changes the second
    commands = [("verify", "homogeneous", "--n", "1", "--field", "2^2"),
                ("verify", "homogeneous", "--n", "2", "--field", "5"),
                ("verify", "similitude", "--n", "1", "--field", "7"),
                ("transport", "--n", "1", "--field", "5", "--all"),
                ("count", "--n", "2", "--field", "3"),
                ("verify", "spin", "--n", "1", "--field", "5"),
                ("verify", "similitude", "--n", "1", "--field", "2^2"),
                ("verify", "similitude", "--n", "2", "--field", "3"),
                ("transport", "--n", "1", "--field", "3", "--point", "1,2,2,2"),
                ("transport", "--n", "2", "--field", "5", "--point", "1,2,0,3,1,1")]
    for argv in commands:
        for fmt in ("json", "csv", "table"):
            code1, out1 = run(capsys, *argv, "--format", fmt)
            code2, out2 = run(capsys, *argv, "--format", fmt)
            assert code1 == code2 == 0, (argv, fmt)
            assert out1 == out2 and out1, (argv, fmt)


def test_csv_and_table_formats(capsys):
    code, out = run(capsys, "count", "--n", "1", "--field", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert "closed_form,6" in out
    code, out = run(capsys, "count", "--n", "1", "--field", "2", "--format", "table")
    assert code == 0 and "closed_form" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["count", "--n", "1", "--field", "3", "--out", str(target)])
    assert code == 0
    record = json.loads(target.read_text())
    assert record["count"] == 12


@pytest.mark.parametrize("target", ["dir", "missing/report.json"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    code = main(["count", "--n", "1", "--field", "3", "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / target) in captured.err


def test_recursion_rejects_negative_n(capsys):
    code = main(["verify", "recursion", "--n", "-1", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --n must be nonnegative\n"


def test_count_over_rationals_is_a_config_error(capsys):
    code = main(["count", "--n", "0", "--field", "Q"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: cannot count points over the rationals\n"


def test_transport_over_rationals(capsys):
    code, out = run(capsys, "transport", "--n", "1", "--field", "Q",
                    "--point", "1,-2,6,3")
    record = json.loads(out)
    assert code == 0 and record["verified"] and record["dickson"] == 0
    assert record["word"][0] == ["1", "-2", "6", "2"]   # target minus base point


def test_enumeration_guard_rejected_as_config_error(capsys):
    # 9^9 candidate coordinates exceed the q^(2n+1) enumeration guard
    code = main(["count", "--n", "4", "--field", "3^2"])
    assert code == 2
    # the symbolic route stays available at any size
    code, out = run(capsys, "count", "--n", "4", "--q", "9")
    record = json.loads(out)
    assert code == 0 and record["closed_form"] == 9 ** 8 + 9 ** 4


def test_extension_field_spec(capsys):
    code, out = run(capsys, "count", "--n", "1", "--field", "2^2")
    record = json.loads(out)
    assert code == 0 and record["count"] == 20
    # a bare prime power names the same field as p^k
    assert run(capsys, "count", "--n", "1", "--field", "4") == (code, out)
    # 6 is not a prime power, so no field has that order
    assert main(["count", "--n", "1", "--field", "6"]) == 2
    assert "6 is not a prime power" in capsys.readouterr().err


def _patch_everywhere(monkeypatch, name, replacement):
    """Bind replacement to `name` in quadrics.fields and in every quadrics
    module that imported it from there."""
    from quadrics import fields
    real = getattr(fields, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "quadrics" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)
    return real


@pytest.mark.parametrize("spec", ["100000000000031", "100000000000031^1"])
def test_out_of_cap_field_is_refused_before_any_primality_test(capsys, monkeypatch, spec):
    """is_prime and is_prime_power divide by every d up to sqrt(q): the
    15-digit prime took 1.4-2.6 s to be refused by the order cap."""
    def forbidden(n):
        raise AssertionError("a primality test ran before the size caps")

    for name in ("is_prime", "is_prime_power"):
        _patch_everywhere(monkeypatch, name, forbidden)
    assert main(["count", "--n", "1", "--field", spec]) == 2
    assert "field order 100000000000031 exceeds cap 1024" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["count", "--n", "1", "--field", "6"]) == 2
    assert "6 is not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    ("count --n 1 --q 7", 0), ("count --n 1 --q 6", 2),
    ("verify recursion --n 3 --q 7", 0), ("verify recursion --n 1 --q 6", 2),
])
def test_symbolic_q_is_tested_for_a_prime_power_once(capsys, monkeypatch, argv, code):
    calls = []
    real = _patch_everywhere(monkeypatch, "is_prime_power",
                             lambda q: calls.append(q) or real(q))
    assert main(argv.split()) == code
    assert calls == [int(argv.split()[-1])]
    if code:
        assert capsys.readouterr().err == "error: 6 is not a prime power\n"


@pytest.mark.parametrize("argv", ["count --n 1 --q 100000000000031",
                                  "verify recursion --n 1 --q 100000000000031"])
def test_a_fifteen_digit_prime_q_answers_at_once(capsys, argv):
    """The prime-power test of q is a Miller-Rabin test of each exact root,
    not a trial division up to sqrt(q) (0.8 s for this q)."""
    start = time.perf_counter()
    code = main(argv.split())
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 0.05
    assert json.loads(capsys.readouterr().out)["closed_form"] == \
        100000000000031 ** 2 + 100000000000031


def _counted_contexts(monkeypatch):
    """The GroupContexts cli builds from here on, with both caches empty."""
    built = []
    monkeypatch.setattr(cli, "GroupContext", lambda field, n: built.append((field, n))
                        or GroupContext(field, n))
    cli._field.cache_clear()
    cli._context.cache_clear()
    return built


def test_transport_jobs_share_one_field_and_context(capsys, monkeypatch):
    built = _counted_contexts(monkeypatch)
    argv = ("transport", "--n", "2", "--field", "5", "--point", "1,2,0,3,1,1")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert json.loads(first[1])["path"] == "case2"
    run(capsys, "transport", "--n", "2", "--field", "5", "--point", "0,0,0,0,0,1")
    assert built == [(Field.prime(5), 2)]
    assert cli._field.cache_info().currsize == 1
    # the caches are bounded
    assert cli._field.cache_info().maxsize == cli._context.cache_info().maxsize == 32


def test_field_specs_of_one_field_share_a_context_and_print_alike(capsys, monkeypatch):
    built = _counted_contexts(monkeypatch)
    outs = [run(capsys, "transport", "--n", "1", "--field", spec, "--point", "g,1,0,0")
            for spec in ("4", "2^2", "4")]
    assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0
    assert json.loads(outs[0][1])["target"] == ["0+1*g", "1+0*g", "0+0*g", "0+0*g"]
    assert built == [(Field.extension(2, 2), 1)]


def _refused_at_once(capsys, n, spec, message):
    start = time.perf_counter()
    code = main(["verify", "homogeneous", "--n", n, "--field", spec])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 2.0
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_homogeneous_guards_fire_before_work(capsys):
    # |SO_6(F_3)| = 12,130,560 is past the stabilizer guard: refused before
    # the orbit, the chain or the quadric is enumerated
    _refused_at_once(capsys, "3", "3", "stabilizer order 12130560 exceeds the closure guard")


def test_homogeneous_point_guard_fires_before_the_chain(capsys):
    # (1, 467) has a small stabilizer (order 466) but 467^3 candidate
    # points: the quadric's guard refuses it before a 218k-point orbit
    _refused_at_once(capsys, "1", "467", "467^3 points exceeds the enumeration guard")


@pytest.mark.parametrize("argv,message", [
    (["verify", "homogeneous"], "3^2000001 points exceeds the enumeration guard"),
    (["transport", "--all"], "3^2000001 points exceeds the enumeration guard"),
    (["verify", "spin"], "3^2000002 vectors exceeds the guard"),
    (["verify", "similitude"], "3^2000002 vectors exceeds the sweep guard"),
    (["transport", "--point", "0,0,0,1"], "space dim 2000002, vector length 4"),
], ids=["homogeneous", "transport-all", "spin", "similitude", "point-length"])
def test_refusals_at_large_n_build_nothing(capsys, monkeypatch, argv, message):
    # each guard reads (q, n) alone: no space of dimension 2n+2 is built first
    from quadrics.quadform import SplitSpace
    from quadrics.spinfactor import SpinFactor
    built = []
    for cls in (SplitSpace, GroupContext, SpinFactor):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real:
                            built.append(type(self).__name__) or real(self, *args))
    cli._context.cache_clear()
    assert main(argv + ["--n", str(10 ** 6), "--field", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == []


# `verify homogeneous` reports as the whole-group enumeration printed them
# ((2, 2^2): as the column search of check (d) printed it under --force);
# the stabilizer chain must reproduce them byte for byte.
HOMOGENEOUS_GOLDEN = {
    ("1", "3^2"): """{
  "check": "homogeneous",
  "n": 1,
  "field": "3^2",
  "quadric_points": 90,
  "orbit_size": 90,
  "stab_size": 8,
  "group_size": 720,
  "group_order": 720,
  "even_group_order": 8,
  "checks": {
    "orbit_covers_quadric": true,
    "stabilizer_order": true,
    "orbit_stabilizer_product": true,
    "stabilizer_is_extended_even": true
  },
  "pass": true,
  "witnesses": []
}
""",
    ("2", "2"): """{
  "check": "homogeneous",
  "n": 2,
  "field": "2",
  "quadric_points": 20,
  "orbit_size": 20,
  "stab_size": 36,
  "group_size": 720,
  "group_order": 720,
  "even_group_order": 36,
  "checks": {
    "orbit_covers_quadric": true,
    "stabilizer_order": true,
    "orbit_stabilizer_product": true,
    "stabilizer_is_extended_even": true
  },
  "pass": true,
  "witnesses": []
}
""",
    ("2", "2^2"): """{
  "check": "homogeneous",
  "n": 2,
  "field": "2^2",
  "quadric_points": 272,
  "orbit_size": 272,
  "stab_size": 3600,
  "group_size": 979200,
  "group_order": 979200,
  "even_group_order": 3600,
  "checks": {
    "orbit_covers_quadric": true,
    "stabilizer_order": true,
    "orbit_stabilizer_product": true,
    "stabilizer_is_extended_even": true
  },
  "pass": true,
  "witnesses": []
}
""",
    ("2", "3"): """{
  "check": "homogeneous",
  "n": 2,
  "field": "3",
  "quadric_points": 90,
  "orbit_size": 90,
  "stab_size": 576,
  "group_size": 51840,
  "group_order": 51840,
  "even_group_order": 576,
  "checks": {
    "orbit_covers_quadric": true,
    "stabilizer_order": true,
    "orbit_stabilizer_product": true,
    "stabilizer_is_extended_even": true
  },
  "pass": true,
  "witnesses": []
}
""",
}


@pytest.mark.parametrize("n,spec", sorted(HOMOGENEOUS_GOLDEN))
def test_verify_homogeneous_golden_bytes(capsys, n, spec):
    code, out = run(capsys, "verify", "homogeneous", "--n", n, "--field", spec)
    assert code == 0
    assert out == HOMOGENEOUS_GOLDEN[(n, spec)]


# census reports as printed before the field kernels were bound per kind and
# the orbit BFS loops were merged; both run under all three commands.  The
# last three, the heaviest census cells, were printed before census ran on
# raw tuples and the similitude orbit took its directions one at a time.
CENSUS_GOLDEN = {
    ("count", "--n", "2", "--field", "3^2"): """{
  "n": 2,
  "field": "3^2",
  "closed_form": 6642,
  "recursive": 6642,
  "count": 6642,
  "strata": {
    "open": 5832,
    "closed": 810
  },
  "match": true
}
""",
    ("verify", "spin", "--n", "1", "--field", "2^2"): """{
  "check": "spin_projective",
  "n": 1,
  "field": "2^2",
  "idempotents": 20,
  "quadric_points": 20,
  "equal": true,
  "pass": true
}
""",
    ("verify", "similitude", "--n", "1", "--field", "5"): """{
  "check": "similitude",
  "n": 1,
  "field": "5",
  "orbit_size": 240,
  "nonzero_norm_vectors": 480,
  "expected_orbit_size": 240,
  "pass": true
}
""",
    ("count", "--n", "2", "--field", "2^4"): """{
  "n": 2,
  "field": "2^4",
  "closed_form": 65792,
  "recursive": 65792,
  "count": 65792,
  "strata": {
    "open": 61440,
    "closed": 4352
  },
  "match": true
}
""",
    ("verify", "spin", "--n", "2", "--field", "7"): """{
  "check": "spin_projective",
  "n": 2,
  "field": "7",
  "idempotents": 2450,
  "quadric_points": 2450,
  "equal": true,
  "pass": true
}
""",
    ("verify", "similitude", "--n", "1", "--field", "7"): """{
  "check": "similitude",
  "n": 1,
  "field": "7",
  "orbit_size": 1008,
  "nonzero_norm_vectors": 2016,
  "expected_orbit_size": 1008,
  "pass": true
}
""",
    # the default cell (2,5), printed while the similitude orbit was grown by BFS
    ("verify", "similitude", "--n", "2", "--field", "5"): """{
  "check": "similitude",
  "n": 2,
  "field": "5",
  "orbit_size": 6200,
  "nonzero_norm_vectors": 12400,
  "expected_orbit_size": 6200,
  "pass": true
}
""",
}


@pytest.mark.parametrize("argv", sorted(CENSUS_GOLDEN))
def test_census_golden_bytes(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == CENSUS_GOLDEN[argv]


# SHA-256 of the similitude reports of these cells, concatenated in this order,
# as printed while the orbit was grown by BFS: (1,2) fails with orbit_size 3,
# (2,2) and (3,2) pass through the fallback, the rest through the words.
SIMILITUDE_CELLS = [(1, "2"), (1, "3"), (1, "4"), (1, "5"), (1, "7"), (1, "8"), (1, "9"),
                    (2, "2"), (2, "3"), (2, "4"), (2, "5"), (3, "2"), (3, "3")]
SIMILITUDE_SHA256 = "d448b862f346956c84469f9998757b6c574672cff1452806f557e25e188b5024"
# the default cell (2,7): its report took about 150 s to print by BFS
SIMILITUDE_2_7_SHA256 = "13f22ccd687705aa6ccc8c8a3268b046c390575fe3a701dc58c358a3fbd361a9"


def test_similitude_golden_digest(capsys):
    digest = hashlib.sha256()
    for n, spec in SIMILITUDE_CELLS:
        code, out = run(capsys, "verify", "similitude", "--n", str(n), "--field", spec)
        assert code == (1 if (n, spec) == (1, "2") else 0)
        digest.update(out.encode())
    assert digest.hexdigest() == SIMILITUDE_SHA256


def test_similitude_default_cell_golden_digest(capsys):
    code, out = run(capsys, "verify", "similitude", "--n", "2", "--field", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMILITUDE_2_7_SHA256


# -- argv grammar ---------------------------------------------------------------

BAD_FIELD_SPECS = ["x", "2^x", "1.5", "2^"]


@pytest.mark.parametrize("spec", BAD_FIELD_SPECS)
def test_malformed_field_spec_names_the_spec_and_the_forms(capsys, spec):
    code = main(["count", "--n", "1", "--field", spec])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: cannot read field {spec!r}: "
                            "expected p^k, a prime power q, or Q\n")


COMMANDS = [("count",), ("verify", "homogeneous"), ("verify", "spin"),
            ("verify", "similitude"), ("verify", "recursion"), ("verify", "bogus"),
            ("transport",), ("transport", "--all")]
POINTS = ["1,0,0,1", "0,1,0,1", "1,0,0,0,0,1", "1/0,0,0,1", "g,0,0,1", "", "1,2", "x,y"]


def _option(flag, values, absent=1):
    """flag with one of values, or nothing with weight absent : len(values)."""
    return st.sampled_from([None] * absent + values).map(lambda v: () if v is None else (flag, v))


@st.composite
def argvs(draw):
    """A command line, mostly well formed: each command draws its own options
    and, rarely, one that it does not take; --out, if drawn, is unwritable."""
    command = draw(st.sampled_from(COMMANDS))
    transport = command[0] == "transport"
    return [*command,
            *draw(_option("--n", ["-2", "-1", "0", "1", "2"])),
            *draw(_option("--field", ["2", "3", "4", "2^2", "6", "Q", "0", "2^9",
                                      *BAD_FIELD_SPECS])),
            *draw(_option("--q", ["3", "6", "0", "-3", "1", "x"], absent=30 if transport else 6)),
            *draw(_option("--point", POINTS, absent=1 if transport else 60)),
            *draw(_option("--format", ["json", "csv", "table", "xml"], absent=4)),
            *draw(_option("--out", ["dir", "missing"], absent=4))]


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("out")
    (base / "dir").mkdir()
    return {"dir": str(base / "dir"), "missing": str(base / "missing" / "report.json")}


@settings(max_examples=60, deadline=None)
@given(argv=argvs())
def test_cli_exits_cleanly_on_any_argv(out_paths, argv):
    argv = [out_paths.get(arg, arg) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
    assert "invalid literal" not in stderr.getvalue(), argv


# integers are ASCII digits: int() and Fraction() also read 3_1 and Unicode
# digits, which once gave F_31 for --field 3_1 and F_3 for --field ٣
@pytest.mark.parametrize("spec", ["3_1", "٣", "２", "2^٢", "2_0^1"])
def test_field_spec_digits_are_ascii(capsys, spec):
    code = main(["count", "--n", "1", "--field", spec])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: cannot read field {spec!r}: "
                            "expected p^k, a prime power q, or Q\n")


@pytest.mark.parametrize("spec,point,message", [
    ("5", "1_0,0,0,1", "cannot read '1_0' as an element of field 5"),
    ("5", "0,0,0,٦", "cannot read '٦' as an element of field 5"),
    ("5", "0,0,0,１", "cannot read '１' as an element of field 5"),
    ("2^2", "٣*g,0,0,1", "cannot read '٣*g' in '٣*g' as an element of field 2^2"),
    ("2^2", "0,0,0,g^٣", "cannot read 'g^٣' in 'g^٣' as an element of field 2^2"),
    ("2^2", "0,0,0,١", "cannot read '١' in '١' as an element of field 2^2"),
    ("Q", "0,0,0,1_0/1_0", "cannot read '1_0/1_0' as an element of field Q"),
    ("Q", "0,0,0,٣/٣", "cannot read '٣/٣' as an element of field Q"),
])
def test_point_digits_are_ascii(capsys, spec, point, message):
    code = main(["transport", "--n", "1", "--field", spec, "--point", point])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


# --n and --q read ASCII digits as Field.parse does: int() alone once gave
# n = 2 over q = 31 for --n ٢ --q 3_1
@pytest.mark.parametrize("argv,option,value", [
    (["count", "--n", "٢", "--q", "3_1"], "--n", "٢"),
    (["count", "--n", "1", "--q", "３"], "--q", "３"),
    (["verify", "recursion", "--n", "2", "--q", "3_1"], "--q", "3_1"),
    (["transport", "--n", "1_0", "--field", "3", "--all"], "--n", "1_0"),
    (["count", "--n", "x", "--field", "3"], "--n", "x"),
])
def test_integer_options_are_ascii(capsys, argv, option, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f": error: argument {option}: invalid int value: {value!r}\n")


# -- one argparse pass ------------------------------------------------------------

PARSER_ARGVS = [
    "count --n 1 --field 3", "count --n 2 --q 9 --format csv",
    "verify homogeneous --n 1 --field 3", "verify spin --n 1 --field 3 --format table",
    "verify similitude --n 1 --field 2^2", "verify recursion --n 2 --q 5",
    "verify recursion --n 2 --field 4 --force",
    "transport --n 1 --field 3 --point 0,1,0,0", "transport --n 1 --field 2 --all",
    "transport --n 1 --field 3 --point=0,1,0,0 --force",
    *(" ".join(argv) for argv, _ in USAGE_ERRORS),
    "", "-h", "--help", "transport -h", "verify -h", "bogus", "--n 1 count", "verify bogus",
    "count --n 1 --field 3 extra", "transport --n 1 --field 3 --all x y",
    "count --n x --field 3", "transport --n 1 --field 3 --poi 0,1,0,0",
    "transport --n 1 --field 3 --fo json --all",
]


def _outcome(call, argv):
    """(result or ("exit", code), stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", PARSER_ARGVS)
def test_one_pass_parse_matches_parse_args(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")   # the help text wraps to the terminal
    argv = line.split()
    assert _outcome(cli._parse, argv) == _outcome(cli._parser().parse_args, argv)
    got = _outcome(main, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    assert got == _outcome(main, argv)


CONSOLE_ARGVS = ["transport --n 2 --field 5 --point 3,2,1,3,3,0", "bogus",
                 "count --n 1 --field 3 extra", "transport -h"]


@pytest.mark.parametrize("line", CONSOLE_ARGVS)
def test_console_script_reads_sys_argv(monkeypatch, line):
    """main() with no argv, as the console script and `python -m` call it,
    reads sys.argv and prints what main(argv) prints in-process."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "quadrics.cli", *line.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(main, line.split())
    code = code[1] if isinstance(code, tuple) else code
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# -- the JSON writer ---------------------------------------------------------------

def _records(monkeypatch, argvs):
    """The record of each command line, as main hands it to _emit."""
    records = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", lambda record, args: records.append(record))
        for argv in argvs:
            assert main(list(argv)) in (0, 1)
    return records


def test_json_writer_matches_json_dumps_on_golden_reports(monkeypatch):
    argvs = ([("transport", "--n", n, "--field", spec, "--all") for n, spec in TRANSPORT_ALL_SHA256]
             + [("transport", "--n", "2", "--field", spec, "--point", point)
                for spec, point in TRANSPORT_GOLDEN]
             + [("verify", "homogeneous", "--n", n, "--field", spec)
                for n, spec in HOMOGENEOUS_GOLDEN]
             + list(CENSUS_GOLDEN)
             + [("verify", "similitude", "--n", str(n), "--field", spec)
                for n, spec in SIMILITUDE_CELLS]
             + [("count", "--n", "6", "--q", "9"), ("verify", "recursion", "--n", "6", "--q", "5")])
    for record in _records(monkeypatch, argvs):
        assert cli._to_json(record) == json.dumps(record, indent=2)


def test_json_writer_matches_json_dumps_on_benchmark_jobs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    argvs = [job.argv for name in ("homogeneous", "transport", "census")
             for job in workloads.build(name, 1)[0]]
    records = _records(monkeypatch, argvs)
    assert len(records) == len(argvs)
    for record in records:
        assert cli._to_json(record) == json.dumps(record, indent=2)


_JSON_TEXT = st.text(st.characters(max_codepoint=0x1FFFF)) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/\n\t', " é", "\U0001F600", "\ud800"])
_JSON_LEAVES = (st.none() | st.booleans() | _JSON_TEXT | st.integers()
                | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "x"}, {None: 1}, [{"k": {2: 3}}]],
                         ids=repr)
def test_json_writer_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli._to_json(value)

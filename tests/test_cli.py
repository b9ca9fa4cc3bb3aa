import json
import re
import warnings
from fractions import Fraction

import pytest

from quiverdu import cli, rewrite
from quiverdu.cli import ConfigError, main, parse_config
from quiverdu.core import Parameters, path_from_word


def write_config(tmp_path, name="config.json", n=3, alpha=None, beta=None, gamma=None):
    cfg = {
        "n": n,
        "alpha": alpha or ["0"] * n,
        "beta": beta or ["1"] * n,
        "gamma": gamma or ["0"] * n,
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def canonical_text(cfg):
    return json.dumps(
        {"n": cfg.n, "alpha": cfg.alpha, "beta": cfg.beta, "gamma": cfg.gamma},
        sort_keys=True,
    )


def test_parse_config_valid():
    cfg = parse_config('{"n":3,"alpha":["0","0","0"],"beta":["1","1","1"],"gamma":["0","0","0"]}')
    assert cfg.n == 3 and cfg.beta == ["1", "1", "1"]
    round_trip = parse_config(canonical_text(cfg))
    assert round_trip == cfg


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="length mismatch"):
        parse_config('{"n":3,"alpha":["0","0","0"],"beta":["1","1"],"gamma":["0","0","0"]}')
    with pytest.raises(ConfigError):
        parse_config('{"n":3,"alpha":["1/0","0","0"],"beta":["1","1","1"],"gamma":["0","0","0"]}')
    with pytest.raises(ConfigError, match="'n'"):
        parse_config('{"n":0,"alpha":[],"beta":[],"gamma":[]}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope}")
    with pytest.raises(ConfigError, match="^field 'gamma': expected an array$"):
        parse_config('{"n":1,"alpha":["0"],"beta":["1"]}')
    with pytest.raises(ConfigError, match="^field 'beta': expected an array$"):
        parse_config('{"n":1,"alpha":["0"],"beta":"1","gamma":["0"]}')


def fraction_parser(value):
    """What every config entry went through before the int fast path: Fraction(str(value))."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        return f"alpha[1]: {exc}"


@pytest.mark.parametrize("value", [
    "1.5", " 2 ", "+3", "--1", "3/-4", "1/0", "1_0", "\u0663", "-7/3", "0", "-0", "007/010",
    "1/", "/2", "-", "", "\u00b2", "3/ 4", "1e3", 5, -3, 0, 10 ** 30])
def test_config_rationals_read_as_fraction_of_the_string(value):
    # ASCII -?[0-9]+(/[0-9]+)? is read as two ints, everything else by
    # Fraction's own parser: the same values and the same messages.
    text = json.dumps({"n": 2, "alpha": ["1", value], "beta": ["1", "1"], "gamma": ["0", "0"]})
    try:
        got = parse_config(text).params.alpha[1]
    except ConfigError as exc:
        got = str(exc)
    expected = fraction_parser(value)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value", [True, False, 1.5, None, [1]])
def test_config_refuses_bools_and_other_json_values(value):
    text = json.dumps({"n": 2, "alpha": ["1", value], "beta": ["1", "1"], "gamma": ["0", "0"]})
    with pytest.raises(ConfigError, match=r"^alpha\[1\]: expected a rational string or integer$"):
        parse_config(text)


def test_nf_command(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=["2", "3", "5"], beta=["7", "11", "13"], gamma=["1", "0", "4"])
    code, report = run_json(capsys, ["nf", cfg, "1 * d0.d2.u2", "--json"])
    assert code == 0
    assert report["findings"]["normal_form"] == "1 * d0 + 7 * u1.d1.d0 + 2 * d0.u0.d0"


def test_basis_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, report = run_json(capsys, ["basis", cfg, "--degree", "2", "--json"])
    assert code == 0
    assert report["findings"]["total"] == 12
    assert report["findings"]["dimension_matrix"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


@pytest.mark.parametrize("preset", ["qdu", "preprojective"])
def test_basis_fails_when_the_letter_count_is_wrong_at_its_degree(tmp_path, capsys, monkeypatch, preset):
    # basis counts the words spelled from the shape by (source, target)
    # against dimension_matrix; a count wrong at degree 3 alone fails there only.
    for name in ("_closed_shape_matrix", "_closed_preprojective_matrix"):
        closed = getattr(rewrite, name)

        def wrong_at_three(n, degree, closed=closed):
            m = closed(n, degree)
            if degree == 3:
                m[1][2] += 1
            return m

        monkeypatch.setattr(rewrite, name, wrong_at_three)
    cfg = write_config(tmp_path)
    code, report = run_json(capsys, ["basis", cfg, "--degree", "2", "--preset", preset, "--json"])
    assert code == 0 and report["verdict"] == "pass"
    code, report = run_json(capsys, ["basis", cfg, "--degree", "3", "--preset", preset, "--json"])
    assert code == 1 and report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": "normal words by (source, target) disagree "
                                                           "with the leading-word count at degree 3"}


@pytest.mark.parametrize("preset, system, letters, message", [
    ("qdu", "_qdu_system", "udu", "leading word (0, 'udu') is extra to the quiver-down-up letter patterns"),
    ("preprojective", "_preprojective_system", "ud",
     "leading word (1, 'ud') is extra to the preprojective letter patterns"),
])
def test_basis_refuses_a_leading_word_with_permuted_letters(tmp_path, capsys, monkeypatch, preset, system,
                                                             letters, message):
    # The normal words are spelled from their shape only once the leading
    # words' letters are checked: with the first rule's letters permuted,
    # basis_from raises and basis fails its internal check.
    genuine = getattr(rewrite, system)

    def permuted(key):
        sys_ = genuine(key)
        (source, _, rhs), *rest = sys_.specs
        codes = tuple(rewrite._arrow_rank(a, sys_.n) for a in path_from_word(sys_.n, source, letters).arrows)
        return rewrite.ReductionSystem(sys_.n, None, sys_.preset, sys_.params, ((source, codes, rhs), *rest))

    monkeypatch.setattr(rewrite, system, permuted)
    params = Parameters.of(3, [0] * 3, [1] * 3, [0] * 3)
    built = rewrite.build_system(rewrite.PRESET_QDU if preset == "qdu" else rewrite.PRESET_PREPROJECTIVE, params)
    with pytest.raises(AssertionError, match=re.escape(message)):
        rewrite.basis_from(built, 0, 2)
    code, report = run_json(capsys, ["basis", write_config(tmp_path), "--degree", "2", "--preset", preset,
                                     "--json"])
    assert code == 1 and report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": message}


def test_confluence_command_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, beta=["0", "1", "1"], gamma=["1", "0", "0"])
    code, report = run_json(capsys, ["confluence", cfg, "--json"])
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["findings"]["overlaps"] == 3


def test_hilbert_check(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, report = run_json(capsys, ["hilbert", cfg, "--max-degree", "6", "--check", "--json"])
    assert code == 0
    assert report["findings"]["totals"] == [3, 6, 12, 18, 27, 36, 48]
    code, report = run_json(capsys, [
        "hilbert", cfg, "--max-degree", "5", "--preset", "preprojective", "--check", "--json"])
    assert code == 0
    assert "note" in report["findings"]


def test_iso_command(tmp_path, capsys):
    cfg1 = write_config(tmp_path, "a.json")
    cfg2 = write_config(tmp_path, "b.json", beta=["2", "1", "1/2"])
    code, report = run_json(capsys, ["iso", cfg1, "--other", cfg2, "--json"])
    assert code == 0
    assert report["findings"]["result"] == "isomorphic"
    assert "witness" in report["findings"]
    cfg3 = write_config(tmp_path, "c.json", beta=["1", "1", "2"])
    code, report = run_json(capsys, ["iso", cfg1, "--other", cfg3, "--json"])
    assert code == 0
    assert report["findings"]["result"] == "not_isomorphic"
    assert len(report["findings"]["cases"]) == 6


def test_iso_unsupported(tmp_path, capsys):
    cfg = write_config(tmp_path, "two.json", n=2)
    code, report = run_json(capsys, ["iso", cfg, "--other", cfg, "--json"])
    assert code == 2
    assert report["verdict"] == "unsupported"


def test_verify_properties_beta_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, beta=["0", "1", "1"], gamma=["1/2", "0", "0"])
    code, report = run_json(capsys, ["verify", "properties", cfg, "--json"])
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["findings"]["noetherian"] is False
    assert report["findings"]["witnesses"][0]["kind"] == "zero-divisor"


def test_verify_gwa(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=["1", "2", "3"], beta=["1", "2", "3"], gamma=["1", "1", "1"])
    code, report = run_json(capsys, ["verify", "gwa", cfg, "--json"])
    assert code == 0
    assert report["findings"] == {
        "relations_killed": True, "roundtrip_arrows": True, "roundtrip_base": True, "grading": True,
        "theta_prime_is_homomorphism": True, "sigma_is_automorphism": True, "pwd": {"failures": 0}}


def test_pwd_sections_read_the_proof(tmp_path, capsys):
    proof = {"theta_prime_is_homomorphism": True, "sigma_is_automorphism": True}
    cfg = write_config(tmp_path, alpha=["1", "2", "3"], beta=["1", "2", "3"], gamma=["1", "1", "1"])
    code, report = run_json(capsys, ["verify", "pwd", cfg, "--json"])
    assert code == 0 and report["findings"] == {"beta_nonzero": True, "zero_products": 0, **proof}
    code, report = run_json(capsys, ["report", cfg, "--json"])
    assert code == 0 and report["findings"]["pwd"] == {"beta_nonzero": True, "zero_products": 0, **proof}
    assert report["findings"]["gwa"] == {"relations_killed": True, "roundtrip_arrows": True,
                                         "roundtrip_base": True, "grading": True, **proof}


def test_failed_proof_identities_are_counted(tmp_path, capsys, monkeypatch):
    from quiverdu import gwa

    cfg = write_config(tmp_path, alpha=["1", "2", "3"], beta=["1", "2", "3"], gamma=["1", "1", "1"])
    monkeypatch.setattr(gwa, "_theta_prime_identities",
                        lambda table: gwa.IdentityCheck(33, ("X+ y2", "X- x0")))
    gwa._shift_table.cache_clear()
    try:
        code, report = run_json(capsys, ["verify", "gwa", cfg, "--json"])
        assert code == 1 and report["findings"]["pwd"] == {"failures": 2}
        assert report["findings"]["theta_prime_is_homomorphism"] is False
        code, report = run_json(capsys, ["verify", "pwd", cfg, "--json"])
        assert code == 1 and report["findings"]["theta_prime_is_homomorphism"] is False
        code, report = run_json(capsys, ["report", cfg, "--json"])
        assert code == 1 and report["findings"]["gwa"]["theta_prime_is_homomorphism"] is False
    finally:
        gwa._shift_table.cache_clear()


BETA0, GAMMA, ALPHA = {"beta": ["0", "1", "1"]}, {"gamma": ["1", "0", "0"]}, {"alpha": ["1", "0", "0"]}


@pytest.mark.parametrize("what, config, extra, message", [
    ("gwa", BETA0, [], "verify gwa requires all beta_i nonzero"),
    ("superpotential", BETA0, [], "verify superpotential requires all beta_i nonzero"),
    ("superpotential", GAMMA, [], "verify superpotential requires gamma = 0"),
    ("nakayama", BETA0, [], "verify nakayama requires all beta_i nonzero"),
    ("nakayama", GAMMA, [], "verify nakayama requires gamma = 0"),
    ("noetherian", {}, [], "verify noetherian requires some beta_i = 0"),
    ("skewgroup", ALPHA, [], "verify skewgroup requires alpha = gamma = 0 (or pass --n)"),
    ("skewgroup", ALPHA, ["--n", "13"], "n capped at 12 for cyclotomic checks"),
])
def test_verify_refusals(tmp_path, capsys, what, config, extra, message):
    cfg = write_config(tmp_path, **config)
    assert main(["verify", what, cfg, "--json", *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_skewgroup_refuses_n_1_as_an_argument(tmp_path, capsys):
    cfg = write_config(tmp_path, **ALPHA)
    with pytest.raises(SystemExit) as raised:
        main(["verify", "skewgroup", cfg, "--json", "--n", "1"])
    err = capsys.readouterr().err
    assert raised.value.code == 2 and err.startswith("usage: quiverdu verify ")
    assert err.endswith("\nquiverdu verify: error: argument --n: must be at least 2, got 1\n")


def test_verify_superpotential_and_nakayama(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=["1", "2", "3"], beta=["1", "2", "3"])
    code, report = run_json(capsys, ["verify", "superpotential", cfg, "--json"])
    assert code == 0
    assert report["findings"]["balanced"]["span_matches_relations"] is True
    assert report["findings"]["printed"]["expected_to_pass"] is False
    code, report = run_json(capsys, ["verify", "nakayama", cfg, "--json"])
    assert code == 0
    assert report["findings"]["derived"]["preserves_relations"] is True


def test_verify_nakayama_refuses_nonzero_gamma(tmp_path, capsys):
    # The candidate maps are diagonal on arrows, so they are checked against
    # the homogeneous relations only: like ``verify superpotential``, and like
    # ``report``, which has a Nakayama section only when gamma = 0.
    for n, alpha, beta, gamma in ((3, ["1"] * 3, ["2", "-2", "2"], ["1", "0", "0"]),
                                  (1, ["1"], ["2"], ["3"])):
        cfg = write_config(tmp_path, n=n, alpha=alpha, beta=beta, gamma=gamma)
        assert main(["verify", "nakayama", cfg, "--json"]) == 2
        assert "verify nakayama requires gamma = 0" in capsys.readouterr().err
        cfg = write_config(tmp_path, n=n, alpha=alpha, beta=beta, gamma=["0"] * n)
        code, report = run_json(capsys, ["verify", "nakayama", cfg, "--json"])
        assert code == 0 and report["findings"]["printed"] == {
            "expected_to_pass": True, "preserves_relations": True}


def test_verify_noetherian(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=["1", "1", "1"], beta=["0", "1", "1"], gamma=["1", "0", "0"])
    code, report = run_json(capsys, ["verify", "noetherian", cfg, "--json"])
    assert code == 0
    assert report["findings"]["strict_inclusions"] == {"1": True, "2": True}


def test_verify_skewgroup(tmp_path, capsys):
    cfg = write_config(tmp_path, n=2, beta=["-1", "-1"])
    code, report = run_json(capsys, ["verify", "skewgroup", cfg, "--max-degree", "3", "--json"])
    assert code == 0
    assert report["findings"]["relations_killed_by_beta"] == {"-1": True, "1": False}


def test_report_command(tmp_path, capsys):
    cfg = write_config(tmp_path, beta=["-1", "-1", "-1"])
    code, report = run_json(capsys, ["report", cfg, "--trials", "20", "--json"])
    assert code == 0
    assert report["verdict"] == "pass"
    for key in ("confluence", "hilbert", "preprojective", "factorization_identity",
                "properties", "gwa", "superpotential", "nakayama", "pwd", "skewgroup"):
        assert key in report["findings"]


def test_report_beta_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=["1", "1", "1"], beta=["0", "2", "3"], gamma=["1", "0", "0"])
    code, report = run_json(capsys, ["report", cfg, "--trials", "10", "--json"])
    assert code == 0
    assert "noetherian_chain" in report["findings"]
    assert "gwa" not in report["findings"]
    assert report["findings"]["pwd"] == {
        "beta_nonzero": False, "zero_products": 1,
        "counterexample": {"left": "-1 @0 + -1 * u0.d0 + 1 * d2.u2", "right": "1 * u0"}}


def test_json_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code1 = main(["verify", "pwd", cfg, "--trials", "15", "--seed", "9", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "pwd", cfg, "--trials", "15", "--seed", "9", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_config_is_input_error(capsys):
    assert main(["confluence", "/nonexistent/config.json", "--json"]) == 2


CONFIG_TEXT = '{"n": 3, "alpha": ["0", "0", "0"], "beta": ["1", "1", "1"], "gamma": ["0", "0", "0"]}'


# name: (bytes, exit code, stderr message); the messages are those of a
# config read in text mode with universal newlines.
CONFIG_READS = {
    "crlf.json": (CONFIG_TEXT.replace(", ", ",\r\n").encode(), 0, None),
    "lone_cr.json": (b'{"n": 3,\r "alpha": ["0", "0", "0"],\r "beta": [1 1]}', 2,
                     "invalid JSON at line 3, column 13: Expecting ',' delimiter"),
    "crlf_cr.json": (b'{"n": 3,\r\n "alpha": ["0"],\r\n\r "beta": [1 1]}', 2,
                     "invalid JSON at line 4, column 13: Expecting ',' delimiter"),
    "bom.json": (b"\xef\xbb\xbf" + CONFIG_TEXT.encode(), 2,
                 "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "bad_byte.json": (b'{"n": 3, "alpha": ["\xff"]}', 2,
                      "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    "cut_char.json": (b'{"n": 3, "alpha": ["\xe2\x82', 2,
                      "'utf-8' codec can't decode bytes in position 20-21: unexpected end of data"),
    "empty.json": (b"", 2, "invalid JSON at line 1, column 1: Expecting value"),
    "a_directory": (None, 2, "cannot read config {path}: [Errno 21] Is a directory: {path!r}"),
    "missing.json": (None, 2, "cannot read config {path}: [Errno 2] No such file or directory: {path!r}"),
}


@pytest.mark.parametrize("name", CONFIG_READS)
def test_config_read_edge_cases(tmp_path, capsys, name):
    content, code, message = CONFIG_READS[name]
    path = str(tmp_path / name)
    if content is not None:
        (tmp_path / name).write_bytes(content)
    elif name == "a_directory":
        (tmp_path / name).mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr at the command line
        assert main(["confluence", path]) == code
    captured = capsys.readouterr()
    assert captured.err == ("" if message is None else f"error: {message.format(path=path)}\n")
    if message is None:
        assert "verdict: pass" in captured.out


def test_bad_element_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["nf", cfg, "totally not an element", "--json"]) == 2


def test_max_degree_zero_is_honoured(tmp_path, capsys):
    cfg = write_config(tmp_path, n=2, beta=["-1", "-1"])
    code, report = run_json(capsys, ["verify", "skewgroup", cfg, "--max-degree", "0", "--json"])
    assert code == 0
    assert report["findings"]["max_degree"] == 0


@pytest.mark.parametrize("what", ["pwd", "gwa"])
def test_sampling_flags_are_accepted_and_read_by_no_check(tmp_path, capsys, what):
    # --trials, --seed and verify's --max-degree stay accepted, since scripts
    # pass them, but the proof reads none of them: only the echoed seed moves.
    cfg = write_config(tmp_path, alpha=["2", "1/2", "5"], beta=["7", "-3/2", "13"], gamma=["1", "2", "1/3"])
    code, plain = run_json(capsys, ["verify", what, cfg, "--json"])
    extra = ["--trials", "1", "--seed", "9"] + (["--max-degree", "0"] if what == "pwd" else [])
    code2, flagged = run_json(capsys, ["verify", what, cfg, *extra, "--json"])
    assert code == code2 == 0 and flagged["seed"] == 9
    assert flagged["findings"] == plain["findings"]


def test_help_says_the_sampling_flags_are_not_read(capsys):
    texts = {}
    for command in ("verify", "report"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        texts[command] = text = " ".join(capsys.readouterr().out.split())
        assert "--trials TRIALS accepted and ignored: pwd and gwa are proved, not sampled" in text
        assert "--seed SEED echoed in the report; no check reads it (pwd and gwa are proved" in text
    assert ("skewgroup: accepted and echoed (default 4), since the corner match is proved in "
            "every degree; pwd no longer reads it") in texts["verify"]


def test_internal_check_failure_is_fail_verdict(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("closed form disagrees")

    monkeypatch.setattr("quiverdu.cli.closed_form_check", broken)
    cfg = write_config(tmp_path)
    code, report = run_json(capsys, ["hilbert", cfg, "--check", "--json"])
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": "closed form disagrees"}


@pytest.mark.parametrize("argv", [
    ["hilbert", "{cfg}", "--check", "--max-degree", "-1", "--json"],
    ["verify", "gwa", "{cfg}", "--trials", "-5", "--json"],
    ["verify", "pwd", "{cfg}", "--trials", "0", "--json"],
    ["verify", "pwd", "{cfg}", "--max-degree", "-1", "--json"],
    ["basis", "{cfg}", "--degree", "-1", "--json"],
    ["report", "{cfg}", "--trials", "0", "--json"],
    ["verify", "skewgroup", "{cfg}", "--n", "0", "--json"],
])
def test_vacuous_arguments_are_refused(tmp_path, capsys, argv):
    # Each of these used to check nothing and still print a pass.
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([cfg if a == "{cfg}" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: quiverdu {argv[0]} ")
    assert "must be at least" in captured.err


def test_report_checks_confluence_once_and_lists_no_basis(tmp_path, capsys, monkeypatch):
    # Every section of a report reads the one shared system per parameter
    # set: one confluence check.  With every beta_i != 0 no chain runs, and
    # the Hilbert counts are read from the leading words' letters, so no
    # normal word is spelled; basis spells some through the same hook.
    for cache in (rewrite._qdu_system, rewrite._preprojective_system):
        cache.cache_clear()
    checked, spelled = [], []
    check, speller = rewrite.check_confluence, rewrite._speller

    def counted_check(sys):
        checked.append(sys)
        return check(sys)

    def counted_speller(sys, top):
        spelled.append(top)
        return speller(sys, top)

    for module in (rewrite, cli):
        monkeypatch.setattr(module, "check_confluence", counted_check)
    monkeypatch.setattr(rewrite, "_speller", counted_speller)
    cfg = write_config(tmp_path, alpha=["2", "1/2", "5"], beta=["7", "-3/2", "13"],
                       gamma=["1", "2", "1/3"])
    code, report = run_json(capsys, ["report", cfg, "--json"])
    assert code == 0 and report["verdict"] == "pass"
    assert len(checked) == 1
    assert spelled == []
    code, report = run_json(capsys, ["basis", cfg, "--degree", "2", "--json"])
    assert code == 0 and spelled == [2]

"""Command-line interface: config parsing, dispatch, deterministic reports.

Configs are JSON objects {"n": 3, "alpha": [...], "beta": [...],
"gamma": [...]} whose vector entries are rational strings like "2/3"
(plain integers are accepted).  Exit codes: 0 = pass, 1 = check failure
(including a failed internal cross-check), 2 = input error or unsupported
query.  With --json the report is a single machine-readable document,
byte-identical for identical inputs and seed.

``main(argv)`` may be called repeatedly in one process.  The argparse
parser is built on the first call and shared by every later one; no other
state persists between calls apart from the algebra ``lru_cache``s of
``rewrite``, ``gwa``, ``skewgroup`` and ``cyclotomic``.  Argv that starts
with a command name goes straight to that command's subparser, the one the
top-level parser would hand it to, and leftover arguments are refused by
the top-level parser's ``error``; any other argv (empty, ``-h``,
``--version``, an unknown command) goes to the top-level parser.  A config
is read in one binary read, decoded as UTF-8, with ``\r\n`` and lone
``\r`` read as ``\n`` as in text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .core import Arrow, Parameters, format_element, parse_element
from .hilbert import (
    ClosedFormReport,
    closed_form_check,
    factorization_identity,
)
from .gwa import verify_gwa
from .iso import decide_graded_iso
from .rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    build_system,
    check_confluence,
    dimension_matrices,
    dimension_matrix,
    enumerate_basis,
    normal_form,
)
from .skewgroup import verify_quotient_match
from .structure import (
    balanced_twist_weights,
    build_superpotential,
    check_derivation_quotient,
    check_diagonal_map,
    check_twist_invariance,
    derived_nakayama,
    noetherian_chain_check,
    paper_nakayama,
    paper_twist_weights,
    property_report,
    pwd_proof_H,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class ConfigError(Exception):
    pass


@dataclass
class AlgebraConfig:
    n: int
    params: Parameters  # the validated Fractions

    # The vectors as the strings that print the Fractions.
    alpha = property(lambda self: [str(x) for x in self.params.alpha])
    beta = property(lambda self: [str(x) for x in self.params.beta])
    gamma = property(lambda self: [str(x) for x in self.params.gamma])

    def to_parameters(self) -> Parameters:
        return self.params


def _rational(value, field: str, index: int) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{field}[{index}]: expected a rational string or integer")
    text = str(value)
    # -?[0-9]+(/[0-9]+)? is read as two ints; any other text by Fraction's parser.
    num, slash, den = text.partition("/")
    try:
        if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{field}[{index}]: {exc}") from exc


def parse_config(text: str) -> AlgebraConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "n" not in raw or not isinstance(raw["n"], int) or isinstance(raw["n"], bool) or raw["n"] < 1:
        raise ConfigError("field 'n': expected a positive integer")
    n = raw["n"]
    vectors = {}
    for field in ("alpha", "beta", "gamma"):
        if field not in raw or not isinstance(raw[field], list):
            raise ConfigError(f"field '{field}': expected an array")
        if len(raw[field]) != n:
            raise ConfigError(f"field '{field}': length mismatch (expected {n}, got {len(raw[field])})")
        vectors[field] = tuple(_rational(v, field, i) for i, v in enumerate(raw[field]))
    return AlgebraConfig(n, Parameters(n, vectors["alpha"], vectors["beta"], vectors["gamma"]))


def load_config(path: str) -> AlgebraConfig:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "\r" in text:  # newlines as text mode reads them, so JSON errors keep their line
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_config(text)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _closed_form_findings(report: ClosedFormReport) -> dict:
    out = {
        "preset": report.preset,
        "max_degree": report.max_degree,
        "matrices_match": report.matrices_match,
        "totals": report.totals,
        "totals_match": report.totals_match,
    }
    if report.first_mismatch is not None:
        k, i, j, expected, got = report.first_mismatch
        out["first_mismatch"] = {"degree": k, "row": i, "col": j, "expected": expected, "got": got}
    if report.note:
        out["note"] = report.note
    return out


def _superpotential_findings(params: Parameters) -> tuple[bool, dict]:
    sections = {}
    unit_beta = all(b * b == 1 for b in params.beta)
    for name, weights in (("printed", paper_twist_weights(params)),
                          ("balanced", balanced_twist_weights(params))):
        built = build_superpotential(params, weights)
        invariance = check_twist_invariance(built, weights)
        span_ok = check_derivation_quotient(built, params)
        sections[name] = {
            "orbits_closed": built.all_orbits_closed,
            "twist_invariant": invariance.invariant,
            "span_matches_relations": span_ok,
            "closure_scalars": {f"{fam}[{i}]": str(c)
                                for (fam, i), c in sorted(built.closure_scalars.items())},
        }
        if not invariance.invariant:
            sections[name]["twist_defect"] = format_element(invariance.defect)
    sections["printed"]["expected_to_pass"] = unit_beta
    balanced_ok = (sections["balanced"]["orbits_closed"]
                   and sections["balanced"]["twist_invariant"]
                   and sections["balanced"]["span_matches_relations"])
    printed_pass = (sections["printed"]["twist_invariant"]
                    and sections["printed"]["span_matches_relations"])
    ok = balanced_ok and (printed_pass == unit_beta)
    return ok, sections


def _nakayama_findings(params: Parameters) -> tuple[bool, dict]:
    squares = {b * b for b in params.beta}
    printed_expected = len(squares) == 1
    printed = check_diagonal_map(paper_nakayama(params), params, params)
    derived = check_diagonal_map(derived_nakayama(params), params, params)
    findings = {
        "printed": {"preserves_relations": printed.ok, "expected_to_pass": printed_expected},
        "derived": {
            "preserves_relations": derived.ok,
            "per_relation_scalars": [str(d["scalar"]) for d in derived.per_relation],
        },
    }
    ok = derived.ok and (printed.ok == printed_expected)
    return ok, findings


def _chain_findings(report) -> dict:
    return {
        "vertex": report.vertex,
        "s_max": report.s_max,
        "generator": report.generator,
        "up_cycle": report.up_cycle,
        "annihilation": report.annihilation_ok,
        "strict_inclusions": {str(s): strict for s, strict in report.strict_inclusions},
        "support_pattern": report.support_pattern_ok,
    }


def _pwd_findings(report) -> dict:
    out = {
        "beta_nonzero": report.beta_nonzero,
        "zero_products": int(report.counterexample is not None),
    }
    if report.gwa is not None:
        out.update(_proof_findings(report.gwa))
    if report.counterexample is not None:
        out["counterexample"] = {"left": report.counterexample[0], "right": report.counterexample[1]}
    return out


def _gwa_findings(report) -> dict:
    return {
        "relations_killed": report.relations_killed,
        "roundtrip_arrows": report.roundtrip_arrows,
        "roundtrip_base": report.roundtrip_base,
        "grading": report.grading_ok,
        **_proof_findings(report),
    }


def _proof_findings(report) -> dict:
    return {
        "theta_prime_is_homomorphism": report.homomorphism.ok,
        "sigma_is_automorphism": report.automorphism.ok,
    }


def _skewgroup_findings(report) -> dict:
    return {
        "n": report.n,
        "max_degree": report.max_degree,
        "idempotents": report.idempotents_ok,
        "generator_forms_agree": report.generator_forms_agree,
        "proof_identities": report.proof_identities_ok,
        "relations_killed_by_beta": {str(c): v for c, v in sorted(report.relation_kill.items())},
        "dimensions_match": report.dimensions_ok,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_nf(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
    sys_ = build_system(PRESET_QDU, params)
    try:
        element = parse_element(args.element, params.n)
    except ValueError as exc:
        raise ConfigError(f"bad element: {exc}") from exc
    result = normal_form(sys_, element)
    return "pass", {"input": format_element(element), "normal_form": format_element(result)}


def _cmd_basis(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
    preset = PRESET_PREPROJECTIVE if args.preset == "preprojective" else PRESET_QDU
    sys_ = build_system(preset, params, n=params.n)
    paths = enumerate_basis(sys_, args.degree)
    matrix = dimension_matrix(sys_, args.degree)
    # The words spelled from the shape, counted by (source, target),
    # against the closed count read from the leading words' letters.
    counts = [[0] * params.n for _ in range(params.n)]
    for p in paths:
        counts[p.source][p.target] += 1
    if counts != matrix:
        raise AssertionError(f"normal words by (source, target) disagree with the "
                             f"leading-word count at degree {args.degree}")
    return "pass", {
        "degree": args.degree,
        "preset": preset,
        "paths": [str(p) for p in paths],
        "dimension_matrix": matrix,
        "total": len(paths),
    }


def _cmd_confluence(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
    report = check_confluence(build_system(PRESET_QDU, params))
    findings = {
        "overlaps": len(report.overlaps),
        "confluent": report.confluent,
        "words": [str(o.word) for o in report.overlaps],
        "unresolved": [
            {"word": str(o.word), "difference": format_element(o.difference)}
            for o in report.overlaps if not o.resolves
        ],
    }
    return ("pass" if report.confluent else "fail"), findings


def _cmd_hilbert(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
    preset = PRESET_PREPROJECTIVE if args.preset == "preprojective" else PRESET_QDU
    if args.check:
        report = closed_form_check(params, args.max_degree, preset=preset)
        return ("pass" if report.ok else "fail"), _closed_form_findings(report)
    sys_ = build_system(preset, params, n=params.n)
    matrices = dimension_matrices(sys_, args.max_degree)
    findings = {
        "preset": preset,
        "max_degree": args.max_degree,
        "matrices": matrices,
        "totals": [sum(sum(row) for row in m) for m in matrices],
    }
    return "pass", findings


def _cmd_iso(args) -> tuple[str, dict]:
    p = load_config(args.config).to_parameters()
    q = load_config(args.other).to_parameters()
    verdict = decide_graded_iso(p, q)
    if verdict.kind == "unsupported":
        return "unsupported", {"detail": verdict.detail}
    findings: dict = {"result": verdict.kind}
    if verdict.witness is not None:
        findings["witness"] = verdict.witness.describe()
        findings["witness"]["arrow_map"] = _witness_arrow_map(verdict.witness)
    findings["cases"] = [c.describe() for c in verdict.cases]
    return "pass", findings


def _witness_arrow_map(w) -> dict:
    spec = w.spec
    out = {}
    for fam in ("u", "d"):
        for i in range(w.n):
            scalar, image = spec.arrow_image(Arrow(fam, i))
            out[f"{fam}{i}"] = f"{scalar} * {image}"
    return out


def _cmd_verify(args) -> tuple[str, dict]:
    cfg = load_config(args.config)
    params = cfg.to_parameters()
    what = args.what
    if what == "gwa":
        if not params.beta_all_nonzero():
            raise ConfigError("verify gwa requires all beta_i nonzero")
        report = verify_gwa(params)
        findings = {**_gwa_findings(report), "pwd": {"failures": report.pwd_failures}}
        return ("pass" if report.ok else "fail"), findings
    if what == "superpotential":
        if not params.beta_all_nonzero():
            raise ConfigError("verify superpotential requires all beta_i nonzero")
        if not params.gamma_is_zero():
            raise ConfigError("verify superpotential requires gamma = 0")
        ok, findings = _superpotential_findings(params)
        return ("pass" if ok else "fail"), findings
    if what == "nakayama":
        if not params.beta_all_nonzero():
            raise ConfigError("verify nakayama requires all beta_i nonzero")
        if not params.gamma_is_zero():
            raise ConfigError("verify nakayama requires gamma = 0")
        ok, findings = _nakayama_findings(params)
        return ("pass" if ok else "fail"), findings
    if what == "pwd":
        report = pwd_proof_H(params)
        return ("pass" if report.ok else "fail"), _pwd_findings(report)
    if what == "noetherian":
        bad = next((i for i in range(params.n) if params.beta[i] == 0), None)
        if bad is None:
            raise ConfigError("verify noetherian requires some beta_i = 0")
        report = noetherian_chain_check(params, i=bad, s_max=2)
        return ("pass" if report.ok else "fail"), _chain_findings(report)
    if what == "properties":
        report = property_report(params)
        findings = {
            "beta_nonzero": report.beta_nonzero,
            "noetherian": report.noetherian,
            "piecewise_domain": report.pwd,
            "polynomial_subalgebra": report.polynomial_subalgebra,
            "witnesses": report.witnesses,
        }
        return ("pass" if report.checks_passed else "fail"), findings
    if what == "skewgroup":
        n = params.n if args.n is None else args.n
        if args.n is None:
            if any(a != 0 for a in params.alpha) or not params.gamma_is_zero():
                raise ConfigError("verify skewgroup requires alpha = gamma = 0 (or pass --n)")
            sk_params = params
        else:
            sk_params = None
        if n < 2:
            raise ConfigError("verify skewgroup requires n >= 2")
        max_degree = 4 if args.max_degree is None else args.max_degree
        report = verify_quotient_match(n, sk_params, max_degree=max_degree)
        return ("pass" if report.ok else "fail"), _skewgroup_findings(report)
    raise ConfigError(f"unknown verify target {what!r}")


def _cmd_report(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
    n = params.n
    sections: dict = {}
    oks: list[bool] = []

    conf = check_confluence(build_system(PRESET_QDU, params))
    sections["confluence"] = {"overlaps": len(conf.overlaps), "confluent": conf.confluent}
    oks.append(conf.confluent)

    qdu_check = closed_form_check(params, 8, preset=PRESET_QDU)
    sections["hilbert"] = _closed_form_findings(qdu_check)
    oks.append(qdu_check.ok)
    pre_check = closed_form_check(params, 8, preset=PRESET_PREPROJECTIVE)
    sections["preprojective"] = _closed_form_findings(pre_check)
    oks.append(pre_check.ok)
    fact = factorization_identity(n)
    sections["factorization_identity"] = fact
    oks.append(fact)

    props = property_report(params)
    sections["properties"] = {
        "beta_nonzero": props.beta_nonzero,
        "noetherian": props.noetherian,
        "piecewise_domain": props.pwd,
        "polynomial_subalgebra": props.polynomial_subalgebra,
        "checks_passed": props.checks_passed,
    }
    oks.append(props.checks_passed)

    if params.beta_all_nonzero():
        gwa = verify_gwa(params)
        sections["gwa"] = _gwa_findings(gwa)
        oks.append(gwa.ok)
        if params.gamma_is_zero():
            sp_ok, sp = _superpotential_findings(params)
            sections["superpotential"] = sp
            oks.append(sp_ok)
            nk_ok, nk = _nakayama_findings(params)
            sections["nakayama"] = nk
            oks.append(nk_ok)
    else:
        chain = noetherian_chain_check(params, s_max=2)
        sections["noetherian_chain"] = _chain_findings(chain)
        oks.append(chain.ok)
    pwd = pwd_proof_H(params)
    sections["pwd"] = _pwd_findings(pwd)
    oks.append(pwd.ok)

    if (2 <= n <= 12 and all(a == 0 for a in params.alpha) and params.gamma_is_zero()):
        sk = verify_quotient_match(n, params, max_degree=3)
        sections["skewgroup"] = _skewgroup_findings(sk)
        oks.append(sk.ok)

    return ("pass" if all(oks) else "fail"), sections


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _int_at_least(lowest: int):
    """An argparse type: an integer no smaller than ``lowest``.

    A degree below 0 would check nothing and still yield a pass, so it is
    refused at the command line; so is a trial count below 1, although no
    check reads ``--trials`` any more.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its ``commands`` maps each command name to its subparser."""
    parser = argparse.ArgumentParser(prog="quiverdu",
                                     description="quiver down-up algebra toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    add_parser = lambda name, help: parser.commands.setdefault(name, sub.add_parser(name, help=help))

    def common(p):
        p.add_argument("config", help="path to the algebra config JSON")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed in the report; no check reads it (pwd and gwa are proved, not sampled)")

    p_nf = add_parser("nf", help="normal form of an element")
    common(p_nf)
    p_nf.add_argument("element", help="element in the textual format")

    p_basis = add_parser("basis", help="normal-word basis at a degree")
    common(p_basis)
    p_basis.add_argument("--degree", type=_int_at_least(0), required=True)
    p_basis.add_argument("--preset", choices=["qdu", "preprojective"], default="qdu")

    p_conf = add_parser("confluence", help="resolve all overlap ambiguities")
    common(p_conf)

    p_hil = add_parser("hilbert", help="dimension matrices and totals")
    common(p_hil)
    p_hil.add_argument("--max-degree", type=_int_at_least(0), default=8)
    p_hil.add_argument("--preset", choices=["qdu", "preprojective"], default="qdu")
    p_hil.add_argument("--check", action="store_true",
                       help="compare enumeration against the closed form")

    p_iso = add_parser("iso", help="graded isomorphism decision")
    common(p_iso)
    p_iso.add_argument("--other", required=True, help="path to the second config")

    p_ver = add_parser("verify", help="run one verification suite")
    p_ver.add_argument("what", choices=[
        "gwa", "superpotential", "nakayama", "pwd", "noetherian", "properties", "skewgroup"])
    common(p_ver)
    p_ver.add_argument("--trials", type=_int_at_least(1), default=200,
                       help="accepted and ignored: pwd and gwa are proved, not sampled")
    p_ver.add_argument("--max-degree", type=_int_at_least(0), default=None,
                       help="skewgroup: accepted and echoed (default 4), since the corner "
                            "match is proved in every degree; pwd no longer reads it")
    p_ver.add_argument("--n", type=_int_at_least(2), default=None,
                       help="skewgroup: group order override (alpha=gamma=0 assumed)")

    p_rep = add_parser("report", help="full verification suite for one config")
    common(p_rep)
    p_rep.add_argument("--trials", type=_int_at_least(1), default=100,
                       help="accepted and ignored: pwd and gwa are proved, not sampled")
    return parser


_DISPATCH = {
    "nf": _cmd_nf,
    "basis": _cmd_basis,
    "confluence": _cmd_confluence,
    "hilbert": _cmd_hilbert,
    "iso": _cmd_iso,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"command: {report['command']}")
    print(f"verdict: {report['verdict']}")
    for key, value in sorted(report["findings"].items()):
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")


# Built on the first ``main`` call, not at import, so ``import quiverdu``
# does not pay for argparse; not an ``lru_cache``, since callers that clear
# the package's algebra caches must not drop it.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = _PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        args = _PARSER.parse_args(argv)
    else:
        # What the top-level parser would do with this argv, minus its scan.
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    command = args.command if args.command != "verify" else f"verify {args.what}"
    try:
        verdict, findings = _DISPATCH[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        # An internal cross-check disagreed: a failed verdict, not a crash.
        verdict, findings = "fail", {"internal_check_failed": str(exc)}
    report = {
        "command": command,
        "verdict": verdict,
        "findings": findings,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }
    _emit(report, args.json)
    if verdict == "pass":
        return EXIT_PASS
    if verdict == "fail":
        return EXIT_FAIL
    return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

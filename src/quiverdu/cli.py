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
``rewrite``, ``gwa``, ``skewgroup`` and ``cyclotomic``.  For well-formed
argv ``main`` builds the Namespace itself from the command's subparser's
declared actions (dest, type, choices, default): the first word names a
command, every later word is an exact long option of that subparser, used
once and followed by its value unless it stores a constant, or one of its
positionals; no value or positional starts with ``-``; and every required
argument is given.  Any other argv that starts with a command name
(``-h``, an abbreviation, ``--opt=value``, ``--``, a repeated option, a
bad type or choice, leftovers) goes to that command's subparser, the one
the top-level parser would hand it to, and leftover arguments are refused
by the top-level parser's ``error``; any other argv (empty, ``-h``,
``--version``, an unknown command) goes to the top-level parser.  So
argparse alone writes help, usage and errors.  A config is read by
``os.open`` and ``os.read`` to end of file, decoded as UTF-8, with ``\r\n``
and lone ``\r`` read as ``\n`` as in text mode; a read error names the path
as ``open()``'s does.  ``--json`` output is written by ``_json_text``, which
gives the bytes of ``json.dumps(report, sort_keys=True, indent=2)`` for
every type a report holds and refuses any other.

``verify`` and ``report`` read one table, ``_SECTIONS``: ``report`` runs
confluence, hilbert, preprojective and factorization_identity, then every
``verify`` section whose requirements hold.  The two differ only in shape:
the noetherian section's ``report`` key is ``noetherian_chain``; ``verify
gwa`` adds ``pwd: {failures}``; ``properties`` has ``witnesses`` under
``verify`` and ``checks_passed`` under ``report``; ``report`` echoes the
skew-group ``max_degree`` 3 and ``verify`` 4 by default; and ``--n`` lifts
only the skew-group requirements.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
        fd = os.open(path, os.O_RDONLY)
        try:
            data = b""
            while chunk := os.read(fd, 1 << 16):
                data += chunk
        except OSError as exc:
            # A directory opens on Linux and fails only here, with no filename.
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    text = data.decode("utf-8")
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


def _proof_findings(report) -> dict:
    return {
        "theta_prime_is_homomorphism": report.homomorphism.ok,
        "sigma_is_automorphism": report.automorphism.ok,
    }


# ---------------------------------------------------------------------------
# Sections: one row per ``verify`` target, read by ``verify`` and ``report``
# ---------------------------------------------------------------------------
# Each section's check takes the parameters, the ``--n`` override (None when
# not given) and the echoed ``max_degree``, and returns its verdict, its
# findings under ``report`` and its findings under ``verify``.  Only the
# skew-group check reads the last two; the others drop them.

def _gwa_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
    report = verify_gwa(params)
    findings = {
        "relations_killed": report.relations_killed,
        "roundtrip_arrows": report.roundtrip_arrows,
        "roundtrip_base": report.roundtrip_base,
        "grading": report.grading_ok,
        **_proof_findings(report),
    }
    return report.ok, findings, {**findings, "pwd": {"failures": report.pwd_failures}}


def _superpotential_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
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
    return ok, sections, sections


def _nakayama_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
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
    return ok, findings, findings


def _pwd_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
    report = pwd_proof_H(params)
    findings = {
        "beta_nonzero": report.beta_nonzero,
        "zero_products": int(report.counterexample is not None),
    }
    if report.gwa is not None:
        findings.update(_proof_findings(report.gwa))
    if report.counterexample is not None:
        findings["counterexample"] = {"left": report.counterexample[0], "right": report.counterexample[1]}
    return report.ok, findings, findings


def _noetherian_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
    report = noetherian_chain_check(params, s_max=2)  # at the first i with beta_i = 0
    findings = {
        "vertex": report.vertex,
        "s_max": report.s_max,
        "generator": report.generator,
        "up_cycle": report.up_cycle,
        "annihilation": report.annihilation_ok,
        "strict_inclusions": {str(s): strict for s, strict in report.strict_inclusions},
        "support_pattern": report.support_pattern_ok,
    }
    return report.ok, findings, findings


def _properties_findings(params: Parameters, *_) -> tuple[bool, dict, dict]:
    report = property_report(params)
    findings = {
        "beta_nonzero": report.beta_nonzero,
        "noetherian": report.noetherian,
        "piecewise_domain": report.pwd,
        "polynomial_subalgebra": report.polynomial_subalgebra,
    }
    return (report.checks_passed, {**findings, "checks_passed": report.checks_passed},
            {**findings, "witnesses": report.witnesses})


def _skewgroup_findings(params: Parameters, n: int | None, max_degree: int) -> tuple[bool, dict, dict]:
    # With --n the group order alone is given: alpha = gamma = 0 is assumed.
    report = verify_quotient_match(_group_order(params, n), params if n is None else None,
                                   max_degree=max_degree)
    findings = {
        "n": report.n,
        "max_degree": report.max_degree,
        "idempotents": report.idempotents_ok,
        "generator_forms_agree": report.generator_forms_agree,
        "proof_identities": report.proof_identities_ok,
        "relations_killed_by_beta": {str(c): v for c, v in sorted(report.relation_kill.items())},
        "dimensions_match": report.dimensions_ok,
    }
    return report.ok, findings, findings


def _group_order(params: Parameters, n: int | None) -> int:
    return params.n if n is None else n


# A requirement is (the refusal of ``verify {}``, its test on the parameters
# and the ``--n`` override).  ``verify`` refuses at the first one that fails;
# ``report``, which has no ``--n``, leaves out each section with one that
# fails.  Only the skew-group requirements read ``--n``; the cap on n keeps
# the wording of ``verify_quotient_match``'s own refusal.
_BETA_NONZERO = ("verify {} requires all beta_i nonzero", lambda p, n: p.beta_all_nonzero())
_GAMMA_ZERO = ("verify {} requires gamma = 0", lambda p, n: p.gamma_is_zero())
_SOME_BETA_ZERO = ("verify {} requires some beta_i = 0", lambda p, n: not p.beta_all_nonzero())
_SKEW_GROUP = (
    ("verify {} requires alpha = gamma = 0 (or pass --n)",
     lambda p, n: n is not None or (not any(p.alpha) and p.gamma_is_zero())),
    ("verify {} requires n >= 2", lambda p, n: _group_order(p, n) >= 2),
    ("n capped at 12 for cyclotomic checks", lambda p, n: _group_order(p, n) <= 12),
)

# verify target -> (its key under ``report``, its requirements, its check),
# in the order ``verify`` lists its choices and ``report`` runs them.
_SECTIONS = {
    "gwa": ("gwa", (_BETA_NONZERO,), _gwa_findings),
    "superpotential": ("superpotential", (_BETA_NONZERO, _GAMMA_ZERO), _superpotential_findings),
    "nakayama": ("nakayama", (_BETA_NONZERO, _GAMMA_ZERO), _nakayama_findings),
    "pwd": ("pwd", (), _pwd_findings),
    "noetherian": ("noetherian_chain", (_SOME_BETA_ZERO,), _noetherian_findings),
    "properties": ("properties", (), _properties_findings),
    "skewgroup": ("skewgroup", _SKEW_GROUP, _skewgroup_findings),
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
    params = load_config(args.config).to_parameters()
    _, requirements, check = _SECTIONS[args.what]
    for refusal, holds in requirements:
        if not holds(params, args.n):
            raise ConfigError(refusal.format(args.what))
    ok, _, findings = check(params, args.n, 4 if args.max_degree is None else args.max_degree)
    return ("pass" if ok else "fail"), findings


def _cmd_report(args) -> tuple[str, dict]:
    params = load_config(args.config).to_parameters()
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
    fact = factorization_identity(params.n)
    sections["factorization_identity"] = fact
    oks.append(fact)

    for key, requirements, check in _SECTIONS.values():
        if all(holds(params, None) for _, holds in requirements):
            ok, sections[key], _ = check(params, None, 3)  # the skew-group bound echoed is 3
            oks.append(ok)

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
    p_ver.add_argument("what", choices=list(_SECTIONS))
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
    parser.declared = {name: _declared(sub) for name, sub in parser.commands.items()}
    return parser


def _declared(sub: argparse.ArgumentParser):
    """What ``_well_formed`` reads of a subparser's actions, or None if it cannot read them all.

    That is its long options that store one value or a constant, by option
    string; its positionals in order, each storing one value; the defaults
    by dest, a string default passed through its type as argparse does; and
    the required options.
    """
    plain = lambda a: isinstance(a, argparse._StoreAction) and a.nargs is None
    options, positionals, defaults, required = {}, [], {}, set()
    for action in sub._actions:
        default = action.default
        if default is not argparse.SUPPRESS:
            defaults[action.dest] = action.type(default) if action.type and isinstance(default, str) else default
        if not action.option_strings:
            if not plain(action):
                return None
            positionals.append(action)
        elif plain(action) or isinstance(action, argparse._StoreConstAction):
            options.update((s, action) for s in action.option_strings if s.startswith("--"))
            if action.required:
                required.add(action)
    return options, positionals, defaults, required


def _well_formed(command: str, declared, words: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives ``[command, *words]``, or None to leave them to argparse.

    Only argv that argparse reads plainly is answered: each word is an
    exact long option, used once and followed by its value unless it
    stores a constant, or the next positional; no value or positional
    starts with ``-``; each value passes its type and choices; and every
    positional and required option is given.
    """
    if declared is None:
        return None
    options, positionals, defaults, required = declared
    values = dict(defaults, command=command)
    given = set()
    positional = iter(positionals)
    words = iter(words)
    for word in words:
        if word[:1] == "-":
            action = options.get(word)
            if action is None or action in given:
                return None
            given.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            word = next(words, "-")  # a missing value reads as "-"
            if word[:1] == "-":
                return None
        else:
            action = next(positional, None)
            if action is None:
                return None
        if action.type is not None:
            try:
                word = action.type(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and word not in action.choices:
            return None
        values[action.dest] = word
    if next(positional, None) is not None or not required <= given:
        return None
    return argparse.Namespace(**values)


_DISPATCH = {
    "nf": _cmd_nf,
    "basis": _cmd_basis,
    "confluence": _cmd_confluence,
    "hilbert": _cmd_hilbert,
    "iso": _cmd_iso,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the types a report holds.

    Those are str-keyed dicts, lists, str, int, bool and None; any other
    type raises TypeError.  ``pad`` is the newline and indent of the
    value's own line.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (encode_basestring_ascii(key) + ": " + _json_text(item, inner)
                 for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_text(item, inner) for item in value) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(_json_text(report) + "\n")
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
        args = _well_formed(argv[0], _PARSER.declared[argv[0]], argv[1:])
        if args is None:
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

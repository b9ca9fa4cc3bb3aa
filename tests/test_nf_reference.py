"""Differential test of the right-multiplication normal form and of confluence.

The normal-form reference is the whole-word worklist rewriter that the
kernel replaced, kept here verbatim (``_leftmost_match`` and
``normal_form_path``), except that its memo is a dict of its own
(``_memo``): the package keeps no per-system ``Element`` memo.  It is
exponential in degree, so the cases stay at length <= 7.  The confluence
reference is the ``Path``-based overlap resolution that the int-coded one
replaced (``check_confluence``, ``_reduce_at`` and ``_rewrite_once``),
also kept verbatim but running on the worklist normal form.
``build_system`` returns one shared system per preset and parameters, so
each reference side gets a private copy (``private_copy``) and never reads
the kernel's memo.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverdu import rewrite
from quiverdu.core import Arrow, Element, Parameters, Path, path_from_word
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    ConfluenceReport,
    Overlap,
    ReductionSystem,
    RewriteRule,
    build_system,
    certify_confluence_over_parameters,
    check_confluence,
    normal_form,
)
from quiverdu.skewgroup import GRADED_DOWN_UP


def _rewrite_once(sys: ReductionSystem, path: Path, pos: int, rule: RewriteRule) -> dict[Path, Fraction]:
    k = len(rule.lhs.arrows)
    prefix = path.arrows[:pos]
    suffix = path.arrows[pos + k:]
    out: dict[Path, Fraction] = {}
    for q, c in rule.rhs.terms.items():
        new = Path(path.n, path.source, prefix + q.arrows + suffix)
        out[new] = out.get(new, Fraction(0)) + c
    return out


def _leftmost_match(sys: ReductionSystem, arrows: tuple[Arrow, ...]):
    """Find (position, rule) of the leftmost lhs occurrence, or None."""
    best = None
    for rule in sys.rules:
        la = rule.lhs.arrows
        k = len(la)
        stop = len(arrows) - k + 1
        if best is not None:
            stop = min(stop, best[0] + 1)
        for pos in range(stop):
            if arrows[pos:pos + k] == la:
                if best is None or pos < best[0]:
                    best = (pos, rule)
                break
    return best


# The reference's per-system memo: id(sys) -> (sys, {Path: Element}).  The
# system is held with its memo, so its id is not reused while the entry lives.
_MEMOS: dict[int, tuple[ReductionSystem, dict]] = {}


def _memo(sys: ReductionSystem) -> dict:
    return _MEMOS.setdefault(id(sys), (sys, {}))[1]


def reference_normal_form_path(sys: ReductionSystem, path: Path) -> Element:
    """Fully reduce a single path, with per-system memoization."""
    memo = _memo(sys)
    cached = memo.get(path)
    if cached is not None:
        return cached
    done: dict[Path, Fraction] = {}
    pending: dict[Path, Fraction] = {path: Fraction(1)}
    while pending:
        p, c = pending.popitem()
        hit = memo.get(p)
        if hit is not None:
            for q, cq in hit.terms.items():
                v = done.get(q, Fraction(0)) + c * cq
                if v:
                    done[q] = v
                else:
                    done.pop(q, None)
            continue
        m = _leftmost_match(sys, p.arrows)
        if m is None:
            v = done.get(p, Fraction(0)) + c
            if v:
                done[p] = v
            else:
                done.pop(p, None)
            continue
        for q, cq in _rewrite_once(sys, p, m[0], m[1]).items():
            v = pending.get(q, Fraction(0)) + c * cq
            if v:
                pending[q] = v
            else:
                pending.pop(q, None)
    result = Element._from_sums(sys.n, done)
    memo[path] = result
    return result


def reference_normal_form(sys: ReductionSystem, a: Element) -> Element:
    return Element.combine(sys.n, ((reference_normal_form_path(sys, p), c)
                                   for p, c in a.terms.items()))


def reference_check_confluence(sys: ReductionSystem) -> ConfluenceReport:
    """Resolve every overlap ambiguity both ways and report the differences.

    An overlap is a proper suffix of one leading word equal to a proper
    prefix of another; both one-step reductions of the superposed word are
    taken to normal form and compared.  Inclusion ambiguities cannot occur
    here (all leading words of a preset have equal length and are distinct)
    but are checked for anyway.
    """
    overlaps: list[Overlap] = []
    rules = sys.rules
    for i, r1 in enumerate(rules):
        a1 = r1.lhs.arrows
        for j, r2 in enumerate(rules):
            a2 = r2.lhs.arrows
            for k in range(1, min(len(a1), len(a2))):
                if a1[len(a1) - k:] != a2[:k]:
                    continue
                word = Path(sys.n, r1.lhs.source, a1 + a2[k:])
                left = _reduce_at(sys, word, 0, r1)
                right = _reduce_at(sys, word, len(a1) - k, r2)
                overlaps.append(Overlap(word, i, j, left - right))
            if i != j and len(a2) < len(a1):
                for pos in range(len(a1) - len(a2) + 1):
                    if a1[pos:pos + len(a2)] == a2:
                        word = r1.lhs
                        left = reference_normal_form(sys, r1.rhs)
                        right = _reduce_at(sys, word, pos, r2)
                        overlaps.append(Overlap(word, i, j, left - right))
    report = ConfluenceReport(sys.n, sys.preset, overlaps)
    if report.confluent:
        sys._verified = True
    return report


def _reduce_at(sys: ReductionSystem, word: Path, pos: int, rule: RewriteRule) -> Element:
    return reference_normal_form(sys, Element(sys.n, _rewrite_once(sys, word, pos, rule)))


def private_copy(sys: ReductionSystem) -> ReductionSystem:
    """The same rules in a new system, outside the shared ``build_system`` cache."""
    copy = ReductionSystem(sys.n, sys.rules, sys.preset, sys.params)
    assert copy is not sys and not _memo(copy)
    return copy


# Zero is drawn often, so beta_i = 0 and gamma = 0 both occur, next to
# integral and non-integral nonzero values.
SCALARS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                           Fraction(-1, 2), Fraction(3, 4)])


@st.composite
def systems(draw):
    """(preset, n, params) over both presets, n = 1..4, and the graded down-up system."""
    preset = draw(st.sampled_from([PRESET_QDU, PRESET_PREPROJECTIVE, GRADED_DOWN_UP]))
    if preset is GRADED_DOWN_UP:
        return PRESET_QDU, 1, GRADED_DOWN_UP
    n = draw(st.integers(1, 4))
    if preset == PRESET_PREPROJECTIVE:
        return preset, n, None
    vec = st.lists(SCALARS, min_size=n, max_size=n)
    return preset, n, Parameters.of(n, draw(vec), draw(vec), draw(vec))


def elements(n):
    paths = st.builds(lambda v, word: path_from_word(n, v, word),
                      st.integers(0, n - 1), st.text("ud", max_size=7))
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(paths, coeffs, max_size=4).map(lambda t: Element(n, t))


@st.composite
def cases(draw):
    preset, n, params = draw(systems())
    return preset, n, params, draw(elements(n))


@settings(max_examples=150, deadline=None)
@given(cases())
@example((PRESET_QDU, 3, Parameters.of(3, [2, 3, 5], [7, 0, 13], [1, 0, 4]),
          Element.from_path(path_from_word(3, 1, "ddddduu"))))
@example((PRESET_QDU, 2, Parameters.of(2, [1, -1], [0, 0], [Fraction(3, 2), 1]),
          Element.from_path(path_from_word(2, 0, "dddudu"))))
def test_normal_form_matches_worklist_reference(case):
    preset, n, params, a = case
    new_sys = build_system(preset, params, n=n)
    assert normal_form(new_sys, a) == reference_normal_form(private_copy(new_sys), a)


def test_confluence_report_matches_reference(monkeypatch):
    instances = []
    original = rewrite.check_confluence

    def recording(sys):
        instances.append(sys.params)
        return original(sys)

    monkeypatch.setattr(rewrite, "check_confluence", recording)
    certify_confluence_over_parameters(n=2)
    monkeypatch.undo()
    assert len(instances) == 27 + 5

    for params in instances:
        new_sys = build_system(PRESET_QDU, params)
        ref_sys = private_copy(new_sys)
        new = check_confluence(new_sys)
        ref = reference_check_confluence(ref_sys)
        assert [(o.word, o.left_rule, o.right_rule) for o in new.overlaps] == \
            [(o.word, o.left_rule, o.right_rule) for o in ref.overlaps]
        assert [o.difference for o in new.overlaps] == [o.difference for o in ref.overlaps]
        assert new.confluent and ref.confluent
        for o in new.overlaps:
            word = Element.from_path(o.word)
            assert normal_form(new_sys, word) == reference_normal_form(ref_sys, word)


def test_confluence_report_matches_reference_beyond_qdu():
    # A one-vertex system whose leading word du sits inside ddu: its only
    # ambiguity is an inclusion, and one side reduces to the trivial path.
    n = 1
    e0, u, ddu, du = (path_from_word(n, 0, w) for w in ("", "u", "ddu", "du"))
    rules = (RewriteRule(ddu, Element.from_path(e0, 2)), RewriteRule(du, Element.from_path(u)))
    for make in (lambda: ReductionSystem(n, rules, "custom"),
                 lambda: build_system(PRESET_QDU, GRADED_DOWN_UP),
                 lambda: build_system(PRESET_PREPROJECTIVE, n=3)):
        new_sys = make()
        new, ref = check_confluence(new_sys), reference_check_confluence(private_copy(new_sys))
        assert [(o.word, o.left_rule, o.right_rule, o.difference) for o in new.overlaps] == \
            [(o.word, o.left_rule, o.right_rule, o.difference) for o in ref.overlaps]
    custom = check_confluence(ReductionSystem(n, rules, "custom"))
    assert [(str(o.word), str(o.difference)) for o in custom.overlaps] == [("d0.d0.u0", "2 @0 + -1 * u0")]

"""Record the expected normal forms of every nf-deep operation.

Run once from the repository root, at a commit whose normal forms are
trusted: ``python3 perfbench/record_expected.py``.  It writes
``perfbench/expected_nf.json``, which the benchmark compares every ``nf``
answer against.  Entries already in the file are kept, not recomputed;
entries no operation can draw any more are dropped.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quiverdu.cli import parse_config  # noqa: E402
from quiverdu.core import format_element, parse_element  # noqa: E402
from quiverdu.rewrite import PRESET_QDU, build_system, normal_form  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    pool = workloads.nf_pool()
    path = workloads.EXPECTED_NF_FILE
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    out = {}
    for name, _, element in workloads.nf_cases(smoke=True) + workloads.nf_cases(smoke=False):
        key = workloads.nf_key(name, element)
        if key in known:
            out[key] = known[key]
            continue
        params = parse_config(pool[name].to_json()).to_parameters()
        nf = normal_form(build_system(PRESET_QDU, params), parse_element(element, params.n))
        terms = workloads.parse_terms(format_element(nf))
        out[key] = {w: str(c) for w, c in sorted(terms.items())}
        print(name, element, len(terms), flush=True)
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

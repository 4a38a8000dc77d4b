"""The verifier did not move, and there is one of each.

``golden_verifier.json`` is ``verify_procedure(p).to_dict()`` for every
registry kernel and every ``examples/*.loop`` — as written, after
normalize + coalesce in both recovery styles, after triangular
coalescing where it changes the program, and with every unit-step loop
force-tagged DOALL (so serial loops contribute their RACE/PRIV findings
too) — recorded *before* the dependence analyses were merged into one
edge set.  The verifier was already the most precise path; everything
else was rebuilt on its machinery, so its output must stay byte-equal.

Regenerate (only when the verifier is *meant* to change) with
``PYTHONPATH=src python tests/analysis/test_golden_verifier.py``.
"""

import json
import re
from pathlib import Path

from repro.analysis.safety import verify_procedure
from repro.frontend.dsl import parse
from repro.ir.stmt import Block, If, Loop, LoopKind
from repro.transforms.coalesce import coalesce_procedure
from repro.transforms.normalize import normalize_procedure
from repro.workloads import (
    IRREGULAR_WORKLOADS,
    MIXED_WORKLOADS,
    RACY_WORKLOADS,
    WORKLOADS,
)

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden_verifier.json")
SRC = ROOT / "src" / "repro"


def _force_doall(s):
    if isinstance(s, Block):
        return Block(tuple(_force_doall(x) for x in s.stmts))
    if isinstance(s, If):
        return If(s.cond, _force_doall(s.then), _force_doall(s.orelse))
    if isinstance(s, Loop):
        return s.with_body(_force_doall(s.body)).with_kind(LoopKind.DOALL)
    return s


def corpus_programs():
    programs = {}
    for registry in (WORKLOADS, IRREGULAR_WORKLOADS, MIXED_WORKLOADS, RACY_WORKLOADS):
        for name, factory in sorted(registry.items()):
            programs[name] = factory().proc
    for path in sorted((ROOT / "examples").glob("*.loop")):
        programs[f"examples/{path.name}"] = parse(path.read_text())
    return programs


def build_corpus():
    out = {}
    for name, proc in corpus_programs().items():
        norm = normalize_procedure(proc)
        variants = {
            "raw": proc,
            "ceiling": coalesce_procedure(norm, style="ceiling")[0],
            "divmod": coalesce_procedure(norm, style="divmod")[0],
            "all_doall": proc.with_body(_force_doall(proc.body)),
        }
        tri = coalesce_procedure(norm, triangular=True)[0]
        if tri != variants["ceiling"]:
            variants["triangular"] = tri
        for tag, variant in variants.items():
            out[f"{name}:{tag}"] = verify_procedure(variant).to_dict()
    return out


def _dump(corpus):
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def test_registry_has_eighteen_kernels():
    assert len(corpus_programs()) == 18 + len(list((ROOT / "examples").glob("*.loop")))


def test_verifier_output_is_byte_identical_to_the_recorded_corpus():
    got = build_corpus()
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
    assert _dump(got) == GOLDEN.read_text()


def _sources():
    return {p: p.read_text() for p in SRC.rglob("*.py")}


def _count(pattern):
    rx = re.compile(pattern)
    return {
        str(p.relative_to(SRC)): n
        for p, text in _sources().items()
        if (n := len(rx.findall(text)))
    }


class TestOneOfEach:
    """The structural half of the acceptance list: the sixth copy of the
    pair scan cannot quietly come back."""

    def test_one_tester_construction_site(self):
        assert _count(r"(?<!class )DependenceTester\(") == {"analysis/pdg.py": 1}

    def test_one_direction_enumeration(self):
        assert _count(r"itertools\.product\(DIRECTIONS") == {
            "analysis/dependence.py": 1
        }

    def test_helpers_defined_once(self):
        for name in ("_common_prefix", "written_scalars", "exposed_written_scalars"):
            assert sum(_count(rf"def {name}\(").values()) == 1, name

    def test_no_solver_in_safety(self):
        text = (SRC / "analysis" / "safety.py").read_text()
        assert "Fraction" not in text
        assert not re.search(r"^class _(Eliminator|PairSystem|Level)\b", text, re.M)

    def test_retired_names_stay_retired(self):
        assert _count(r"\bcollect_accesses\b|\bAccessInfo\b") == {}

    def test_fission_reads_one_oracle(self):
        text = (SRC / "transforms" / "fission.py").read_text()
        assert "pdg.cyclic(comp)" in text and "classify_loop(" not in text


if __name__ == "__main__":
    GOLDEN.write_text(_dump(build_corpus()))
    print(f"wrote {GOLDEN} ({len(json.loads(GOLDEN.read_text()))} reports)")

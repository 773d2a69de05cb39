"""The experiment registry: one of each, and a golden per experiment.

``golden/experiment_digests_seed7.json`` holds, per registered name, the
sha256 of the rendered table (no footers) and of ``canonical_json`` of the
``--json`` data at seed 7.  It was written at the commit *before* the
sixteen ``Row``/``Result``/``run_*`` triples were folded into the
registry, so a moved digest names the experiment that moved.
"""

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.harness import __main__ as cli
from repro.harness import experiments as E
from repro.obs.canonical import canonical_json, to_jsonable
from repro.service.errors import BadRequest
from repro.service.specs import normalize_experiment_spec

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
EXPERIMENTS_PY = (SRC / "harness" / "experiments.py").read_text(encoding="utf-8")
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "experiment_digests_seed7.json").read_text()
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def results():
    return {
        name: fn(seed=7) if fn.takes_seed else fn() for name, fn in E.EXPERIMENTS.items()
    }


class TestOneRegistry:
    def test_cli_service_and_design_name_the_same_experiments(self):
        names = set(E.EXPERIMENTS)
        assert len(names) == 16
        assert cli.EXPERIMENTS is E.EXPERIMENTS
        for name in names:
            assert normalize_experiment_spec({"experiment": name})["experiment"] == name
        section = (ROOT / "DESIGN.md").read_text(encoding="utf-8").split("\n## 4. ")[1]
        section = section.split("\n## ")[0]
        header, _, *rows = (line for line in section.splitlines() if line.startswith("|"))
        column = [cell.strip() for cell in header.strip("|").split("|")].index("CLI name")
        cells = [row.strip("|").split("|")[column].strip() for row in rows]
        assert {c.strip("`") for c in cells if re.fullmatch(r"`\w+`", c)} == names

    def test_every_entry_carries_its_anchor_and_seed_decision(self):
        for name, fn in E.EXPERIMENTS.items():
            assert fn.anchor and fn.__name__.startswith("run_"), name
        unseeded = sorted(n for n, fn in E.EXPERIMENTS.items() if not fn.takes_seed)
        assert unseeded == ["fig4", "nfs_mounts", "time_scope"]

    def test_one_typed_error_spells_the_unknown_experiment_sentence(self):
        spellers = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "unknown experiment" in path.read_text(encoding="utf-8")
        ]
        assert spellers == ["boundary.py"]
        sentence = str(E.UnknownExperiment("nosuch", E.EXPERIMENTS))
        assert sentence.startswith("unknown experiment 'nosuch'; try one of: black_hole, ")
        with pytest.raises(E.UnknownExperiment):
            E.run_experiment_record("nosuch")
        for forged in ("nosuch", None, ["fig4"]):
            with pytest.raises(BadRequest, match="unknown experiment"):
                normalize_experiment_spec({"experiment": forged})
        with pytest.raises(BadRequest) as excinfo:
            normalize_experiment_spec({"experiment": "nosuch"})
        assert sentence in str(excinfo.value)

    def test_the_entrypoint_runs_nothing_itself(self):
        tree = ast.parse((SRC / "harness" / "__main__.py").read_text(encoding="utf-8"))
        defined = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        assert defined == ["main"]
        for name in ("run_experiment_record", "run_experiment", "run_experiments",
                     "harness_payload"):
            assert getattr(cli, name) is getattr(E, name)
        for module in ("specs.py", "executor.py"):
            assert "harness.__main__" not in (SRC / "service" / module).read_text()


class TestOneOfEach:
    def test_one_table_per_result_shape(self):
        # rows results, key/value results, and churn's merged-cell table
        assert len(re.findall(r"def table\(", EXPERIMENTS_PY)) <= 3
        assert EXPERIMENTS_PY.count("add_row(") == 1

    def test_the_library_neither_inspects_nor_exits(self):
        assert "inspect.signature" not in EXPERIMENTS_PY
        assert "SystemExit" not in EXPERIMENTS_PY

    def test_one_scoped_assembly_and_one_gauntlet(self):
        assert EXPERIMENTS_PY.count('CondorConfig(error_mode="scoped"') == 1
        assert EXPERIMENTS_PY.count("make_workload(") == 1
        assert EXPERIMENTS_PY.count("collect_metrics(") == 2  # the assembly, the gauntlet
        for pattern, owner in (
            (r"Step\.allocate\(16 \* MB\)", "harness/workloads.py"),
            (r"def submit_gauntlet\(", "harness/workloads.py"),
            (r"\.audit_trace\(", "core/principles.py"),
        ):
            regex = re.compile(pattern)
            owners = [
                str(path.relative_to(SRC))
                for path in SRC.rglob("*.py")
                if regex.search(path.read_text(encoding="utf-8"))
            ]
            assert owners == [owner], pattern


class TestEveryResult:
    def test_headers_and_cells_agree_and_keys_find_their_rows(self, results):
        for name, result in results.items():
            table = result.table()
            assert table.title and table.rows, name
            assert all(len(row) == len(table.headers) for row in table.rows), name
            if isinstance(result, E._RowsResult) and hasattr(result, "KEY"):
                for row in result.rows:
                    assert result.row(getattr(row, result.KEY)) is row, name
                with pytest.raises(KeyError):
                    result.row("no such row")

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_table_and_payload_match_the_pre_registry_digests(self, results, name):
        result = results[name]
        rendered, data = GOLDEN[name]
        assert _sha(result.table().render()) == rendered, f"{name}: rendered table moved"
        assert _sha(canonical_json(to_jsonable(result))) == data, f"{name}: --json data moved"

    def test_the_goldens_cover_the_registry(self):
        assert sorted(GOLDEN) == sorted(E.EXPERIMENTS)

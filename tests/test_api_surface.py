"""API surface checks: exports, error hierarchy, spec immutability."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro import JoinSpec
from repro.errors import (
    CostModelError,
    JoinConfigError,
    NetworkError,
    PlacementError,
    ReproError,
    ScheduleError,
    SchemaError,
    WorkloadError,
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        import repro.costmodel
        import repro.experiments
        import repro.joins
        import repro.query
        import repro.storage
        import repro.workloads

        for module in (
            repro.costmodel,
            repro.experiments,
            repro.joins,
            repro.query,
            repro.storage,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_version(self):
        assert repro.__version__


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            SchemaError,
            PlacementError,
            NetworkError,
            JoinConfigError,
            ScheduleError,
            CostModelError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")


class TestJoinSpec:
    def test_frozen(self):
        spec = JoinSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.location_width = 9

    def test_defaults_match_paper(self):
        spec = JoinSpec()
        assert spec.location_width == 1.0  # 1-byte node ids
        assert spec.count_width_r == 1.0  # workload X's counter width
        assert spec.encoding.name == "dictionary"
        assert spec.materialize is True

    def test_replace_produces_variant(self):
        spec = JoinSpec()
        wider = dataclasses.replace(spec, location_width=4.0)
        assert wider.location_width == 4.0
        assert spec.location_width == 1.0


class TestRunAlgorithmsHelper:
    def test_custom_algorithm_list_and_anchor(self):
        from repro import GraceHashJoin
        from repro.experiments.figures import run_algorithms, _figure_spec
        from repro.workloads import unique_keys_workload

        workload = unique_keys_workload(scaled_tuples=5_000)
        group = run_algorithms(
            workload,
            _figure_spec(),
            algorithms=[GraceHashJoin()],
            paper={"HJ": 123.0},
        )
        assert len(group.rows) == 1
        assert group.rows[0].label == "HJ"
        assert group.rows[0].paper == 123.0
        assert set(group.rows[0].breakdown) == {
            "Keys & Counts",
            "Keys & Nodes",
            "R Tuples",
            "S Tuples",
        }

    def test_output_row_mismatch_raises(self):
        from repro import GraceHashJoin
        from repro.errors import WorkloadError
        from repro.experiments.figures import run_algorithms, _figure_spec
        from repro.workloads import unique_keys_workload

        workload = unique_keys_workload(scaled_tuples=1_000)
        workload.expected_output_rows = 999  # wrong on purpose
        with pytest.raises(WorkloadError, match="HJ on .*: 1000 rows, expected 999"):
            run_algorithms(workload, _figure_spec(), algorithms=[GraceHashJoin()])


class TestReachability:
    """Every ``repro`` module is imported, transitively, from an entry
    point, or is listed with the reason it stays."""

    #: The CLI, the operator registry, the query service, the experiment
    #: registry; every ``benchmarks/e2e`` module is a root as well.
    ROOTS = (
        "repro.__main__",
        "repro.joins.registry",
        "repro.serve.service",
        "repro.experiments.runner",
    )

    #: Modules no root imports that stay: paper content, or code an open
    #: ROADMAP item builds on.
    UNREACHED = {
        "repro.joins.tracking_aware": "Sec. 3.2 tracking-aware hash joins; "
        "ROADMAP item 6(d) registers them",
        "repro.encoding.prefix": "Sec. 2.4 radix-prefix grouping; only "
        "examples/traffic_compression.py reaches it (Figs. 7-8 use the fixed, "
        "varbyte and dictionary encodings)",
        "repro.experiments.markdown": "ROADMAP item 8 writes EXPERIMENTS.md with it",
    }

    @staticmethod
    def _defining_module(index, base: str, name: str) -> str | None:
        """The module ``from base import name`` reaches, following package
        re-exports to the module that defines ``name``."""
        while True:
            if f"{base}.{name}" in index.modules:
                return f"{base}.{name}"
            module = index.modules.get(base)
            if module is None:
                return None
            if not module.is_package or name not in module.from_imports:
                return base
            base, name = module.from_imports[name]

    def _reached(self, index) -> set[str]:
        frontier = [*self.ROOTS, *(n for n in index.modules if n.startswith("e2e."))]
        seen: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen or name not in index.modules:
                continue
            seen.add(name)
            module = index.modules[name]
            if module.is_package:
                continue  # a package's re-exports are not uses
            frontier.extend(module.imports.values())
            for base, imported in module.from_imports.values():
                target = self._defining_module(index, base, imported)
                if target is not None:
                    frontier.append(target)
        return seen

    def test_every_module_is_reached_or_listed(self):
        from pathlib import Path

        from repro.analysis.dataflow import build_package_index

        roots = [
            Path(repro.__file__).parent,
            Path(__file__).resolve().parents[1] / "benchmarks" / "e2e",
        ]
        index = build_package_index(
            [path for root in roots for path in root.rglob("*.py")], roots
        )
        assert set(self.ROOTS) <= set(index.modules)
        reached = self._reached(index)
        unreached = {
            name
            for name, module in index.modules.items()
            if not module.is_package and name not in reached
        }
        # Equality also fails on a stale entry: one that is now reached.
        assert unreached == set(self.UNREACHED), (
            f"no root imports {sorted(unreached)}; "
            f"allow-listed: {sorted(self.UNREACHED)}"
        )


class TestGroupingIdiom:
    """Rows are grouped by ``repro.util.group_bounded`` and nowhere else."""

    ALLOWED: dict[str, int] = {}

    def test_argsort_searchsorted_grouping_is_not_hand_rolled(self):
        import re
        from pathlib import Path

        idiom = re.compile(r"searchsorted\(\s*[\w.]+\[order\],\s*np\.arange\(")
        root = Path(repro.__file__).parent
        found = {
            path.relative_to(root).as_posix(): len(idiom.findall(path.read_text()))
            for path in root.rglob("*.py")
        }
        assert {name: hits for name, hits in found.items() if hits} == self.ALLOWED


class TestProcessState:
    """Run settings live in one ``ExecConfig``: only its module reads the
    environment, and no module rebinds globals outside two known owners."""

    CONFIG_MODULE = "parallel/config.py"
    GLOBAL_OWNERS = {"analysis/sanitizer.py", "costmodel/stats.py"}

    @staticmethod
    def _sources():
        import ast
        from pathlib import Path

        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text())

    def test_only_the_config_module_reads_the_environment(self):
        import ast

        readers = set()
        for name, tree in self._sources():
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and {alias.name for alias in node.names} & {"environ", "getenv"}
                ):
                    readers.add(name)
        assert readers == {self.CONFIG_MODULE}

    def test_globals_are_rebound_only_by_their_owners(self):
        import ast

        rebinders = {
            name
            for name, tree in self._sources()
            if any(isinstance(node, ast.Global) for node in ast.walk(tree))
        }
        assert rebinders <= self.GLOBAL_OWNERS, sorted(rebinders - self.GLOBAL_OWNERS)

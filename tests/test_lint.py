"""reprolint: the simulator-invariant static-analysis pass.

Each rule gets fixtures that trigger it and near-misses that must not;
suppression comments are exercised in both forms; the CLI contract (exit
codes, JSON shape) is pinned; and a meta-test lints the real tree so the
repository itself is guaranteed clean, with suppressions confined to the
documented oracle exemption.  The typing gate's pyproject/baseline split is
checked for consistency too, and the simulator's environment surface (the
variables ``src/repro`` reads) is pinned.
"""

import ast
import json
import textwrap
import tomllib
from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.core import module_name_for
from repro.lint.runner import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, files, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], root=tmp_path, rules=rules)


def rules_hit(result):
    return sorted({f.rule for f in result.findings})


class TestFramework:
    def test_module_names_anchor_at_repro(self, tmp_path):
        root = tmp_path
        assert module_name_for(
            root / "src/repro/core/horus.py", root) == "repro.core.horus"
        assert module_name_for(
            root / "src/repro/common/__init__.py", root) == "repro.common"
        assert module_name_for(
            root / "tests/test_lint.py", root) == "tests.test_lint"

    def test_every_rule_is_registered_with_metadata(self):
        assert sorted(RULES) == ["F1", "F2", "F3", "F4", "F5",
                                 "R0", "R1", "R2", "R3", "R4", "R5", "R6"]
        for rule in RULES.values():
            assert rule.title
            assert rule.rationale

    def test_deep_rules_are_exactly_the_flow_family(self):
        deep = sorted(name for name, rule in RULES.items() if rule.deep)
        assert deep == ["F1", "F2", "F3", "F4", "F5"]

    def test_unknown_rule_is_an_error_not_a_crash(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/a.py": "x = 1\n"},
                          rules=["R1", "R99"])
        assert result.exit_code == 2
        assert "R99" in result.errors[0]

    def test_syntax_error_file_is_reported(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/broken.py": "def f(:\n"})
        assert result.exit_code == 2
        assert "broken.py" in result.errors[0]

    def test_clean_tree_exits_zero(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/ok.py": "x = 1\n"})
        assert result.exit_code == 0
        assert result.files_checked == 1


class TestR0SuppressionHygiene:
    def test_unknown_rule_id_is_flagged_and_suppresses_nothing(
            self, tmp_path):
        # The bug class: a typo'd id looks like a vetted exemption but the
        # real finding still fires — now both halves are visible.  (The
        # fixture strings are concatenated so this test file's own raw
        # source does not register the typo'd suppressions.)
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: " "disable=R99\n"},
            rules=["R0", "R1"])
        assert rules_hit(result) == ["R0", "R1"]
        r0 = [f for f in result.findings if f.rule == "R0"][0]
        assert "R99" in r0.message
        assert r0.line == 1

    def test_known_rule_ids_are_clean(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: disable=R1\n"},
            rules=["R0", "R1"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["R1"]

    def test_mixed_list_reports_only_the_unknown_ids(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "# reprolint: " "disable-next-line=R1,F9\n"
                "import time\n"}, rules=["R0", "R1"])
        assert rules_hit(result) == ["R0"]
        assert "F9" in result.findings[0].message
        assert "R1" not in result.findings[0].message
        assert [f.rule for f in result.suppressed] == ["R1"]


class TestR1Determinism:
    def test_time_import_in_core_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/core/clock.py": "import time\n"}, rules=["R1"])
        assert rules_hit(result) == ["R1"]
        assert "time" in result.findings[0].message

    def test_from_import_and_submodule_forms_are_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/crypto/bad.py": """\
            from random import randint
            import datetime.timezone
        """}, rules=["R1"])
        assert len(result.findings) == 2

    def test_harness_may_use_time(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/experiments/profile.py": "import time\n"}, rules=["R1"])
        assert result.findings == []


class TestR2MacDomains:
    def test_default_domain_call_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/secure/ctrl.py": """\
            def f(engine, kind, ct, addr, ctr):
                return engine.block_mac(kind, ct, addr, ctr)
        """}, rules=["R2"])
        assert rules_hit(result) == ["R2"]
        assert "default MacDomain" in result.findings[0].message

    def test_positional_domain_is_flagged_differently(self, tmp_path):
        result = run_lint(tmp_path, {"repro/crypto/prim.py": """\
            def f(key, data):
                return compute_mac(key, data, MacDomain.DATA)
        """}, rules=["R2"])
        assert len(result.findings) == 1
        assert "positionally" in result.findings[0].message

    def test_explicit_keyword_is_clean(self, tmp_path):
        result = run_lint(tmp_path, {"repro/secure/ctrl.py": """\
            def f(engine, kind, ct, addr, ctr):
                return engine.block_mac(kind, ct, addr, ctr,
                                        domain=MacDomain.DATA)
        """}, rules=["R2"])
        assert result.findings == []

    def test_kwargs_forwarding_is_not_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/crypto/wrap.py": """\
            def f(key, data, **kw):
                return compute_mac(key, data, **kw)
        """}, rules=["R2"])
        assert result.findings == []


class TestR3BatchParity:
    def test_batch_method_without_scalar_twin_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/mem/dev.py": """\
            class Device:
                def read_batch(self, addresses):
                    return [None for _ in addresses]
        """}, rules=["R3"])
        assert rules_hit(result) == ["R3"]
        assert "no scalar counterpart" in result.findings[0].message

    def test_scalar_twin_satisfies_parity(self, tmp_path):
        result = run_lint(tmp_path, {"repro/mem/dev.py": """\
            class Device:
                def read(self, address):
                    return None

                def read_batch(self, addresses):
                    return [self.read(a) for a in addresses]
        """}, rules=["R3"])
        assert result.findings == []

    def test_block_suffixed_twin_counts(self, tmp_path):
        result = run_lint(tmp_path, {"repro/crypto/eng.py": """\
            class Engine:
                def mac_block(self, data):
                    return data

                def mac_batch(self, items):
                    return [self.mac_block(i) for i in items]
        """}, rules=["R3"])
        assert result.findings == []

    def test_private_and_property_batch_names_are_skipped(self, tmp_path):
        result = run_lint(tmp_path, {"repro/mem/dev.py": """\
            class Device:
                def _fill_batch(self, addresses):
                    return addresses

                @property
                def dirty_blocks(self):
                    return []
        """}, rules=["R3"])
        assert result.findings == []

    def test_coverage_map_gap_is_flagged(self, tmp_path):
        files = {
            "src/repro/crypto/eng.py": """\
                class Engine:
                    def encrypt(self, block):
                        return block

                    def encrypt_batch(self, blocks):
                        return [self.encrypt(b) for b in blocks]

                    def decrypt(self, block):
                        return block

                    def decrypt_batch(self, blocks):
                        return [self.decrypt(b) for b in blocks]
            """,
            "tests/test_prop_batch.py": """\
                BATCH_COVERAGE = {"Engine.encrypt_batch": "test_roundtrip"}
            """,
        }
        result = run_lint(tmp_path, files, rules=["R3"])
        assert len(result.findings) == 1
        assert "Engine.decrypt_batch" in result.findings[0].message
        assert "BATCH_COVERAGE" in result.findings[0].message

    def test_epoch_method_requires_both_override_twins(self, tmp_path):
        # replay_epoch's scalar specification is the read/write pair
        # (TWIN_OVERRIDES), not a replay()/replay_block() method; with only
        # read() present the conjunction fails.
        result = run_lint(tmp_path, {"repro/cache/hier.py": """\
            class Hierarchy:
                def read(self, address):
                    return None

                def replay_epoch(self, ops):
                    return [], []
        """}, rules=["R3"])
        assert rules_hit(result) == ["R3"]
        assert "read() and write()" in result.findings[0].message

    def test_epoch_method_with_scalar_pair_is_clean(self, tmp_path):
        result = run_lint(tmp_path, {"repro/cache/hier.py": """\
            class Hierarchy:
                def read(self, address):
                    return None

                def write(self, address, data):
                    pass

                def replay_epoch(self, ops):
                    return [], []
        """}, rules=["R3"])
        assert result.findings == []

    def test_coverage_half_skipped_without_map_or_oracle(self, tmp_path):
        # Scalar twin present, no tests/test_prop_batch.py and no oracle in
        # the fixture tree: only the twin half runs, so the tree is clean.
        result = run_lint(tmp_path, {"repro/mem/dev.py": """\
            class Device:
                def write(self, a, d):
                    pass

                def write_batch(self, pairs):
                    pass
        """}, rules=["R3"])
        assert result.findings == []


class TestR4ExceptionHygiene:
    def test_swallowing_broad_except_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/experiments/run.py": """\
            def f():
                try:
                    g()
                except Exception:
                    return None
        """}, rules=["R4"])
        assert rules_hit(result) == ["R4"]

    def test_bare_except_and_tuple_forms_are_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/cli.py": """\
            def f():
                try:
                    g()
                except:
                    pass

            def h():
                try:
                    g()
                except (ValueError, Exception):
                    pass
        """}, rules=["R4"])
        assert len(result.findings) == 2

    def test_reraising_broad_handler_is_allowed(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/tx.py": """\
            def f(tx):
                try:
                    tx.commit()
                except BaseException:
                    tx.abort()
                    raise
        """}, rules=["R4"])
        assert result.findings == []

    def test_specific_exceptions_are_fine(self, tmp_path):
        result = run_lint(tmp_path, {"repro/experiments/run.py": """\
            def f():
                try:
                    g()
                except (OSError, ValueError):
                    return None
        """}, rules=["R4"])
        assert result.findings == []


class TestR5MagicNumbers:
    def test_table_latency_literal_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/timing.py": """\
            def cost(n):
                return n * 500
        """}, rules=["R5"])
        assert rules_hit(result) == ["R5"]
        assert "NVM_WRITE_LATENCY_NS" in result.findings[0].message

    def test_energy_literal_is_flagged_in_energy_package(self, tmp_path):
        result = run_lint(tmp_path, {"repro/energy/model.py": """\
            def joules(n):
                return n * 531.8e-9
        """}, rules=["R5"])
        assert rules_hit(result) == ["R5"]

    def test_constants_module_is_the_authoritative_copy(self, tmp_path):
        result = run_lint(tmp_path, {"repro/common/constants.py": """\
            NVM_WRITE_LATENCY_NS = 500
            HASH_LATENCY_CYCLES = 160
        """}, rules=["R5"])
        assert result.findings == []

    def test_out_of_scope_and_non_table_values_are_ignored(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/experiments/plot.py": "WIDTH = 500\n",
            "repro/core/ok.py": "BLOCK = 64\nFLAG = True\n",
        }, rules=["R5"])
        assert result.findings == []


class TestR6StatsAccounting:
    def test_raw_backend_write_is_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/secure/ctrl.py": """\
            def flush(self, address, data):
                self.nvm.backend.write_block(address, data)
        """}, rules=["R6"])
        assert rules_hit(result) == ["R6"]
        assert "SimStats" in result.findings[0].message

    def test_private_backend_attribute_is_also_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/sys.py": """\
            def peek(self, address):
                return self.device._backend.read_block(address)
        """}, rules=["R6"])
        assert len(result.findings) == 1

    def test_device_itself_and_attacker_are_exempt(self, tmp_path):
        source = """\
            def access(self, address):
                return self._backend.read_block(address)
        """
        result = run_lint(tmp_path, {
            "repro/mem/nvm.py": source,
            "repro/attacks/splice.py": source,
        }, rules=["R6"])
        assert result.findings == []

    def test_accounted_device_calls_are_fine(self, tmp_path):
        result = run_lint(tmp_path, {"repro/secure/ctrl.py": """\
            def flush(self, address, data):
                self.nvm.write(address, data)
        """}, rules=["R6"])
        assert result.findings == []


class TestSuppressions:
    def test_same_line_disable_moves_finding_to_suppressed(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: disable=R1\n"}, rules=["R1"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["R1"]
        assert result.exit_code == 0

    def test_disable_next_line(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/clock.py": """\
            # reprolint: disable-next-line=R1
            import time
        """}, rules=["R1"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_suppression_is_per_rule(self, tmp_path):
        # An R4 disable does not silence R1 on the same line.
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: disable=R4\n"}, rules=["R1"])
        assert [f.rule for f in result.findings] == ["R1"]

    def test_multi_rule_disable_list(self, tmp_path):
        result = run_lint(tmp_path, {"repro/core/timing.py": """\
            def f(n):
                return n * 500  # reprolint: disable=R5,R2
        """}, rules=["R5"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_suppressed_findings_still_reported(self, tmp_path):
        result = run_lint(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: disable=R1\n"}, rules=["R1"])
        assert "(suppressed)" in result.suppressed[0].format()


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        target = tmp_path / "repro" / "core" / "clock.py"
        target.write_text("import time\n")
        assert main([str(target), "--root", str(tmp_path)]) == 1
        target.write_text("x = 1\n")
        assert main([str(target), "--root", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_human_output_names_rule_and_location(self, tmp_path, capsys):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        target = tmp_path / "repro" / "core" / "clock.py"
        target.write_text("import time\n")
        main([str(target), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert "repro/core/clock.py:1:1: R1:" in out
        assert "1 finding(s)" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "clock.py").write_text("import time\n")
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == payload["exit_code"] == 1
        assert payload["findings"][0]["rule"] == "R1"
        assert payload["findings"][0]["line"] == 1

    def test_rules_flag_restricts_the_run(self, tmp_path, capsys):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "clock.py").write_text("import time\n")
        assert main([str(tmp_path), "--root", str(tmp_path),
                     "--rules", "r5"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out


class TestRepositoryIsClean:
    """The meta-tests: the linter's verdict on this repository itself."""

    @pytest.fixture(scope="class")
    def repo_result(self):
        return lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                          root=REPO_ROOT)

    def test_zero_findings(self, repo_result):
        assert repo_result.errors == []
        formatted = "\n".join(f.format() for f in repo_result.findings)
        assert repo_result.findings == [], f"reprolint found:\n{formatted}"

    def test_suppressions_confined_to_oracle_exemption(self, repo_result):
        # The differential oracle's compare-then-reraise handlers are the
        # only documented broad-except exemption in the tree.
        locations = {(f.path, f.rule) for f in repo_result.suppressed}
        assert locations <= {("src/repro/core/oracle.py", "R4")}, locations

    def test_whole_tree_was_actually_scanned(self, repo_result):
        assert repo_result.files_checked > 100


class TestTypingBaseline:
    """pyproject's strict set and mypy-baseline.txt must partition src/repro."""

    STRICT = {"repro.cache", "repro.campaigns", "repro.common",
              "repro.crypto", "repro.energy", "repro.metadata",
              "repro.sharding", "repro.stats", "repro.workloads"}

    @staticmethod
    def all_packages():
        src = REPO_ROOT / "src" / "repro"
        names = set()
        for entry in src.iterdir():
            if entry.is_dir() and (entry / "__init__.py").is_file():
                names.add(f"repro.{entry.name}")
            elif (entry.suffix == ".py"
                  and entry.stem not in ("__init__", "__main__")):
                names.add(f"repro.{entry.stem}")
        return names

    @staticmethod
    def baseline_packages():
        lines = (REPO_ROOT / "mypy-baseline.txt").read_text().splitlines()
        return {line.strip() for line in lines
                if line.strip() and not line.startswith("#")}

    def test_pyproject_strict_set_matches_contract(self):
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        files = config["tool"]["mypy"]["files"]
        assert {f.replace("src/", "").replace("/", ".")
                for f in files} == self.STRICT
        assert config["tool"]["mypy"]["strict"] is True

    def test_baseline_and_strict_set_partition_the_tree(self):
        baseline = self.baseline_packages()
        assert baseline & self.STRICT == set(), \
            "a strict package may not also appear in the baseline"
        assert baseline | self.STRICT == self.all_packages(), \
            "every src/repro package must be strict or baselined"

    def test_baseline_only_shrinks(self):
        # The seed of this contract: the packages baselined when the gate
        # landed.  Adding a line here is a typing regression by definition.
        initial = {
            "repro.attacks", "repro.cache", "repro.cli", "repro.core",
            "repro.energy", "repro.epd", "repro.experiments", "repro.faults",
            "repro.lint", "repro.mem", "repro.pmlib", "repro.secure",
            "repro.workloads",
        }
        assert self.baseline_packages() <= initial


class TestEnvironmentSurface:
    """The simulator reads exactly these environment variables.

    A new ``os.environ``/``os.getenv`` read under ``src/repro`` fails here,
    so adding a switch is a visible decision rather than a side effect.
    """

    EXPECTED = {"REPRO_ORACLE", "REPRO_CACHE_DIR", "REPRO_CODE_VERSION"}

    @staticmethod
    def _is_os_attr(node: ast.AST, attr: str) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "os")

    @classmethod
    def _key(cls, node: ast.AST) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return f"<non-literal key: {ast.unparse(node)}>"

    @classmethod
    def environment_reads(cls, tree: ast.AST) -> set[str]:
        keys = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in ("get", "setdefault")
                        and cls._is_os_attr(func.value, "environ")) \
                        or cls._is_os_attr(func, "getenv"):
                    keys.add(cls._key(node.args[0]))
            elif (isinstance(node, ast.Subscript)
                  and cls._is_os_attr(node.value, "environ")):
                keys.add(cls._key(node.slice))
        return keys

    def test_reads_are_exactly_the_documented_set(self):
        keys = set()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            keys |= self.environment_reads(ast.parse(path.read_text()))
        assert keys == self.EXPECTED

    def test_every_read_form_is_collected(self):
        tree = ast.parse(textwrap.dedent("""\
            import os
            os.environ.get("A")
            os.environ["B"]
            os.environ.setdefault("C", "1")
            os.getenv("D")
            os.environ.get(name)
        """))
        assert self.environment_reads(tree) == {
            "A", "B", "C", "D", "<non-literal key: name>"}


class TestNumpyBoundary:
    """Only ``crypto/arena.py`` imports numpy.  Everything else reaches the
    lanes through ``arena._np``, so setting that one handle to ``None`` is
    exactly a numpy-less install."""

    @staticmethod
    def numpy_imports(tree: ast.AST) -> list[str]:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names
                          if alias.name.split(".")[0] == "numpy"]
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "numpy"):
                found.append(node.module)
        return found

    def test_only_the_arena_imports_numpy(self):
        importers = {
            path.relative_to(REPO_ROOT).as_posix()
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            if self.numpy_imports(ast.parse(path.read_text()))}
        assert importers == {"src/repro/crypto/arena.py"}

    def test_every_import_form_is_collected(self):
        tree = ast.parse(textwrap.dedent("""\
            import numpy
            import numpy.linalg as la
            from numpy import uint64
            import numbers
        """))
        assert self.numpy_imports(tree) == ["numpy", "numpy.linalg", "numpy"]

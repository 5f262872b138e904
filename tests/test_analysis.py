"""Tests for the determinism/aliasing static-analysis suite and sanitizer.

Each REP rule gets a violating fixture snippet (must fire) and a clean
counterpart (must stay silent); suppression comments, both reporters,
the CLI entry points, and the runtime payload sanitizer are covered
alongside.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Cluster
from repro.__main__ import main
from repro.analysis import lint_paths, lint_source
from repro.cluster.network import MessageClass
from repro.cluster.sanitizer import (
    sanitized,
    sanitizer_disable,
    sanitizer_enable,
    sanitizer_enabled,
)
from repro.errors import (
    AnalysisError,
    NetworkError,
    ReproError,
    UnknownKeyError,
    ValidationError,
)


def codes_of(source: str) -> list[str]:
    diagnostics, _ = lint_source(source, "snippet.py")
    return [d.code for d in diagnostics]


class TestRep001UnseededRandomness:
    def test_unseeded_default_rng_fires(self):
        assert codes_of("import numpy as np\nrng = np.random.default_rng()\n") == [
            "REP001"
        ]

    def test_seeded_default_rng_is_clean(self):
        assert codes_of("import numpy as np\nrng = np.random.default_rng(7)\n") == []

    def test_global_numpy_state_fires(self):
        assert codes_of("import numpy as np\nx = np.random.randint(0, 5)\n") == [
            "REP001"
        ]
        assert codes_of("import numpy as np\nnp.random.seed(0)\n") == ["REP001"]

    def test_stdlib_random_module_fires(self):
        assert codes_of("import random\nx = random.random()\n") == ["REP001"]
        assert codes_of("import random\nr = random.Random()\n") == ["REP001"]

    def test_seeded_stdlib_random_instance_is_clean(self):
        assert codes_of("import random\nr = random.Random(13)\n") == []


class TestRep002WallClockAndSetOrder:
    def test_time_call_fires(self):
        assert codes_of("import time\nt = time.perf_counter()\n") == ["REP002"]
        assert codes_of("import time\nt = time.time()\n") == ["REP002"]

    def test_from_import_clock_fires(self):
        source = "from time import perf_counter\nt = perf_counter()\n"
        assert codes_of(source) == ["REP002"]

    def test_timing_and_perf_modules_are_exempt(self):
        """Only ``repro/timing`` may read the clock."""
        source = "import time\nt = time.perf_counter()\n"
        diagnostics, _ = lint_source(source, "src/repro/timing/profile.py")
        assert diagnostics == []
        diagnostics, _ = lint_source(source, "src/repro/perf/bench.py")
        assert [d.code for d in diagnostics] == ["REP002"]

    def test_set_iteration_feeding_send_fires(self):
        source = (
            "def scatter(net, nodes):\n"
            "    for dst in set(nodes):\n"
            "        net.send(0, dst, None, 1.0)\n"
        )
        assert codes_of(source) == ["REP002"]

    def test_set_iteration_without_network_state_is_clean(self):
        source = "def f(nodes):\n    for dst in set(nodes):\n        print(dst)\n"
        assert codes_of(source) == []

    def test_sorted_set_iteration_is_clean(self):
        source = (
            "def scatter(net, nodes):\n"
            "    for dst in sorted(set(nodes)):\n"
            "        net.send(0, dst, None, 1.0)\n"
        )
        assert codes_of(source) == []


class TestRep003SendLaneBypass:
    def test_private_inbox_access_fires(self):
        source = "def sneak(net, msg):\n    net._inboxes[0].append(msg)\n"
        assert codes_of(source) == ["REP003"]

    def test_own_phase_lanes_attribute_is_clean(self):
        source = (
            "class Profile:\n"
            "    def end_phase(self):\n"
            "        self._phase_lanes = None\n"
        )
        assert codes_of(source) == []


class TestRep004BareBuiltinRaise:
    def test_bare_value_error_fires(self):
        assert codes_of("def f():\n    raise ValueError('bad')\n") == ["REP004"]

    def test_bare_exception_class_fires(self):
        assert codes_of("def f():\n    raise Exception\n") == ["REP004"]

    def test_hierarchy_raise_is_clean(self):
        source = (
            "from repro.errors import ValidationError\n"
            "def f():\n    raise ValidationError('bad')\n"
        )
        assert codes_of(source) == []

    def test_not_implemented_and_reraise_are_clean(self):
        source = (
            "def f():\n    raise NotImplementedError\n"
            "def g():\n"
            "    try:\n        pass\n"
            "    except KeyError:\n        raise\n"
        )
        assert codes_of(source) == []

    def test_dual_inheritance_keeps_builtin_catches_working(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(UnknownKeyError, KeyError)
        assert issubclass(UnknownKeyError, ReproError)


class TestRep005WriteAfterSend:
    def test_subscript_store_after_send_fires(self):
        source = (
            "def f(net, buf):\n"
            "    net.send(0, 1, None, 8.0, payload=buf)\n"
            "    buf[0] = 9\n"
        )
        assert codes_of(source) == ["REP005"]

    def test_positional_payload_fires(self):
        source = (
            "def f(net, cat, buf):\n"
            "    net.send(0, 1, cat, 8.0, buf)\n"
            "    buf += 1\n"
        )
        assert codes_of(source) == ["REP005"]

    def test_inplace_method_after_send_fires(self):
        source = (
            "def f(net, buf):\n"
            "    net.send(0, 1, None, 8.0, payload=buf)\n"
            "    buf.sort()\n"
        )
        assert codes_of(source) == ["REP005"]

    def test_out_kwarg_after_send_fires(self):
        source = (
            "import numpy as np\n"
            "def f(net, buf, other):\n"
            "    net.send(0, 1, None, 8.0, payload=buf)\n"
            "    np.add(other, 1, out=buf)\n"
        )
        assert codes_of(source) == ["REP005"]

    def test_rebind_then_mutate_is_clean(self):
        source = (
            "def f(net, buf):\n"
            "    net.send(0, 1, None, 8.0, payload=buf)\n"
            "    buf = buf.copy()\n"
            "    buf[0] = 9\n"
        )
        assert codes_of(source) == []


class TestRep006SwallowedException:
    def test_bare_except_pass_fires(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except:\n        pass\n"
        )
        assert codes_of(source) == ["REP006"]

    def test_blanket_exception_without_reraise_fires(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except Exception as exc:\n        log(exc)\n"
        )
        assert codes_of(source) == ["REP006"]

    def test_base_exception_in_tuple_fires(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except (KeyError, BaseException):\n        cleanup()\n"
        )
        assert codes_of(source) == ["REP006"]

    def test_reraise_is_clean(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except BaseException:\n"
            "        cleanup()\n        raise\n"
        )
        assert codes_of(source) == []

    def test_raise_from_wrapping_is_clean(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except Exception as exc:\n"
            "        raise ReproError('wrapped') from exc\n"
        )
        assert codes_of(source) == []

    def test_narrow_handler_is_clean(self):
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except (ValueError, KeyError):\n        pass\n"
        )
        assert codes_of(source) == []

    def test_conditional_reraise_is_clean(self):
        """A re-raise anywhere in the handler body counts, even nested."""
        source = (
            "def f():\n"
            "    try:\n        work()\n"
            "    except Exception as exc:\n"
            "        if fatal(exc):\n            raise\n"
        )
        assert codes_of(source) == []

    def test_mutation_before_send_is_clean(self):
        source = (
            "def f(net, buf):\n"
            "    buf[0] = 9\n"
            "    net.send(0, 1, None, 8.0, payload=buf)\n"
        )
        assert codes_of(source) == []


class TestSuppression:
    def test_matching_code_suppresses_and_is_counted(self):
        source = "def f():\n    raise ValueError('x')  # repro: noqa[REP004]\n"
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1

    def test_non_matching_code_does_not_suppress(self):
        source = "def f():\n    raise ValueError('x')  # repro: noqa[REP001]\n"
        diagnostics, _ = lint_source(source, "snippet.py")
        assert [d.code for d in diagnostics] == ["REP004"]

    def test_blanket_noqa_suppresses_everything(self):
        source = "def f():\n    raise ValueError('x')  # repro: noqa\n"
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1

    def test_multi_code_list(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa[REP001,REP005]\n"
        )
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1


class TestEngineAndReporters:
    def test_diagnostic_render_format(self):
        source = "def f():\n    raise ValueError('x')\n"
        diagnostics, _ = lint_source(source, "pkg/mod.py")
        assert len(diagnostics) == 1
        rendered = diagnostics[0].render()
        assert rendered.startswith("pkg/mod.py:2: REP004 ")

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        report = lint_paths([tmp_path])
        assert report.files_scanned == 2
        assert [d.code for d in report.diagnostics] == ["REP002"]
        assert not report.clean
        assert report.by_code() == {"REP002": 1}

    def test_json_reporter_shape(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f():\n    raise ValueError('x')\n")
        report = lint_paths([tmp_path])
        payload = json.loads(report.render_json())
        assert payload["diagnostics"] == 1
        assert payload["by_code"] == {"REP004": 1}
        assert payload["rules"] == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        ]
        assert payload["findings"][0]["code"] == "REP004"
        assert payload["findings"][0]["line"] == 2

    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            lint_source("def f(:\n", "broken.py")

    def test_missing_target_raises(self):
        with pytest.raises(AnalysisError):
            lint_paths(["no/such/path.py"])


class TestCli:
    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out

    def test_lint_json_format(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_lint_bad_option_exits_2(self, tmp_path, capsys):
        assert main(["lint", "format=yaml"]) == 2
        assert main(["lint", "frmat=json"]) == 2

    def test_malformed_experiment_option_exits_2(self, capsys):
        assert main(["fig3", "bogus-token"]) == 2
        err = capsys.readouterr().err
        assert "bogus-token" in err

    def test_unknown_experiment_still_exits_2(self, capsys):
        assert main(["no-such-experiment"]) == 2

    @pytest.mark.parametrize(
        "command, accepted",
        [
            ("fig3", "scaled_tuples"),
            ("table1", "scale_denominator"),
            ("list", "workers"),
        ],
    )
    def test_unknown_experiment_option_exits_2(self, command, accepted, capsys):
        """Unknown key=value options are rejected before anything runs."""
        assert main([command, "bogus=1"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err and accepted in captured.err
        assert captured.out == ""


class TestSanitizer:
    def _run_write_after_send(self):
        cluster = Cluster(4)

        def bad_task(node):
            buf = np.arange(8, dtype=np.int64)
            cluster.network.send(
                node, (node + 1) % 4, MessageClass.R_TUPLES, 8.0, payload=buf
            )
            buf[0] = 99  # deliberate write-after-send aliasing bug
            return node

        cluster.run_phase(bad_task)
        for node in range(4):
            cluster.network.deliver(node)

    def test_write_after_send_raises_when_sanitized(self):
        with sanitized():
            with pytest.raises(ValueError, match="read-only"):
                self._run_write_after_send()

    def test_write_after_send_is_silent_without_sanitizer(self):
        # Unwind every outstanding enable (the session-wide conftest one
        # included) to observe the unprotected behaviour, then restore.
        unwound = 0
        while sanitizer_enabled():
            sanitizer_disable()
            unwound += 1
        try:
            self._run_write_after_send()  # the latent bug passes silently
        finally:
            for _ in range(unwound):
                sanitizer_enable()

    def test_payload_thaws_at_barrier(self):
        cluster = Cluster(2)
        payloads = []

        def task(node):
            buf = np.arange(4, dtype=np.int64)
            payloads.append(buf)
            cluster.network.send(node, 1 - node, MessageClass.R_TUPLES, 4.0, payload=buf)

        with sanitized():
            cluster.run_phase(task)
            for buf in payloads:
                assert buf.flags.writeable  # barrier committed: thawed
            for node in range(2):
                cluster.network.deliver(node)

    def test_partition_payload_views_and_bases_freeze(self):
        cluster = Cluster(2)
        caught = []

        def task(node):
            if node != 0:
                return
            from repro.storage.table import LocalPartition

            part = LocalPartition(
                keys=np.arange(6, dtype=np.int64),
                columns={"rid": np.arange(6, dtype=np.int64)},
            )
            batches = part.split_by(np.array([0, 1, 0, 1, 0, 1]), 2)
            cluster.network.send_batches(0, MessageClass.R_TUPLES, batches, 8.0)
            for batch in batches:
                try:
                    batch.keys[0] = 7
                except ValueError:
                    caught.append(batch)

        with sanitized():
            cluster.run_phase(task)
            for node in range(2):
                cluster.network.deliver(node)
        assert len(caught) == 2

    def test_out_of_phase_sends_stay_writable(self):
        """A send outside a phase raises before anything is frozen, so
        no payload is left read-only with no barrier to thaw it."""
        cluster = Cluster(2)
        buf = np.arange(4, dtype=np.int64)
        with sanitized():
            with pytest.raises(NetworkError):
                cluster.network.send(0, 1, MessageClass.R_TUPLES, 4.0, payload=buf)
            buf[0] = 5
        assert cluster.network.pending_messages() == 0

    def test_enable_is_reference_counted(self):
        baseline = sanitizer_enabled()
        sanitizer_enable()
        sanitizer_enable()
        sanitizer_disable()
        assert sanitizer_enabled()
        sanitizer_disable()
        assert sanitizer_enabled() == baseline

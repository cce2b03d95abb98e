"""Tests for the static-analysis subsystem: `repro lint` and the plan verifier.

Level 1: each lint rule fires exactly once on a known-bad fixture snippet
(including the aliased-import env read the old grep guard could not see),
baseline suppression round-trips, and the real tree lints clean through the
CLI.  Level 2: compiled plans for the whole operator library pass static
verification, and targeted corruptions (wrong einsum subscript, out-of-bounds
gather index, dropped backward recipe, broken transpose) each raise a
:class:`PlanVerificationError` naming the offending step.
"""

from __future__ import annotations

import json
import random
import re
import textwrap

import numpy as np
import pytest

from repro.analysis import (
    LintEngine,
    apply_baseline,
    collect_modules,
    load_baseline,
    make_rules,
    save_baseline,
)
from repro.analysis.plan_verifier import PlanVerificationError, verify_plan
from repro.cli.main import main
from repro.codegen.plan import (
    ContractionStep,
    TransposeStep,
    UnfoldStep,
    cached_plan,
    compile_plan,
)
from repro.core.library import (
    BLOCK,
    C_IN,
    C_OUT,
    GROUPS,
    H,
    K,
    K1,
    LIBRARY,
    M,
    N,
    OUT_FEATURES,
    POOL,
    SHRINK,
    W,
    build_conv2d,
    build_operator1,
)
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.enumeration import default_options_for
from repro.core.library import matmul_spec
from repro.nn.layers import default_rng, seed_all
from repro.nn.tensor import Tensor
from repro.runtime import RuntimeConfig, RuntimeContext, current

CONV_BINDING = {N: 2, C_IN: 8, C_OUT: 8, H: 6, W: 6, K1: 3, GROUPS: 4, SHRINK: 2}
LIBRARY_BINDINGS = {
    "matmul": {M: 4, K: 6, OUT_FEATURES: 6, GROUPS: 2},
    "conv2d": CONV_BINDING,
    "avgpool1d": {H: 12, POOL: 3, BLOCK: 2},
    "pixelshuffle": {H: 12, POOL: 3, BLOCK: 2},
    "operator1": CONV_BINDING,
    "operator2": CONV_BINDING,
    "shift_conv": CONV_BINDING,
    "grouped_projection": {M: 4, K: 6, OUT_FEATURES: 6, GROUPS: 2},
}


# ---------------------------------------------------------------------------
# Level 1: the lint engine
# ---------------------------------------------------------------------------


def lint_fixture(tmp_path, relpath: str, source: str, rules=None):
    """Lint one fixture file placed at ``relpath`` under a fake tree root."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    modules = collect_modules([path], tmp_path)
    return LintEngine(make_rules(rules)).run(modules)


class TestEnvConfinementRule:
    def test_aliased_environ_read_fires_once_and_grep_misses_it(self, tmp_path):
        # The exact pattern the old `grep 'os\.(environ|getenv)'` guard in
        # scripts/check.sh could not see: the module never spells "os.environ".
        source = """\
            from os import environ as env_table

            def smoke_enabled() -> bool:
                return bool(env_table.get("REPRO_SMOKE"))
        """
        assert re.search(r"os\.(environ|getenv)", textwrap.dedent(source)) is None
        findings = lint_fixture(tmp_path, "repro/search/bad_env.py", source)
        assert len(findings) == 1
        assert findings[0].rule == "env-confinement"
        assert findings[0].key == "REPRO_SMOKE"
        assert "REPRO_SMOKE" in findings[0].message

    def test_aliased_subscript_read(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/cli/bad.py",
            """\
            from os import environ

            SEED = environ["REPRO_SEED"]
            """,
            rules=["env-confinement"],
        )
        assert [f.key for f in findings] == ["REPRO_SEED"]

    def test_computed_key_is_flagged(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/computed.py",
            """\
            import os

            def knob(name: str):
                return os.environ.get("REPRO_" + name)
            """,
            rules=["env-confinement"],
        )
        assert len(findings) == 1
        assert "computed key" in findings[0].message

    def test_non_repro_reads_and_runtime_dir_are_exempt(self, tmp_path):
        clean = """\
            import os

            HOME = os.getenv("HOME")
        """
        assert lint_fixture(tmp_path, "repro/search/clean.py", clean,
                            rules=["env-confinement"]) == []
        confined = """\
            import os

            def from_env():
                return os.environ.get("REPRO_SMOKE")
        """
        assert lint_fixture(tmp_path, "repro/runtime/config2.py", confined,
                            rules=["env-confinement"]) == []

    def test_environment_writes_are_not_reads(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/experiments/writer.py",
            """\
            import os

            def pin(name, value):
                os.environ[name] = value
            """,
            rules=["env-confinement"],
        )
        assert findings == []


class TestMutableGlobalRule:
    def test_empty_dict_fires_once(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/stateful.py",
            "_CACHE = {}\n",
            rules=["mutable-global"],
        )
        assert len(findings) == 1
        assert findings[0].key == "_CACHE"

    def test_constant_table_and_runtime_dir_are_exempt(self, tmp_path):
        assert lint_fixture(
            tmp_path,
            "repro/core/tables.py",
            'REGISTRY = {"a": 1}\n',
            rules=["mutable-global"],
        ) == []
        assert lint_fixture(
            tmp_path,
            "repro/runtime/owned.py",
            "_CACHE = {}\n",
            rules=["mutable-global"],
        ) == []

    def test_mutable_factory_call(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/counters.py",
            """\
            import itertools

            _IDS = itertools.count()
            """,
            rules=["mutable-global"],
        )
        assert [f.key for f in findings] == ["_IDS"]

    def test_global_statement_fires_once(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/rebinder.py",
            """\
            _MODE = None

            def set_mode(mode):
                global _MODE
                _MODE = mode
            """,
            rules=["mutable-global"],
        )
        assert [f.key for f in findings] == ["global:_MODE"]


class TestNondeterminismRule:
    def test_global_random_call_fires_once(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/rand.py",
            """\
            import random

            def pick(items):
                return random.choice(items)
            """,
            rules=["nondeterminism"],
        )
        assert [f.key for f in findings] == ["random.choice"]

    def test_unseeded_default_rng_flagged_seeded_allowed(self, tmp_path):
        source = """\
            import numpy as np

            def fresh():
                return np.random.default_rng()

            def pinned():
                return np.random.default_rng(0)
        """
        findings = lint_fixture(tmp_path, "repro/nn/rngs.py", source,
                                rules=["nondeterminism"])
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_wall_clock_only_in_sensitive_paths(self, tmp_path):
        source = """\
            import time

            def stamp():
                return time.time()
        """
        flagged = lint_fixture(tmp_path, "repro/search/clock.py", source,
                               rules=["nondeterminism"])
        assert [f.key for f in flagged] == ["time.time"]
        # cli/ may legitimately timestamp records.
        assert lint_fixture(tmp_path, "repro/cli/clock.py", source,
                            rules=["nondeterminism"]) == []

    def test_set_iteration_flagged_sorted_allowed(self, tmp_path):
        source = """\
            def keys(items):
                return list(set(items))

            def stable(items):
                return sorted(set(items))
        """
        findings = lint_fixture(tmp_path, "repro/results/keys.py", source,
                                rules=["nondeterminism"])
        assert len(findings) == 1
        assert findings[0].key == "list(set)"


class TestRuntimeThreadingRule:
    def test_dropped_runtime_fires_once(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/threading.py",
            """\
            def callee(x, runtime=None):
                return x

            def caller(x, runtime=None):
                return callee(x)
            """,
            rules=["runtime-threading"],
        )
        assert len(findings) == 1
        assert findings[0].key == "caller->callee"

    def test_forwarding_is_clean(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/threading_ok.py",
            """\
            def callee(x, runtime=None):
                return x

            def by_keyword(x, runtime=None):
                return callee(x, runtime=runtime)

            def by_attribute(self_like, x, runtime=None):
                return callee(x, runtime=self_like.runtime)

            def by_kwargs(x, runtime=None, **kwargs):
                return callee(x, **kwargs)
            """,
            rules=["runtime-threading"],
        )
        assert findings == []

    def test_ambiguous_names_are_dropped(self, tmp_path):
        # `helper` is also defined *without* a runtime parameter elsewhere, so
        # calls to it cannot be attributed reliably and must not be flagged.
        findings = lint_fixture(
            tmp_path,
            "repro/search/ambiguous.py",
            """\
            def helper(x, runtime=None):
                return x

            class Other:
                def helper(self, x):
                    return x

            def caller(x, runtime=None):
                return helper(x)
            """,
            rules=["runtime-threading"],
        )
        assert findings == []


class TestExceptionHygieneRule:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/swallow.py",
            """\
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            rules=["exception-hygiene"],
        )
        assert len(findings) == 1
        assert findings[0].key == "bare:load"
        assert "SystemExit" in findings[0].message

    def test_silent_broad_handler_fires(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/silent.py",
            """\
            def publish(store, entries):
                try:
                    store.write(entries)
                except Exception:
                    pass
            """,
            rules=["exception-hygiene"],
        )
        assert [f.key for f in findings] == ["silent:publish"]

    def test_broad_handler_in_a_tuple_fires(self, tmp_path):
        findings = lint_fixture(
            tmp_path,
            "repro/search/tupled.py",
            """\
            def probe(fn):
                try:
                    fn()
                except (ValueError, BaseException):
                    ...
            """,
            rules=["exception-hygiene"],
        )
        assert len(findings) == 1
        assert "BaseException" in findings[0].message

    def test_handled_broad_and_narrow_silent_handlers_are_fine(self, tmp_path):
        source = """\
            import logging

            log = logging.getLogger(__name__)

            def tolerant(fn):
                try:
                    return fn()
                except Exception as exc:
                    log.warning("fn failed: %s", exc)
                    return None

            def narrow(path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            """
        assert lint_fixture(tmp_path, "repro/search/fine.py", source,
                            rules=["exception-hygiene"]) == []

    def test_key_names_the_enclosing_scope(self, tmp_path):
        # Same shape in two functions → two distinct baseline keys, and
        # line churn does not change either of them.
        source = """\
            def first(fn):
                try:
                    fn()
                except Exception:
                    pass

            def second(fn):
                try:
                    fn()
                except Exception:
                    pass
            """
        findings = lint_fixture(tmp_path, "repro/search/twice.py", source,
                                rules=["exception-hygiene"])
        assert {f.key for f in findings} == {"silent:first", "silent:second"}


class TestBaseline:
    def test_round_trip_and_stale_detection(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/search/stateful.py", "_CACHE = {}\n",
                                rules=["mutable-global"])
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.txt"
        save_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert baseline == {findings[0].baseline_key()}

        new, suppressed, stale = apply_baseline(findings, baseline)
        assert new == [] and len(suppressed) == 1 and stale == []

        # Once the finding is fixed, its baseline entry must surface as stale.
        new, suppressed, stale = apply_baseline([], baseline)
        assert new == [] and suppressed == [] and stale == [findings[0].baseline_key()]

    def test_keys_are_line_number_free(self, tmp_path):
        shifted = "\n\n\n_CACHE = {}\n"
        first = lint_fixture(tmp_path, "repro/search/a.py", "_CACHE = {}\n",
                             rules=["mutable-global"])
        second = lint_fixture(tmp_path, "repro/search/a.py", shifted,
                              rules=["mutable-global"])
        assert first[0].line != second[0].line
        assert first[0].baseline_key() == second[0].baseline_key()

    def test_unknown_rule_is_an_error(self):
        with pytest.raises(ValueError, match="unknown rule"):
            make_rules(["no-such-rule"])


class TestLintCli:
    def test_real_tree_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")

    def test_json_output_on_bad_fixture(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "search" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("_CACHE = {}\n", encoding="utf-8")
        code = main(
            ["lint", str(bad), "--json", "--baseline", str(tmp_path / "absent.txt")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["mutable-global"]
        assert payload["findings"][0]["key"] == "_CACHE"
        assert payload["stale_baseline"] == []

    def test_unknown_rule_exits_2_before_linting(self, capsys):
        """`--rule` is checked by the rule catalog, which only `repro lint` loads."""
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        captured = capsys.readouterr()
        assert "unknown rule 'no-such-rule'" in captured.err
        assert "nondeterminism" in captured.err  # the known rules are listed
        assert captured.out == ""

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "search" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("_CACHE = {}\n", encoding="utf-8")
        baseline = tmp_path / "baseline.txt"
        assert main(["lint", str(bad), "--write-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_config_shows_verify_plans_with_provenance(self, capsys):
        assert main(["config", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "verify_plans" in payload["runtime"]
        assert payload["provenance"]["verify_plans"] in ("default", "env", "explicit")


# ---------------------------------------------------------------------------
# Level 2: the plan verifier
# ---------------------------------------------------------------------------


class TestPlanVerifier:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_library_plans_verify(self, name):
        operator = LIBRARY[name]()
        plan = compile_plan(operator, LIBRARY_BINDINGS[name])
        verify_plan(plan)  # must not raise

    def test_wrong_einsum_subscript_names_the_step(self):
        plan = compile_plan(build_operator1(), CONV_BINDING)
        step = next(s for s in plan.steps if isinstance(s, ContractionStep))
        step.subscripts += "Z"  # output gains a label no operand carries
        with pytest.raises(PlanVerificationError) as err:
            verify_plan(plan)
        message = str(err.value)
        assert "Contract" in message and "step" in message
        assert "Z" in message

    def test_out_of_bounds_gather_index(self):
        plan = compile_plan(build_conv2d(), CONV_BINDING)
        step = next(s for s in plan.steps if isinstance(s, UnfoldStep))
        corrupted = np.array(step.gather).copy()
        corrupted[0] = 10_000
        step.gather = corrupted
        with pytest.raises(PlanVerificationError) as err:
            verify_plan(plan)
        message = str(err.value)
        assert "gather" in message and "Unfold" in message

    def test_dropped_backward_recipe(self):
        plan = compile_plan(build_operator1(), CONV_BINDING)
        step = next(s for s in plan.steps if isinstance(s, ContractionStep))
        position = next(p for p, (kind, _) in enumerate(step.operands) if kind == "weight")
        del step.backwards[position]
        with pytest.raises(PlanVerificationError) as err:
            verify_plan(plan)
        assert "no backward recipe" in str(err.value)

    def test_broken_transpose_order(self):
        plan = compile_plan(build_operator1(), CONV_BINDING)
        step = next(s for s in plan.steps if isinstance(s, TransposeStep))
        step.order = (0,) * len(step.order)
        with pytest.raises(PlanVerificationError) as err:
            verify_plan(plan)
        assert "not a permutation" in str(err.value)

    def test_output_shape_mismatch(self):
        plan = compile_plan(build_operator1(), CONV_BINDING)
        plan.output_shape = tuple(extent + 1 for extent in plan.output_shape)
        with pytest.raises(PlanVerificationError, match="declared output shape"):
            verify_plan(plan)


class TestVerifyPlansKnob:
    def test_env_parse_and_provenance(self):
        config = RuntimeConfig.from_env({"REPRO_VERIFY_PLANS": "1"})
        assert config.verify_plans is True
        assert config.provenance_map()["verify_plans"] == "env"
        assert RuntimeConfig.from_env({}).verify_plans is False

    def test_cached_plan_gates_verification(self, monkeypatch):
        import repro.analysis.plan_verifier as pv

        calls = []
        monkeypatch.setattr(pv, "verify_plan", lambda plan: calls.append(plan))
        operator = build_operator1()

        with current().isolated(verify_plans=False).activate():
            cached_plan(operator, CONV_BINDING)
        assert calls == []

        with current().isolated(verify_plans=True).activate():
            plan = cached_plan(operator, CONV_BINDING)
            assert calls == [plan]
            # Memoized: a second lookup re-verifies nothing.
            cached_plan(operator, CONV_BINDING)
        assert calls == [plan]


# ---------------------------------------------------------------------------
# RNG threading (the nondeterminism findings fixed in this change)
# ---------------------------------------------------------------------------


class TestContextRngThreading:
    def test_seed_all_makes_randn_reproducible(self):
        seed_all(123)
        a = Tensor.randn((4, 3))
        seed_all(123)
        b = Tensor.randn((4, 3))
        np.testing.assert_array_equal(a.data, b.data)

    def test_default_rng_is_context_owned(self):
        context = RuntimeContext(current().config.with_overrides(seed=99))
        with context.activate():
            assert default_rng() is context.param_rng
            first = default_rng().normal(size=3)
        fresh = np.random.default_rng(99).normal(size=3)
        np.testing.assert_array_equal(first, fresh)

    def test_contexts_have_independent_param_streams(self):
        one = RuntimeContext(current().config.with_overrides(seed=7))
        two = RuntimeContext(current().config.with_overrides(seed=7))
        with one.activate():
            draw_one = Tensor.randn((5,)).data
        with two.activate():
            draw_two = Tensor.randn((5,)).data
        np.testing.assert_array_equal(draw_one, draw_two)

    def test_mcts_inherits_context_seed(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = default_options_for(spec, coefficients=[], max_depth=3)
        context = RuntimeContext(current().config.with_overrides(seed=41))
        with context.activate():
            inherited = MCTS(spec=spec, options=options, reward_fn=lambda op: 0.0,
                             config=MCTSConfig(seed=None))
        explicit = MCTS(spec=spec, options=options, reward_fn=lambda op: 0.0,
                        config=MCTSConfig(seed=41))
        assert inherited._rng.random() == explicit._rng.random()

    def test_explicit_seed_still_wins(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = default_options_for(spec, coefficients=[], max_depth=3)
        context = RuntimeContext(current().config.with_overrides(seed=41))
        with context.activate():
            search = MCTS(spec=spec, options=options, reward_fn=lambda op: 0.0,
                          config=MCTSConfig(seed=5))
        assert search._rng.random() == random.Random(5).random()

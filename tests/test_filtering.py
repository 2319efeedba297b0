from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ded.filtering import (FilterConfig, FilterError, check_format, check_length,
                           extract_final_answer, normalize_answer, rule_verify,
                           run_quality_gate)

from conftest import make_question, make_trajectory, well_formed_text


def _traj(text: str, token_len: int | None = 100):
    q = make_question(0)
    return make_trajectory(q, 0, text, token_len=token_len)


def _format(text: str):
    """check_format's verdict on text under the default config."""
    return check_format(_traj(text), FilterConfig())


class TestCheckFormat:
    def test_well_formed_passes(self):
        assert _format("<think>steps</think>The answer is 7") is None

    def test_unclosed_tag(self):
        verdict = _format("<think>steps")
        assert verdict.status == "malformed_format"
        assert verdict.detail == "unclosed think tag"

    def test_multiple_pairs(self):
        verdict = _format("<think>a</think><think>b</think>x")
        assert verdict.status == "malformed_format"
        assert verdict.detail == "multiple think pairs"

    def test_missing_pair(self):
        assert _format("no tags at all").detail == "missing think pair"

    def test_closer_before_opener(self):
        assert _format("</think>x<think>y").detail == "think closer precedes opener"

    # the details the tests above leave out, and a later pair out of order
    @pytest.mark.parametrize("text,single,detail", [
        ("<think>a</think>b</think>x", False, "unopened think closer"),
        ("<think>a<think>b</think>c</think>x", False, "nested think pair"),
        ("<think>a</think>b</think><think>c<think>d</think>x", False,
         "think closer precedes opener"),
    ])
    def test_each_detail(self, text, single, detail):
        config = FilterConfig(require_single_think_pair=single)
        assert check_format(_traj(text), config).detail == detail

    def test_no_answer_after_close(self):
        assert _format("<think>a</think>   ").detail == "no answer after think block"

    def test_relaxed_mode_allows_multiple_pairs(self):
        config = FilterConfig(require_single_think_pair=False)
        assert check_format(_traj("<think>a</think><think>b</think>x"), config) is None
        assert check_format(_traj("<think>a</think><think>b"), config).status == "malformed_format"


class TestCheckLength:
    def test_boundary_is_inclusive(self):
        config = FilterConfig()
        assert check_length(_traj("x", token_len=16384), config) is None

    def test_strictly_over_fails(self):
        config = FilterConfig()
        verdict = check_length(_traj("x", token_len=16385), config)
        assert verdict.status == "overlength"
        assert verdict.checker == "length"

    def test_fallback_estimator(self):
        config = FilterConfig()
        t = _traj("a" * 40000, token_len=None)
        assert check_length(t, config) is None  # 40000 / 4 = 10000 tokens
        t = _traj("a" * 65537, token_len=None)
        verdict = check_length(t, config)
        assert verdict.status == "overlength"
        assert "estimated" in verdict.detail

    def test_precomputed_only_errors_on_missing(self):
        config = FilterConfig(token_estimator="precomputed_only")
        t = _traj("abc", token_len=None)
        with pytest.raises(FilterError) as err:
            check_length(t, config)
        assert t.trajectory_id in str(err.value)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_monotone_in_threshold(self, lo, hi):
        lo, hi = sorted((lo, hi))
        t = _traj("x", token_len=100)
        low_pass = check_length(t, FilterConfig(max_token_len=lo)) is None
        high_pass = check_length(t, FilterConfig(max_token_len=hi)) is None
        assert not low_pass or high_pass


class TestExtraction:
    def test_simple(self):
        assert extract_final_answer("<think>s</think>Thus \\boxed{42}.") == "42"

    def test_nested_braces(self):
        text = "<think>s</think>\\boxed{\\frac{1}{2}}"
        assert extract_final_answer(text) == "\\frac{1}{2}"

    def test_space_before_the_brace(self):
        assert extract_final_answer("<think>s</think>Thus \\boxed {42}.") == "42"

    def test_absent(self):
        assert extract_final_answer("<think>s</think>no box") is None

    def test_takes_last(self):
        text = "<think>s</think>maybe \\boxed{1}; final \\boxed{2}"
        assert extract_final_answer(text) == "2"

    def test_unbalanced_is_failure(self):
        assert extract_final_answer("<think>s</think>\\boxed{1 + {2") is None

    def test_ignores_boxed_inside_think(self):
        assert extract_final_answer("<think>\\boxed{9}</think>answer 3") is None


class TestRuleVerify:
    def test_decimal_equals_fraction(self):
        assert rule_verify("0.5", "1/2").status == "correct"

    def test_identity(self):
        assert rule_verify("42", "42").status == "correct"

    def test_inequality(self):
        assert rule_verify("41", "42").status == "incorrect"

    def test_frac_macro(self):
        assert rule_verify("\\frac{1}{2}", "1/2").status == "correct"
        assert rule_verify("\\frac{10}{20}", "0.5").status == "correct"

    def test_case_and_whitespace(self):
        assert rule_verify(" X + Y ", "x+y").status == "correct"

    def test_empty_inputs_error(self):
        with pytest.raises(FilterError):
            rule_verify("42", "")

    @pytest.mark.parametrize("answer", ["", "  "])
    def test_an_empty_answer_is_incorrect(self, answer):
        assert rule_verify(answer, "42").status == "incorrect"
        assert rule_verify(answer, " ").status == "incorrect"

    @given(st.text(alphabet="0123456789./+-abc \\{}", min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_normalization_is_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once

    @given(st.integers(-50, 50), st.integers(1, 20), st.integers(1, 5))
    def test_equivalent_rationals_normalize_identically(self, num, den, k):
        a = f"{num}/{den}"
        b = f"{num * k}/{den * k}"
        assert normalize_answer(a) == normalize_answer(b)
        assert rule_verify(a, b).status == "correct"
        # symmetry
        assert rule_verify(b, a).status == "correct"


class TestQualityGate:
    def test_planted_defect_counts(self, gate_fixture):
        questions, trajectories = gate_fixture
        result = run_quality_gate(trajectories, questions)
        assert result.counts == {"kept": 151, "rejected": 9, "needs_judge": 0}

    def test_partition_property(self, gate_fixture):
        questions, trajectories = gate_fixture
        result = run_quality_gate(trajectories, questions)
        all_ids = sorted(t.trajectory_id for t in trajectories)
        out_ids = sorted(t.trajectory_id for bucket in
                         (result.kept, result.rejected, result.needs_judge) for t in bucket)
        assert out_ids == all_ids

    def test_input_order_irrelevant(self, gate_fixture):
        questions, trajectories = gate_fixture
        shuffled = list(reversed(trajectories))
        a = run_quality_gate(trajectories, questions)
        b = run_quality_gate(shuffled, questions)
        assert a.kept == b.kept and a.rejected == b.rejected

    def test_all_valid_kept(self):
        q = make_question(1)
        trajectories = [make_trajectory(q, j, well_formed_text(q, j)) for j in range(4)]
        result = run_quality_gate(trajectories, [q])
        assert len(result.kept) == 4
        assert result.rejected == [] and result.needs_judge == []
        assert all(t.verdict.status == "correct" for t in result.kept)

    def test_an_empty_box_is_rejected_without_the_judge(self):
        q = make_question(1)
        empty, right = (make_trajectory(q, j, well_formed_text(q, j, answer=answer))
                        for j, answer in enumerate(["", q.ground_truth]))
        result = run_quality_gate([empty, right], [q])
        assert [t.trajectory_id for t in result.rejected] == [empty.trajectory_id]
        assert [t.trajectory_id for t in result.kept] == [right.trajectory_id]
        assert result.needs_judge == []
        verdict = result.rejected[0].verdict
        assert (verdict.status, verdict.checker) == ("incorrect", "rule")

    def test_dangling_question_errors(self):
        q = make_question(1)
        stray = make_trajectory(make_question(99), 0, "x")
        with pytest.raises(FilterError) as err:
            run_quality_gate([stray], [q])
        assert "q099" in str(err.value)

    def test_code_routes_to_judge(self):
        q = make_question(1, domain="code", gt="ref-payload")
        t = make_trajectory(q, 0, well_formed_text(q, 0, answer="anything"))
        result = run_quality_gate([t], [q])
        assert len(result.needs_judge) == 1
        assert result.needs_judge[0].verdict.status == "unverifiable"

    def test_math_without_ground_truth_routes_to_judge(self):
        q = make_question(1, gt="")
        q.ground_truth = None
        t = make_trajectory(q, 0, well_formed_text(q, 0, answer="5"))
        result = run_quality_gate([t], [q])
        assert len(result.needs_judge) == 1

    def test_no_boxed_answer_routes_to_judge(self):
        q = make_question(1)
        t = make_trajectory(q, 0, "<think>steps</think>The answer is seven.")
        result = run_quality_gate([t], [q])
        assert len(result.needs_judge) == 1
        assert "no boxed answer" in result.needs_judge[0].verdict.detail

    def test_a_boxed_without_a_brace_routes_to_judge(self):
        q = make_question(1, gt="42")
        text = "<think>steps</think>The answer is \\boxed 42."
        assert extract_final_answer(text) is None
        result = run_quality_gate([make_trajectory(q, 0, text)], [q])
        assert len(result.needs_judge) == 1
        assert "no boxed answer" in result.needs_judge[0].verdict.detail

    def test_gate_monotone_in_max_token_len(self, gate_fixture):
        questions, trajectories = gate_fixture
        kept_small = {t.trajectory_id for t in
                      run_quality_gate(trajectories, questions,
                                       FilterConfig(max_token_len=50)).kept}
        kept_large = {t.trajectory_id for t in
                      run_quality_gate(trajectories, questions,
                                       FilterConfig(max_token_len=20000)).kept}
        assert kept_small <= kept_large

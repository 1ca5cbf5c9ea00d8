"""Extended-real arithmetic and the shared container types."""

from __future__ import annotations

import json
import math
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import escores
import escores.core
from escores import (
    CalibrationSummary,
    InvalidInputError,
    LabeledResponseSet,
    Prompt,
    Response,
    ScoredResponseSet,
    SyntheticConfig,
    ext_sum,
    generate_dataset,
    write_dataset,
)
from escores.core import as_ext_real, as_unit_interval
from escores.scalar import as_label, as_unit_fraction

from helpers import make_labeled, make_scored

INF = math.inf


def test_public_surface() -> None:
    assert [name for name in escores.__all__ if not hasattr(escores, name)] == []
    namespace: dict = {}
    exec("from escores import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(escores.__all__)
    assert len(set(escores.__all__)) == len(escores.__all__)
    # retired names stay retired
    assert not hasattr(escores, "SubResponse")
    assert not hasattr(escores.core, "SubResponse")


def test_ext_add_and_sum() -> None:
    assert ext_sum([]) == 0.0
    assert ext_sum([2.0, 4.0]) == 6.0
    assert ext_sum([1.0, INF]) == INF


def test_ext_inputs_validated() -> None:
    with pytest.raises(InvalidInputError):
        ext_sum([-1.0, 2.0])
    with pytest.raises(InvalidInputError):
        ext_sum([1.0, float("nan")])
    with pytest.raises(InvalidInputError):
        as_ext_real("not a number")


def test_ext_inputs_beyond_float_range_are_invalid_input() -> None:
    with pytest.raises(InvalidInputError, match=r"^response estimate is too large for a float$"):
        escores.EstimateSource(response_estimate=10**400)
    with pytest.raises(InvalidInputError, match=r"^summand is too large for a float$"):
        ext_sum([1.0, Fraction(10**400, 3)])


def test_scalar_validators() -> None:
    assert as_label(0) == 0
    assert as_label(True) == 1
    with pytest.raises(InvalidInputError):
        as_label(2)
    assert as_unit_interval(1.0) == 1.0
    with pytest.raises(InvalidInputError):
        as_unit_interval(1.5)
    # decimal strings and floats both mean the exact decimal
    assert as_unit_fraction("0.1") == as_unit_fraction(0.1)
    assert as_unit_fraction("0.1").denominator == 10
    with pytest.raises(InvalidInputError):
        as_unit_fraction("7/5")
    with pytest.raises(InvalidInputError):
        as_unit_fraction(float("inf"))
    with pytest.raises(InvalidInputError):
        as_unit_fraction(True)


def test_prompt_validation() -> None:
    assert Prompt("p-1").id == "p-1"
    with pytest.raises(InvalidInputError):
        Prompt("")
    assert Prompt("é-\U0001F600").id == "é-\U0001F600"
    with pytest.raises(InvalidInputError, match=r"lone surrogate U\+DC00 at character 3;"):
        Prompt("é-\udc00")


def test_response_identity_and_validation() -> None:
    assert Response((1, 2)) == Response((1, 2))
    assert Response((1, 2)) != Response((2, 1))  # order is identity
    assert len(Response((3, 1))) == 2
    with pytest.raises(InvalidInputError):
        Response(())
    with pytest.raises(InvalidInputError):
        Response((1, 1))
    with pytest.raises(InvalidInputError):
        Response((0,))


def test_labeled_set_accessors_and_duplicates() -> None:
    labeled = make_labeled([1, 0, 1])
    assert labeled.labels == (1, 0, 1)
    assert labeled.correct_count() == 2
    assert [r.indices for r in labeled.incorrect_responses()] == [(2,)]
    with pytest.raises(InvalidInputError):
        type(labeled)(((Response((1,)), 1), (Response((1,)), 0)))
    with pytest.raises(InvalidInputError):
        type(labeled)(((Response((1,)), 2),))


def test_scored_set_rejects_bad_scores() -> None:
    scored = make_scored([0.5, INF])
    assert scored.scores == (0.5, INF)
    with pytest.raises(InvalidInputError):
        make_scored([-0.1])
    with pytest.raises(InvalidInputError):
        make_scored([float("nan")])
    with pytest.raises(InvalidInputError):
        ScoredResponseSet(((Response((1,)), 1.0), (Response((1,)), 2.0)))


def test_response_sets_name_their_entry_faults() -> None:
    one = Response((1,))
    with pytest.raises(InvalidInputError, match=r"^duplicate response in labeled set: \(1,\)$"):
        LabeledResponseSet(((one, 1), (Response((1,)), 0)))
    with pytest.raises(InvalidInputError, match=r"^duplicate response in scored set: \(1,\)$"):
        ScoredResponseSet(((one, 1.0), (Response((1,)), 2.0)))
    with pytest.raises(InvalidInputError, match=r"^expected Response, got \(1, 2\)$"):
        LabeledResponseSet((((1, 2), 0),))
    with pytest.raises(InvalidInputError, match=r"^expected Response, got 'r'$"):
        ScoredResponseSet(((one, 0.5), ("r", 0.5)))
    # the value is checked before the response: a bad label or score names itself
    with pytest.raises(InvalidInputError, match=r"^label must be 0 or 1, got 2$"):
        LabeledResponseSet((("r", 2),))
    with pytest.raises(InvalidInputError, match=r"^score must be >= 0, got -1\.0$"):
        ScoredResponseSet((("r", -1.0),))


def test_calibration_summary_checks_its_own_sum() -> None:
    summary = CalibrationSummary(per_prompt_fstar=(2.0, 4.0))
    assert summary.fstar_sum == 6.0 and summary.n == 2
    inf_summary = CalibrationSummary((1.0, INF))
    assert inf_summary.fstar_sum == INF and inf_summary.n == 2
    with pytest.raises(InvalidInputError):
        CalibrationSummary((1.0, -2.0))


def test_extended_sums_validate_each_value_once(monkeypatch) -> None:
    calls = []

    def counting(value, what="value"):
        calls.append(value)
        return as_ext_real(value, what)

    monkeypatch.setattr(escores.core, "as_ext_real", counting)
    assert CalibrationSummary((1.0, 2.0, INF)).fstar_sum == INF
    assert len(calls) == 3
    assert ext_sum([1.0, 2.0, 0.5]) == 3.5
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# seeded generators: numpy.random loaded without secrets and OpenSSL
# ---------------------------------------------------------------------------


def _fresh_stdout(program: str, *argv: str) -> bytes:
    """What ``program`` prints in a fresh interpreter, which must exit 0."""
    done = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("first_call", ["generate_dataset", "evaluate_dataset"])
def test_the_secrets_stand_in_lives_only_through_numpys_import(tmp_path, first_call) -> None:
    path = write_dataset(generate_dataset(SyntheticConfig(n_prompts=6, seed=1)), tmp_path / "d.jsonl")
    program = (
        "import json, sys\n"
        "from escores import PreparedDataset, ScoreKind, SplitPlan, SyntheticConfig\n"
        "from escores import evaluate_dataset, generate_dataset, parse_dataset\n"
        "if sys.argv[1] == 'generate_dataset':\n"
        "    generate_dataset(SyntheticConfig(n_prompts=6))\n"
        "else:\n"
        "    dataset = PreparedDataset(parse_dataset(sys.argv[2]))\n"
        "    evaluate_dataset(dataset, [ScoreKind.parse('e1')], plan=SplitPlan(n_splits=2))\n"
        "loaded = [m for m in ('secrets', 'hmac', 'hashlib', '_hashlib') if m in sys.modules]\n"
        "import secrets\n"
        "import numpy as np\n"
        "entropy = np.random.SeedSequence().entropy\n"
        "print(json.dumps([loaded, hasattr(secrets, 'token_hex'), isinstance(entropy, int)]))\n"
    )
    loaded, real_secrets, int_entropy = json.loads(_fresh_stdout(program, first_call, str(path)))
    assert loaded == []
    assert real_secrets  # the stand-in is gone: a later import finds the real module
    assert int_entropy  # an unseeded SeedSequence still draws its entropy


def test_both_import_paths_of_numpy_random_draw_the_same_streams() -> None:
    """With ``secrets`` loaded first, numpy.random is imported as usual;
    without it, through the stand-in.  Every stream must be the same; the
    Monte Carlo check's 40,000 rows take two blocks, two streams."""
    program = (
        "import pickle, sys\n"
        "if sys.argv[1] == 'secrets-first':\n"
        "    import secrets\n"
        "from escores import FTransform, SplitPlan, SyntheticConfig\n"
        "from escores import generate_dataset, mc_evariable_check, plan_splits\n"
        "cfg = SyntheticConfig(n_prompts=12, max_steps=4, seed=3)\n"
        "splits = [plan_splits(SplitPlan(seed=s, n_splits=3), 9) for s in (0, 7, 2**64 + 5)]\n"
        "dataset = [\n"
        "    (i.generated, i.estimates.response_estimate, dict(i.estimates.conditionals))\n"
        "    for i in generate_dataset(cfg)\n"
        "]\n"
        "mc = mc_evariable_check(SyntheticConfig(n_prompts=400, seed=3), FTransform.IDENTITY, 100)\n"
        "out = (splits, dataset, (mc.mean, mc.std_error), '_hashlib' in sys.modules)\n"
        "sys.stdout.buffer.write(pickle.dumps(out))\n"
    )
    *stand_in, stand_in_ssl = pickle.loads(_fresh_stdout(program, "stand-in"))
    *ordinary, ordinary_ssl = pickle.loads(_fresh_stdout(program, "secrets-first"))
    assert (stand_in_ssl, ordinary_ssl) == (False, True)  # each took the path it names
    assert stand_in == ordinary

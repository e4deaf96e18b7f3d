from __future__ import annotations

import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from scipy import stats

from gecaug import (
    ParallelExample,
    SchemaError,
    StagePlan,
    content_hash,
    error_rate,
    load_plan,
    mix,
    pair_hash,
    ratio_sweep,
    write_jsonl,
    write_parallel_tsv,
)

from _oracles import reference_mix, reference_ratio_sweep


def _real_tsv(tmp_path: Path, count: int = 50) -> Path:
    # Every real pair is errorful so mixed error rates are predictable.
    path = tmp_path / "real.tsv"
    pairs = [
        ParallelExample((f"r{i}", "wrong"), (f"r{i}", "right", "indeed"), id=str(i + 1))
        for i in range(count)
    ]
    write_parallel_tsv(pairs, path)
    return path


def _synthetic_jsonl(tmp_path: Path, count: int = 40) -> Path:
    # Every synthetic pair is clean.
    path = tmp_path / "syn.jsonl"
    pairs = [
        ParallelExample((f"s{i}", "fine"), (f"s{i}", "fine"), id=f"syn{i}")
        for i in range(count)
    ]
    write_jsonl(pairs, path)
    return path


def test_stage_plan_validation(tmp_path: Path):
    with pytest.raises(ValueError):
        StagePlan("IV", ("a.tsv",))
    with pytest.raises(ValueError):
        StagePlan("I", ("a.tsv",), synthetic="s.jsonl", synthetic_count=5)
    with pytest.raises(ValueError):
        StagePlan("II", ("a.tsv",), synthetic="s.jsonl")
    with pytest.raises(ValueError):
        StagePlan("II", ("a.tsv",), synthetic_count=5)
    with pytest.raises(ValueError):
        StagePlan("II", (), synthetic=None)
    with pytest.raises(ValueError):
        StagePlan("II", ("a.tsv",), synthetic="s.jsonl", synthetic_count=-1)
    plan = StagePlan("I", ("a.tsv", "b.tsv"), seed=3)
    assert plan.real == ("a.tsv", "b.tsv")


def test_load_plan(tmp_path: Path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "stage": "II",
                "real": ["real.tsv"],
                "synthetic": "syn.jsonl",
                "synthetic_count": 10,
                "seed": 4,
            }
        ),
        encoding="utf-8",
    )
    plan = load_plan(path)
    assert plan == StagePlan("II", ("real.tsv",), "syn.jsonl", 10, 4)

    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_plan(path)
    path.write_text(json.dumps({"stage": 2, "real": []}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_plan(path)
    path.write_text(json.dumps({"stage": "I", "real": "real.tsv"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_plan(path)
    path.write_text(
        json.dumps({"stage": "I", "real": ["r.tsv"], "synthetic": "s.jsonl",
                    "synthetic_count": 1}),
        encoding="utf-8",
    )
    with pytest.raises(SchemaError):
        load_plan(path)


@pytest.mark.parametrize("key", ["seed", "synthetic_count"])
def test_load_plan_rejects_bool_integers(tmp_path: Path, key):
    path = tmp_path / "plan.json"
    plan = {"stage": "II", "real": ["r.tsv"], "synthetic": "s.jsonl",
            "synthetic_count": 1, "seed": 4}
    path.write_text(json.dumps({**plan, key: True}), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_plan(path)
    assert err.value.reason == f"key {key!r} must be an int"


def test_mix_counts_ids_and_manifest(tmp_path: Path):
    real = _real_tsv(tmp_path, 50)
    syn = _synthetic_jsonl(tmp_path, 40)
    plan = StagePlan("II", (str(real),), str(syn), 20, seed=9)
    examples, manifest = mix(plan)
    assert len(examples) == 70
    assert manifest["total"] == 70
    assert manifest["stage"] == "II"
    assert manifest["seed"] == 9
    assert manifest["origins"] == [
        {"path": str(real), "kind": "real", "count": 50},
        {"path": str(syn), "kind": "synthetic", "count": 20},
    ]
    assert manifest["content_hash"] == content_hash(examples)
    ids = [ex.id for ex in examples]
    assert len(set(ids)) == 70
    syn_ids = {i for i in ids if i.startswith("1:")}
    assert syn_ids == {f"1:syn{i}" for i in range(20)}


def test_mix_is_deterministic_and_seed_sensitive(tmp_path: Path):
    real = _real_tsv(tmp_path, 30)
    syn = _synthetic_jsonl(tmp_path, 30)
    plan = StagePlan("III", (str(real),), str(syn), 30, seed=1)
    first, m1 = mix(plan)
    second, m2 = mix(plan)
    assert first == second
    assert m1 == m2
    other, m3 = mix(StagePlan("III", (str(real),), str(syn), 30, seed=2))
    assert [ex.id for ex in other] != [ex.id for ex in first]
    # Different seeds permute the same multiset of pairs.
    assert m3["content_hash"] == m1["content_hash"]


def test_mix_cap_semantics(tmp_path: Path):
    real = _real_tsv(tmp_path, 10)
    syn = _synthetic_jsonl(tmp_path, 10)
    zero, manifest = mix(StagePlan("II", (str(real),), str(syn), 0, seed=0))
    assert len(zero) == 10
    assert manifest["origins"][1]["count"] == 0
    with pytest.raises(ValueError):
        mix(StagePlan("II", (str(real),), str(syn), 11, seed=0))


def test_mix_real_only_stage(tmp_path: Path):
    real = _real_tsv(tmp_path, 10)
    examples, manifest = mix(StagePlan("I", (str(real),), seed=0))
    assert len(examples) == 10
    assert [o["kind"] for o in manifest["origins"]] == ["real"]


def test_pair_hash_ignores_ids():
    a = ParallelExample(("x",), ("y",), id="1")
    b = ParallelExample(("x",), ("y",), id="2")
    assert pair_hash(a) == pair_hash(b)
    assert content_hash([a, b]) == content_hash([b, a])
    c = ParallelExample(("x",), ("z",), id="1")
    assert pair_hash(a) != pair_hash(c)


def test_mix_shuffle_is_uniform(tmp_path: Path):
    real = _real_tsv(tmp_path, 20)
    positions: Counter[int] = Counter()
    trials = 1000
    for seed in range(trials):
        examples, _ = mix(StagePlan("I", (str(real),), seed=seed))
        idx = next(i for i, ex in enumerate(examples) if ex.id == "0:7")
        positions[idx] += 1
    observed = [positions[i] for i in range(20)]
    result = stats.chisquare(observed)
    assert result.pvalue > 0.001


def test_ratio_sweep(tmp_path: Path):
    real = _real_tsv(tmp_path, 30)
    syn = _synthetic_jsonl(tmp_path, 40)
    plan = StagePlan("II", (str(real),), str(syn), 0, seed=5)
    sweep = ratio_sweep(plan, [0, 10, 40])
    assert [cap for cap, _, _ in sweep] == [0, 10, 40]
    for cap, examples, manifest in sweep:
        assert len(examples) == 30 + cap
        assert manifest["total"] == 30 + cap
        # Real pairs are all errorful and synthetic pairs all clean.
        assert error_rate(examples) == pytest.approx(30 / (30 + cap))
    with pytest.raises(ValueError):
        ratio_sweep(plan, [0, 10, 10])
    with pytest.raises(ValueError):
        ratio_sweep(StagePlan("I", (str(real),), seed=5), [0])


def test_ratio_sweep_leaves_plan_untouched(tmp_path: Path):
    real = _real_tsv(tmp_path, 5)
    syn = _synthetic_jsonl(tmp_path, 5)
    plan = StagePlan("II", (str(real),), str(syn), 2, seed=5)
    ratio_sweep(plan, [0, 1])
    assert plan.synthetic_count == 2


def test_mix_accepts_jsonl_real_inputs(tmp_path: Path):
    real = tmp_path / "real.jsonl"
    write_jsonl([ParallelExample(("a", "b"), ("a", "c"), id="j1")], real)
    examples, manifest = mix(StagePlan("I", (str(real),), seed=0))
    assert examples[0].id == "0:j1"
    assert manifest["origins"][0]["count"] == 1


def test_mix_shuffle_matches_stdlib(tmp_path: Path):
    # The shuffle is the stdlib Fisher-Yates on the concatenated list, so
    # an independent replay predicts the exact order.
    real = _real_tsv(tmp_path, 12)
    examples, _ = mix(StagePlan("I", (str(real),), seed=77))
    expected = [f"0:{i + 1}" for i in range(12)]
    random.Random(77).shuffle(expected)
    assert [ex.id for ex in examples] == expected


def _two_real_inputs(tmp_path: Path) -> tuple[str, str, str]:
    real_tsv = _real_tsv(tmp_path, 30)
    real_jsonl = tmp_path / "real.jsonl"
    write_jsonl(
        [ParallelExample(("j", str(i)), ("j", str(i), "!"), id=f"j{i}", meta={"i": i})
         for i in range(12)],
        real_jsonl,
    )
    return str(real_tsv), str(real_jsonl), str(_synthetic_jsonl(tmp_path, 40))


def test_mix_and_sweep_match_reference(tmp_path: Path):
    real_tsv, real_jsonl, syn = _two_real_inputs(tmp_path)
    plan = StagePlan("II", (real_tsv, real_jsonl), syn, 7, seed=13)
    caps = [40, 0, 7, 25]  # 40 is the whole synthetic corpus
    sweep = ratio_sweep(plan, caps)
    want = reference_ratio_sweep(plan, caps)
    assert [cap for cap, _, _ in sweep] == caps
    for (cap, examples, manifest), (_, ref_examples, ref_manifest) in zip(sweep, want):
        assert examples == ref_examples, cap
        assert manifest == ref_manifest, cap
    for one in (plan, StagePlan("I", (real_tsv, real_jsonl), seed=13)):
        examples, manifest = mix(one)
        ref_examples, ref_manifest = reference_mix(one)
        assert (examples, manifest) == (ref_examples, ref_manifest)
    for bad in ([0, 41], [5, 5]):
        with pytest.raises(ValueError) as got:
            ratio_sweep(plan, bad)
        with pytest.raises(ValueError) as ref:
            reference_ratio_sweep(plan, bad)
        assert str(got.value) == str(ref.value)


def test_ratio_sweep_reads_each_input_once(tmp_path: Path, monkeypatch):
    real_tsv, real_jsonl, syn = _two_real_inputs(tmp_path)
    opened: Counter[str] = Counter()

    def counting(read):
        def wrapper(path, *args, **kwargs):
            opened[str(path)] += 1
            return read(path, *args, **kwargs)
        return wrapper

    # ``gecaug.mix`` as an attribute is the function the package re-exports.
    module = importlib.import_module("gecaug.mix")
    monkeypatch.setattr(module, "read_pairs", counting(module.read_pairs))
    monkeypatch.setattr(module, "read_jsonl", counting(module.read_jsonl))
    plan = StagePlan("II", (real_tsv, real_jsonl), syn, 0, seed=3)
    assert len(ratio_sweep(plan, [0, 10, 20, 40])) == 4
    assert opened == {real_tsv: 1, real_jsonl: 1, syn: 1}

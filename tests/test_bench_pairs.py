"""The verdicts of scripts/bench_pairs.py, on made-up runs (no subprocess)."""

import json

import pytest

import bench_pairs  # conftest.py puts scripts/ on the import path

TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
# interquartile range 8.5..14 around a median of 11, wider than a 25 % bound
WIDE = [8.0, 14.0, 9.0, 15.0, 8.5, 14.5, 11.0, 11.0, 8.0, 16.0]


@pytest.mark.parametrize(
    "better, base, change, verdict",
    [
        ("lower", TIGHT, [v * 1.1 for v in TIGHT], "no"),
        ("lower", TIGHT, [v * 1.3 for v in TIGHT], "YES"),
        ("lower", WIDE, [v * 1.1 for v in WIDE], "unresolved"),
        ("lower", WIDE, [v * 1.5 for v in WIDE], "YES"),
        # every change run beats every base run
        ("lower", WIDE, [v / 3.0 for v in WIDE], "no"),
        ("higher", WIDE, [v * 3.0 for v in WIDE], "no"),
        ("higher", WIDE, [v * 0.95 for v in WIDE], "unresolved"),
    ],
    ids=["tight-within", "tight-beyond", "wide-within", "wide-beyond",
         "wide-all-better", "higher-all-better", "higher-wide-within"],  # fmt: skip
)
def test_summarise_verdict(capsys, better, base, change, verdict):
    assert bench_pairs.summarise("m", better, 0.25, base, change) == verdict
    assert capsys.readouterr().out.rstrip().endswith("bound: %s" % verdict)


def test_last_line_names_worse_and_unresolved_medians(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [
        {"name": name, "better": "lower", "bound": 0.25}
        for name in ("steady", "worse", "noisy")
    ]}  # fmt: skip
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    base = {"steady": TIGHT, "worse": TIGHT, "noisy": WIDE}
    change = {"steady": TIGHT, "worse": [2 * v for v in TIGHT], "noisy": WIDE[::-1]}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = base if checkout == tmp_path / "base" else change
        i = sum(1 for c in calls if c == checkout)
        calls.append(checkout)
        values = {name: side[name][i] for name in side}
        return {"correct": True, "failed": 0, "metrics": values, "unscaled": values,
                "reference": "ref"}  # fmt: skip

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path),
        "--workload", "w", "--seeds", "1-10",
    ])  # fmt: skip
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "# medians worse than the base's beyond their bound: worse, worse unscaled; "
        "unresolved (base spread wider than the bound): noisy, noisy unscaled; "
        "one value on every base run but not on every change run: none"
    )


def test_one_valued_base_metrics_say_whether_each_change_run_reads_that_value(
    tmp_path, monkeypatch, capsys
):
    spec = {"end_to_end": [
        {"name": name, "better": "lower", "bound": 0.01}
        for name in ("kept", "moved", "varied")
    ]}  # fmt: skip
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    nll = 0.4995652270362872
    moved = [nll] * 10
    moved[3] = nll + 2**-53  # one change run off by the last bit, seed 4
    base = {"kept": [nll] * 10, "moved": [nll] * 10, "varied": TIGHT}
    change = {"kept": [nll] * 10, "moved": moved, "varied": TIGHT}

    def run_once(checkout, workload, seed, seconds):
        side = base if checkout == tmp_path / "base" else change
        values = {name: side[name][seed - 1] for name in side}
        return {"correct": True, "failed": 0, "metrics": values, "unscaled": {},
                "reference": "ref"}  # fmt: skip

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path),
        "--workload", "w", "--seeds", "1-10",
    ])  # fmt: skip
    lines = capsys.readouterr().out.splitlines()
    said = [line for line in lines if "every base run reads" in line]
    assert said == [
        "  every base run reads %r; every change run too: yes" % nll,
        "  every base run reads %r; every change run too: no (4: %r)" % (nll, moved[3]),
    ]
    assert lines[-1].endswith(
        "; one value on every base run but not on every change run: moved"
    )


def test_several_workloads_alternate_per_seed_and_share_the_last_line(
    tmp_path, monkeypatch, capsys
):
    spec = {"end_to_end": [{"name": "day", "better": "lower", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    # workload "b" gets twice as slow on the change side, "a" holds
    factor = {"a": 1.0, "b": 2.0}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = "base" if checkout == tmp_path / "base" else "change"
        calls.append((seed, workload, side))
        value = TIGHT[seed - 1] * (factor[workload] if side == "change" else 1.0)
        return {"correct": True, "failed": 0, "metrics": {"day": value},
                "unscaled": {"day": value}, "reference": "ref"}  # fmt: skip

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path),
        "--workload", "a,b", "--seeds", "1-4",
    ])  # fmt: skip
    assert code == 0
    # every seed runs both workloads, each on both sides; the workload
    # order and the side order alternate from seed to seed
    assert calls[:8] == [
        (1, "a", "base"), (1, "a", "change"), (1, "b", "base"), (1, "b", "change"),
        (2, "b", "change"), (2, "b", "base"), (2, "a", "change"), (2, "a", "base"),
    ]  # fmt: skip
    assert len(calls) == 4 * 2 * 2
    lines = capsys.readouterr().out.splitlines()
    headers = [line for line in lines if "requested; pairs are base->change" in line]
    assert [h.split(",")[0] for h in headers] == ["# a", "# b"]
    assert lines[-1] == (
        "# medians worse than the base's beyond their bound: b day, b day unscaled; "
        "unresolved (base spread wider than the bound): none; "
        "one value on every base run but not on every change run: none"
    )

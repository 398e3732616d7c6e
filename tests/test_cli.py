"""End-to-end runs of every subcommand through main(argv).

The recurring invariant: any strategy artifact a command emits must come
back clean when fed to validate."""

import json
import time
from fractions import Fraction

import pytest

from paritybet import (
    BlockSpec,
    Component,
    FractionBet,
    Kind,
    Parity,
    StageApprox,
    StrategyTable,
    TestArray,
    constant_program,
    dump_json,
    dumps,
    from_jsonable,
    parse_trace,
    replay_trace,
    to_jsonable,
    unit_bet_on_one,
    IntegerBet,
    IntStrategy,
)
from paritybet.cli import main

from conftest import edited_wire, parity_window


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) if not isinstance(obj, (dict, list)) else json.dumps(obj))
    return str(path)


@pytest.fixture
def odd_bettor(tmp_path):
    t = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(1), "1": Fraction(1),
        "00": Fraction(3, 2), "01": Fraction(1, 2),
        "10": Fraction(1, 2), "11": Fraction(3, 2),
    }, Kind.MARTINGALE)
    return write_json(tmp_path, "odd.json", t)


def test_validate_table(capsys, odd_bettor):
    code, out, err = run_cli(capsys, "validate", "--in", odd_bettor)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["martingale"] is True
    assert payload["bets_on_odd"] is True
    assert payload["depth"] == 2


def test_validate_program(capsys, tmp_path):
    p = constant_program(1, None, Parity.BETS_ON_EVEN)
    path = write_json(tmp_path, "prog.json", p)
    code, out, _ = run_cli(capsys, "validate", "--in", path, "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["martingale"] and payload["bets_on_even"]
    assert payload["depth"] == 4


def _late_betting_mixture():
    # flat until the betting component joins at stage 2
    return StageApprox((
        Component(0, Fraction(1), constant_program(1, None, Parity.BETS_ON_EVEN)),
        Component(2, Fraction(1, 2),
                  constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)),
    ), Kind.MARTINGALE, Parity.BETS_ON_EVEN)


def test_validate_mixture_defaults_to_last_stage(capsys, tmp_path):
    path = write_json(tmp_path, "mix.json", _late_betting_mixture())
    runs = {}
    for stage in (None, "2", "0"):
        argv = ["validate", "--in", path, "--depth", "4"]
        code, out, _ = run_cli(capsys, *(argv if stage is None else argv + ["--stage", stage]))
        assert code == 0
        runs[stage] = out
    assert runs[None] == runs["2"] != runs["0"]
    assert json.loads(runs[None])["bets_on_odd"] is False


@pytest.mark.parametrize("strategy", [
    constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN),
    _late_betting_mixture(),
])
def test_validate_negative_depth_is_a_domain_error(capsys, tmp_path, strategy):
    path = write_json(tmp_path, "s.json", strategy)
    code, out, err = run_cli(capsys, "validate", "--in", path, "--depth", "-3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


_ODD_TABLE = StrategyTable(2, {
    "": Fraction(1), "0": Fraction(1), "1": Fraction(1),
    "00": Fraction(3, 2), "01": Fraction(1, 2),
    "10": Fraction(1, 2), "11": Fraction(3, 2),
}, Kind.MARTINGALE)
_EVEN_TABLE = StrategyTable(2, {
    "": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2),
    "00": Fraction(3, 2), "01": Fraction(3, 2),
    "10": Fraction(1, 2), "11": Fraction(1, 2),
}, Kind.MARTINGALE)
_SPEC = BlockSpec(Fraction(1), Fraction(1, 4), Fraction(1), Fraction(1, 4), Fraction(3, 4))
_ARRAY = TestArray((("",), ("00",)))
_PROGRAM = constant_program(1, None, Parity.BETS_ON_EVEN)


def _quiet_mixture(parity):
    program = constant_program(1, None, parity)
    return StageApprox((Component(0, Fraction(1, 4), program),), Kind.MARTINGALE, parity)


# per subcommand: its wire input slots with a well-typed object for each,
# and the rest of a command line that succeeds on those objects
_SLOTS = {
    "validate": ({"--in": _ODD_TABLE}, []),
    "decompose": (
        {"--in": _ODD_TABLE, "--second": _EVEN_TABLE, "--spec": _SPEC},
        ["--mode", "block"],
    ),
    "stest": ({"--validate": _ARRAY}, ["--s", "1/2"]),
    "dim": ({"--strategy": _ODD_TABLE}, []),
    "diagonalize": (
        {"--adversaries": parity_window("w", 3, 2)},
        ["--engine", "N", "--target", "5"],
    ),
    "paritytest": (
        {"odd": _quiet_mixture(Parity.BETS_ON_ODD),
         "even": _quiet_mixture(Parity.BETS_ON_EVEN)},
        ["--depth", "2"],
    ),
}


def _argv_with_slot(tmp_path, subcommand, slot, obj):
    """argv for subcommand with obj in slot and well-typed other inputs."""
    inputs, extra = _SLOTS[subcommand]
    inputs = {**inputs, slot: obj}
    argv = [subcommand, *extra]
    if subcommand == "diagonalize":
        # one entry of the list is in question; the other is well typed
        advs = [to_jsonable(parity_window("v", 2, 1)), to_jsonable(obj)]
        return argv + ["--adversaries", write_json(tmp_path, "advs.json", advs)]
    if subcommand == "paritytest":
        mix = {k: to_jsonable(v) for k, v in inputs.items()}
        return argv + ["--mixture", write_json(tmp_path, "mix.json", mix)]
    if subcommand == "dim":
        x = tmp_path / "x.txt"
        x.write_text("01\n")
        argv += ["--x", str(x)]
    for name, value in inputs.items():
        argv += [name, write_json(tmp_path, name.strip("-") + ".json", value)]
    return argv


@pytest.mark.parametrize("subcommand, slot, bad", [
    pytest.param(sub, slot, bad, id=f"{sub}-{slot.strip('-')}-{tag}")
    for sub, slot, tag, bad in [
        ("validate", "--in", "int_strategy", unit_bet_on_one()),
        ("validate", "--in", "test_array", _ARRAY),
        ("validate", "--in", "block_spec", _SPEC),
        ("decompose", "--in", "program", _PROGRAM),
        ("decompose", "--second", "block_spec", _SPEC),
        ("decompose", "--spec", "table", _ODD_TABLE),
        ("stest", "--validate", "table", _ODD_TABLE),
        ("dim", "--strategy", "test_array", _ARRAY),
        ("diagonalize", "--adversaries", "block_spec", _SPEC),
        ("paritytest", "odd", "table", _ODD_TABLE),
        ("paritytest", "even", "program", _PROGRAM),
        # a tag that is no string: no slot's type, and no key to look up
        *[(sub, slot, "list_tag", {"type": []})
          for sub, (inputs, _) in _SLOTS.items() for slot in inputs],
    ]
])
def test_cli_rejects_wrong_typed_input(capsys, tmp_path, subcommand, slot, bad):
    # the same command line runs with the slot's own type in it
    good = _SLOTS[subcommand][0][slot]
    code, _, err = run_cli(capsys, *_argv_with_slot(tmp_path, subcommand, slot, good))
    assert code == 0, err
    argv = _argv_with_slot(tmp_path, subcommand, slot, bad)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)  # exactly one JSON object
    assert error["error"] == "WireError" and slot in error["message"]


def test_dimhalf_rejects_malformed_component(capsys, tmp_path):
    good = Component(0, Fraction(1, 4), constant_program(1, None, Parity.BETS_ON_ODD))
    argv = ["dimhalf", "--nmax", "1", "--stages", "20", "--components"]
    path = write_json(tmp_path, "good.json", [to_jsonable(good)])
    code, _, err = run_cli(capsys, *argv, path)
    assert code == 0, err
    path = write_json(tmp_path, "bad.json", [to_jsonable(good), {"type": []}])
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "WireError"


_INT_PROGRAM = constant_program(5, IntegerBet(2, 0), Parity.BETS_ON_ODD)


@pytest.mark.parametrize("bad, where", [
    pytest.param(edited_wire(_ODD_TABLE, ("values",), {"": "1", "0": "1", "1": "1"}),
                 "missing table entry", id="table-missing-entry"),
    pytest.param(edited_wire(_INT_PROGRAM, ("rule", "states", 0, "on0"), 2),
                 "rule: transition target out of range", id="program-on0-out-of-range"),
    pytest.param(edited_wire(_INT_PROGRAM, ("rule", "states", 1, "bet", "wager"), True),
                 "rule: states: bet: wager: expected int", id="program-wager-bool"),
])
def test_validate_rejects_malformed_object(capsys, tmp_path, bad, where):
    code, out, err = run_cli(capsys, "validate", "--in", write_json(tmp_path, "bad.json", bad))
    assert code == 2 and out == ""
    error = json.loads(err)  # exactly one JSON object
    assert error["error"] == "WireError"
    assert error["message"].startswith("--in: " + where)


def test_validate_writes_out_file(capsys, odd_bettor, tmp_path):
    out_path = tmp_path / "diag.json"
    code, out, _ = run_cli(capsys, "validate", "--in", odd_bettor,
                           "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["martingale"] is True


def test_decompose_parity_factors_revalidate(capsys, tmp_path):
    t = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2),
        "00": Fraction(9, 4), "01": Fraction(3, 4),
        "10": Fraction(1, 4), "11": Fraction(3, 4),
    }, Kind.MARTINGALE)
    path = write_json(tmp_path, "m.json", t)
    code, out, _ = run_cli(capsys, "decompose", "--in", path, "--mode", "parity")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "parity"
    odd = from_jsonable(payload["odd_factor"])
    even = from_jsonable(payload["even_factor"])
    # factors round-trip the validate gate with their parity tags
    for factor, flag in ((odd, "bets_on_odd"), (even, "bets_on_even")):
        fpath = write_json(tmp_path, flag + ".json", factor)
        fcode, fout, _ = run_cli(capsys, "validate", "--in", fpath)
        assert fcode == 0
        fdiag = json.loads(fout)
        assert fdiag["martingale"] and fdiag[flag]
    # and multiply back to the input over the root
    root = Fraction(payload["root"])
    for s in t.values:
        assert root * odd.value(s) * even.value(s) == t.value(s)


def test_decompose_block_needs_spec(capsys, odd_bettor):
    code, out, err = run_cli(capsys, "decompose", "--in", odd_bettor,
                             "--mode", "block")
    assert code == 2
    assert json.loads(err)["error"] == "WireError"


def test_decompose_block_roundtrip(capsys, tmp_path, odd_bettor):
    n = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2),
        "00": Fraction(3, 2), "01": Fraction(3, 2),
        "10": Fraction(1, 2), "11": Fraction(1, 2),
    }, Kind.MARTINGALE)
    npath = write_json(tmp_path, "n.json", n)
    spec = {"type": "block_spec", "m00": "1", "m10": "1/4",
            "n0": "1", "n1": "1/4", "c": "3/4"}
    spath = write_json(tmp_path, "spec.json", spec)
    code, out, _ = run_cli(capsys, "decompose", "--in", odd_bettor,
                           "--mode", "block", "--second", npath,
                           "--spec", spath)
    assert code == 0
    payload = json.loads(out)
    for key in ("m_core", "m_rest", "n_core", "n_rest"):
        part = from_jsonable(payload[key])
        ppath = write_json(tmp_path, key + ".json", part)
        pcode, pout, _ = run_cli(capsys, "validate", "--in", ppath)
        assert pcode == 0, key
        assert json.loads(pout)["martingale"] or json.loads(pout)["supermartingale"]


def _mixture_file(tmp_path, pair):
    odd, even = pair
    return write_json(tmp_path, "mix.json",
                      {"odd": to_jsonable(odd), "even": to_jsonable(even)})


def test_paritytest_deterministic(capsys, tmp_path, small_oscillating_pair):
    mix = _mixture_file(tmp_path, small_oscillating_pair)
    code1, out1, _ = run_cli(capsys, "paritytest", "--depth", "4",
                             "--stages", "64", "--mixture", mix)
    code2, out2, _ = run_cli(capsys, "paritytest", "--depth", "4",
                             "--stages", "64", "--mixture", mix)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    payload = json.loads(out1)
    assert payload["type"] == "parity_test_result"
    assert len(payload["path"]) == 8
    cert = payload["certificate"]
    assert [Fraction(g["on_path_value"]) for g in cert["growth"]][:3] == [
        Fraction(1), Fraction(4, 3), Fraction(16, 9)]
    assert cert["dim_report"]["half_log2_base"] == 3


def _adversary_file(tmp_path):
    advs = [
        to_jsonable(parity_window("w0", 4, 3, outcome=0)),
        to_jsonable(IntStrategy(
            constant_program(3, IntegerBet(1, 1), Parity.BETS_ON_ODD), "odd1")),
    ]
    return write_json(tmp_path, "advs.json", advs)


def test_diagonalize_trace_replays(capsys, tmp_path):
    advs = _adversary_file(tmp_path)
    code, out, _ = run_cli(capsys, "diagonalize", "--engine", "N",
                           "--adversaries", advs, "--target", "30")
    assert code == 0
    trace = parse_trace(out.splitlines())
    assert trace.reached
    engine = unit_bet_on_one()
    with open(advs) as fh:
        adv = [from_jsonable(d) for d in json.load(fh)]
    replay_trace(trace, engine, adv)  # raises on any mismatch


def test_diagonalize_settle_dim0(capsys, tmp_path):
    advs = _adversary_file(tmp_path)
    out_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "diagonalize", "--engine", "N",
                           "--adversaries", advs, "--mode", "settle",
                           "--dim0", "--dim0-blocks", "16",
                           "--target", "40", "--out", str(out_path))
    assert code == 0
    trace = parse_trace(out_path.read_text().splitlines())
    assert trace.reached
    assert len(trace.certificates) == 2
    assert len(trace.checkpoints) == 2
    assert trace.checkpoints[-1].fraction > Fraction(1, 2)


def test_diagonalize_greedy_rejects_dim0(capsys, tmp_path):
    advs = _adversary_file(tmp_path)
    code, _, err = run_cli(capsys, "diagonalize", "--engine", "N",
                           "--adversaries", advs, "--mode", "greedy",
                           "--dim0", "--target", "10")
    assert code == 1
    assert json.loads(err)["error"] == "PreconditionError"


def test_stest_reports_levels(capsys, tmp_path):
    arr = TestArray((("000000",), ("0" * 10,), ("0" * 14,)), flavor="half")
    path = write_json(tmp_path, "arr.json", arr)
    code, out, _ = run_cli(capsys, "stest", "--validate", path, "--s", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "1/2" and payload["ok"] is True
    assert [lv["strict"] for lv in payload["levels"]] == [True, True, True]
    # a heavy level still exits 0; the verdict is the payload
    heavy = TestArray((("0",) , ("00",)), flavor="half")
    hpath = write_json(tmp_path, "heavy.json", heavy)
    code, out, _ = run_cli(capsys, "stest", "--validate", hpath, "--s", "1/2")
    assert code == 0
    assert json.loads(out)["ok"] is False


def test_stest_scale_errors(capsys, tmp_path):
    arr = TestArray((("00",),), flavor="half")
    path = write_json(tmp_path, "arr.json", arr)
    code, _, err = run_cli(capsys, "stest", "--validate", path, "--s", "junk")
    assert code == 2
    assert json.loads(err)["error"] == "WireError"
    # representable but out of range: domain error, not a wire error
    code, _, err = run_cli(capsys, "stest", "--validate", path, "--s", "3/2")
    assert code == 1
    assert json.loads(err)["error"] == "PreconditionError"


@pytest.mark.parametrize("subcommand, slot, obj, limit", [
    ("validate", "--in", _PROGRAM, ["--depth", "21"]),
    ("stest", "--validate", _ARRAY, ["--s", "1/100000000"]),
    ("dim", "--strategy", _ODD_TABLE, ["--x", "{x}", "--precision", "1001"]),
], ids=["validate-depth", "stest-s", "dim-precision"])
def test_size_limits_refuse_at_once(capsys, tmp_path, subcommand, slot, obj, limit):
    x = tmp_path / "x.txt"
    x.write_text("01\n")
    limit = [arg.format(x=x) for arg in limit]
    argv = [subcommand, slot, write_json(tmp_path, "in.json", obj), *limit]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


def test_dim_report(capsys, tmp_path):
    prog = constant_program(1, None, Parity.NONE)
    spath = write_json(tmp_path, "flat.json", prog)
    xpath = tmp_path / "x.txt"
    xpath.write_text("0101101001" * 2 + "\n")
    code, out, _ = run_cli(capsys, "dim", "--strategy", spath, "--x", str(xpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "dim_report"
    assert payload["lower"] == "1" and payload["upper"] == "1"


def test_dim_rejects_bad_bits(capsys, tmp_path):
    prog = constant_program(1, None, Parity.NONE)
    spath = write_json(tmp_path, "flat.json", prog)
    xpath = tmp_path / "x.txt"
    xpath.write_text("01021")
    code, _, err = run_cli(capsys, "dim", "--strategy", spath, "--x", str(xpath))
    assert code == 2
    assert json.loads(err)["error"] == "WireError"


def test_dimhalf_zero_components(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, out, _ = run_cli(capsys, "dimhalf", "--stages", "200",
                           "--nmax", "1", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["prefix"] == "0" * 18
    assert payload["ledger"]["kraft_weight"] == "1/134217728"  # 2^-27
    # sibling artifacts
    trace = (tmp_path / "run.trace.jsonl").read_text().splitlines()
    assert json.loads(trace[0])["type"] == "builder_header"
    assert json.loads(trace[-1])["kraft_weight"] == "1/134217728"
    assert (tmp_path / "run.prefix.txt").read_text().strip() == "0" * 18


def test_verify_two_round_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "two-round", "--n", "50")
    assert code == 0
    payload = json.loads(out)
    assert all(rep["passed"] for rep in payload["reports"])


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "--in", "/nonexistent/x.json")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_junk_json_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "validate", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "WireError"

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
    Sided,
    StageApprox,
    StrategyTable,
    TestArray,
    constant_program,
    dumps,
    from_jsonable,
    parse_trace,
    replay_trace,
    to_jsonable,
    unit_bet_on_one,
    IntegerBet,
    IntStrategy,
)
from paritybet import cli
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


@pytest.mark.parametrize("subcommand, slot", [("validate", "--in"), ("dim", "--strategy")])
def test_a_negative_stage_is_a_domain_error(capsys, tmp_path, subcommand, slot):
    path = write_json(tmp_path, "mix.json", _late_betting_mixture())
    x = tmp_path / "x.txt"
    x.write_text("0110")
    argv = [subcommand, slot, path] + (["--x", str(x)] if subcommand == "dim" else [])
    for stage in ("-1", "-3"):
        code, out, err = run_cli(capsys, *argv, "--stage", stage)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "PreconditionError",
                                   "message": f"--stage {stage} is negative"}
    # stage 0, before the betting component joins, is a mixture stage
    code, _, err = run_cli(capsys, *argv, "--stage", "0")
    assert (code, err) == (0, "")


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


# files no JSON slot can read: each ends in one WireError, never a traceback
_MALFORMED = {
    "not-utf8": b"01\xff10",
    "deep": b"[" * 100000 + b"]" * 100000,
    "long-int": b"[" + b"7" * 5000 + b"]",
    # JSON that is no object of any type and no list
    "empty-object": b"{}",
}
_FILE_SLOTS = {
    "validate-in": ["validate", "--in"],
    "stest-validate": ["stest", "--s", "1/2", "--validate"],
    "dimhalf-components": ["dimhalf", "--nmax", "1", "--stages", "20", "--components"],
    "diagonalize-adversaries": ["diagonalize", "--engine", "N", "--target", "5", "--adversaries"],
    "paritytest-mixture": ["paritytest", "--depth", "2", "--mixture"],
}


@pytest.mark.parametrize("slot, malformed", [
    *[pytest.param(slot, bad, id=f"{slot}-{bad}") for slot in _FILE_SLOTS for bad in _MALFORMED],
    pytest.param("dim-x", "not-utf8", id="dim-x-not-utf8"),
])
def test_cli_malformed_file_is_a_wire_error(capsys, tmp_path, slot, malformed):
    path = tmp_path / "bad"
    path.write_bytes(_MALFORMED[malformed])
    if slot == "dim-x":
        argv = ["dim", "--strategy", write_json(tmp_path, "t.json", _ODD_TABLE), "--x"]
    else:
        argv = _FILE_SLOTS[slot]
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "WireError"  # exactly one JSON object


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
    # a well-formed component whose program bets at both parities
    untagged = Component(0, Fraction(1, 4), constant_program(1, None))
    path = write_json(tmp_path, "untagged.json", [to_jsonable(untagged)])
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2 and out == ""
    assert "single-parity" in json.loads(err)["message"]


@pytest.mark.parametrize("component, message", [
    pytest.param(edited_wire(Component(0, Fraction(1, 4), constant_program(1, None, Parity.BETS_ON_ODD)),
                             ("weight",), "x"),
                 "--components: weight: bad rational 'x'", id="bad-weight"),
    pytest.param(to_jsonable(Component(0, Fraction(1, 4), constant_program(1, None))),
                 "--components: every builder component needs a single-parity program", id="no-parity"),
])
def test_dimhalf_component_errors_name_their_slot(capsys, tmp_path, component, message):
    path = write_json(tmp_path, "components.json", [component])
    code, out, err = run_cli(capsys, "dimhalf", "--nmax", "1", "--stages", "20", "--components", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "WireError", "message": message}


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


def test_validate_refuses_a_table_too_deep_for_its_keys_at_once(capsys, tmp_path):
    # one key claims a depth of 10^9, whose states are counted by
    # integers of 10^9 bits: the missing state is named without them
    bad = edited_wire(_ODD_TABLE, ("values",), {"": "1"})
    bad["depth"] = 10**9
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", "--in", write_json(tmp_path, "deep.json", bad))
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "WireError", "message": "--in: missing table entry for state '0'"}


def test_dim_refuses_a_report_past_the_digit_limit(capsys, tmp_path):
    # a stake of 1/200 along 2000 bits: the capitals' denominators pass
    # Python's 4300-digit limit on writing an int, which the writer names
    strategy = write_json(tmp_path, "p.json", constant_program(1, FractionBet(Fraction(1, 200))))
    x, out_path = tmp_path / "x.txt", tmp_path / "report.json"
    x.write_text("1" * 2000)
    code, out, err = run_cli(capsys, "dim", "--strategy", strategy, "--x", str(x), "--out", str(out_path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "PreconditionError",
                               "message": "a number to write has more digits than Python's limit of 4300"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "x.txt"]  # no --out, no temp file


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


@pytest.mark.parametrize("engine, adversary, mode", [
    ("D", constant_program(600_000, IntegerBet(1, 1), Parity.NONE, Sided.ONE), "greedy"),
    ("N", constant_program(200_000, IntegerBet(1, 1), Parity.BETS_ON_EVEN), "settle"),
], ids=["greedy", "settle"])
def test_diagonalize_stops_a_rich_adversary_at_the_bit_cap(monkeypatch, capsys, tmp_path,
                                                           engine, adversary, mode):
    # greedy emits about one bit per unit of the adversary's capital here
    # and settle two (600,003 and 400,006 bits), so the trace's bit cap,
    # not --target, bounds the run; a lower cap keeps the test short
    monkeypatch.setattr(cli, "_MAX_TRACE_BITS", 1000)
    path = write_json(tmp_path, "advs.json", [to_jsonable(IntStrategy(adversary, "rich"))])
    code, out, err = run_cli(capsys, "diagonalize", "--engine", engine, "--adversaries", path,
                             "--mode", mode, "--target", "10")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "BettingLabError",
                               "message": f"{mode} run exceeded 1000 bits without reaching 10"}


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
    ("stest", "--validate", TestArray((("",),) + ((),) * 1001), ["--s", "1/2"]),
    ("dim", "--strategy", _ODD_TABLE, ["--x", "{x}", "--precision", "1001"]),
    ("dim", "--strategy", constant_program(1, FractionBet(Fraction(1, 3))), ["--x", "{long_x}"]),
    ("dimhalf", "--components", [to_jsonable(Component(0, Fraction(1, 4), _PROGRAM))],
     ["--nmax", "6", "--stages", "8"]),
    ("dimhalf", "--components", [], ["--nmax", "2", "--stages", "100001"]),
    # verify reads no file, so the path goes to --out, which a refusal never writes
    ("verify", "--out", {}, ["--lemma", "growth", "--n", "0"]),
    ("verify", "--out", {}, ["--lemma", "growth", "--n", "-5"]),
    ("verify", "--out", {}, ["--lemma", "growth", "--n", "10001"]),
    ("diagonalize", "--adversaries", [to_jsonable(parity_window("w", 3, 2))],
     ["--engine", "N", "--target", "1000001"]),
    ("diagonalize", "--adversaries", [to_jsonable(parity_window("w", 3, 2))],
     ["--engine", "N", "--target", "10", "--max-bits", "1100001"]),
    # 2 * 8 * (2^30 - 1) interpolated bits
    ("diagonalize", "--adversaries",
     [to_jsonable(parity_window(f"w{i}", 3, 2)) for i in range(30)],
     ["--engine", "N", "--mode", "settle", "--dim0", "--dim0-blocks", "8", "--target", "40"]),
    ("paritytest", "--mixture",
     {"odd": to_jsonable(_quiet_mixture(Parity.BETS_ON_ODD)),
      "even": to_jsonable(_quiet_mixture(Parity.BETS_ON_EVEN))},
     ["--depth", "1001"]),
], ids=["validate-depth", "stest-s", "stest-depth", "dim-precision", "dim-x", "dimhalf-nmax",
        "dimhalf-stages", "verify-n-zero", "verify-n-negative", "verify-n-cap",
        "diagonalize-target", "diagonalize-max-bits", "diagonalize-dim0-blocks",
        "paritytest-depth"])
def test_size_limits_refuse_at_once(capsys, tmp_path, subcommand, slot, obj, limit):
    x = tmp_path / "x.txt"
    x.write_text("01\n")
    long_x = tmp_path / "long_x.txt"
    long_x.write_text("01" * 1000 + "1\n")
    limit = [arg.format(x=x, long_x=long_x) for arg in limit]
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


def test_dim_negative_precision_is_a_domain_error(capsys, tmp_path):
    spath = write_json(tmp_path, "odd.json", _ODD_TABLE)
    xpath = tmp_path / "x.txt"
    xpath.write_text("00\n")
    code, out, err = run_cli(
        capsys, "dim", "--strategy", spath, "--x", str(xpath), "--precision", "-1"
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


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


def test_dimhalf_out_is_written_atomically(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    argv = ["dimhalf", "--stages", "20", "--nmax", "1", "--out"]
    code, out, _ = run_cli(capsys, *argv, str(out_path))
    assert code == 0 and out == ""
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["run.json", "run.prefix.txt", "run.trace.jsonl"]
    # a failed write leaves the directory as it was
    code, _, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2 and json.loads(err)["error"] == "IsADirectoryError"
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    # a write that fails part way keeps the old file whole
    before = out_path.read_text()
    with pytest.raises(UnicodeEncodeError):
        cli._emit("{}\n\udcff", str(out_path))
    assert out_path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_verify_two_round_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "two-round", "--n", "50")
    assert code == 0
    payload = json.loads(out)
    assert all(rep["passed"] for rep in payload["reports"])


# stdout of verify, recorded before the writer spelled JSON itself; the
# minimality and two-round bytes were recorded before those suites moved
# from Fractions to integer grids
_VERIFY_BYTES = {
    ("floor-parity",): """\
{
  "lemma": "floor-parity",
  "passed": true,
  "reports": [
    {
      "failures": [],
      "name": "floor-parity-grid",
      "passed": true,
      "stats": {},
      "total": 1371
    }
  ],
  "seed": 0
}
""",
    ("growth", "--n", "20"): """\
{
  "lemma": "growth",
  "passed": true,
  "reports": [
    {
      "failures": [],
      "name": "growth-random",
      "passed": true,
      "stats": {
        "skipped_unrepresentable_p": 1
      },
      "total": 20
    },
    {
      "failures": [],
      "name": "growth-all-in",
      "passed": true,
      "stats": {
        "bound": "1/4",
        "rise": "1/8"
      },
      "total": 1
    }
  ],
  "seed": 0
}
""",
    ("minimality",): """\
{
  "lemma": "minimality",
  "passed": true,
  "reports": [
    {
      "failures": [],
      "name": "minimality-grid",
      "passed": true,
      "stats": {
        "dominating_pointwise_violations": 54264
      },
      "total": 474946
    }
  ],
  "seed": 0
}
""",
    ("two-round",): """\
{
  "lemma": "two-round",
  "passed": true,
  "reports": [
    {
      "failures": [],
      "name": "two-round-random",
      "passed": true,
      "stats": {},
      "total": 1000
    },
    {
      "failures": [],
      "name": "two-round-grid",
      "passed": true,
      "stats": {
        "replayed_through_tables": 8
      },
      "total": 42669
    }
  ],
  "seed": 0
}
""",
    ("two-round", "--n", "300", "--seed", "5"): """\
{
  "lemma": "two-round",
  "passed": true,
  "reports": [
    {
      "failures": [],
      "name": "two-round-random",
      "passed": true,
      "stats": {},
      "total": 300
    },
    {
      "failures": [],
      "name": "two-round-grid",
      "passed": true,
      "stats": {
        "replayed_through_tables": 8
      },
      "total": 42669
    }
  ],
  "seed": 5
}
""",
}


@pytest.mark.parametrize("args", list(_VERIFY_BYTES), ids=lambda a: "-".join(a[:1] + a[4:]))
def test_verify_bytes(capsys, args):
    code, out, err = run_cli(capsys, "verify", "--lemma", *args)
    assert (code, err) == (0, "")
    assert out == _VERIFY_BYTES[args]


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

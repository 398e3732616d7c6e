"""Byte pins for the one-way reports: each report's dumps() output is
compared with a literal, so a change to the encoder cannot move a key,
a derived field or a rational's spelling unnoticed."""

from fractions import Fraction

import pytest

from paritybet import (
    BitRecord,
    BlockReport,
    BuilderState,
    Checkpoint,
    ConeCertificate,
    DiagTrace,
    DimReport,
    ExponentSample,
    GrowthVerdict,
    LevelReport,
    LevelVerdict,
    ParityTestResult,
    RequestLedger,
    StageEvent,
    TestArray,
    dumps,
    params,
    trace_lines,
)
from paritybet.oracles import OracleReport


def _oracle_report():
    # stats inserted out of key order, and one failure past the cap of 32
    report = OracleReport("floor-parity-grid", total=40)
    report.stats["rise"] = "1/2"
    report.stats["bound"] = "1/4"
    report.fail(kind="not-below", m=[3, "01"], delta=Fraction(-1, 8))
    for _ in range(32):
        report.fail()
    return report


def _ledger():
    ledger = RequestLedger()
    ledger.add("0110", 3)
    ledger.add("00", 5)
    return ledger


CASES = {
    "growth_verdict": GrowthVerdict(
        sigma="00", tau="0011", stage_s=1, stage_t=4, p=2,
        delta_at_sigma=Fraction(1, 8), hypothesis_holds=True,
        value_s_at_tau=Fraction(3, 4), value_t_at_tau=Fraction(5, 4),
        bound=Fraction(1), conclusion_holds=True,
    ),
    "dim_report_mixed": DimReport(
        x="0101",
        samples=(
            ExponentSample(n=1, value=Fraction(0), exact=None, bracket=None, infinite=True),
            ExponentSample(n=2, value=Fraction(4, 3), exact=None,
                           bracket=(Fraction(3, 4), Fraction(13, 16)), infinite=False),
            ExponentSample(n=3, value=Fraction(2), exact=Fraction(2, 3), bracket=None,
                           infinite=False),
        ),
        lower=Fraction(2, 3),
        upper=None,
    ),
    "dim_report_no_base": DimReport(
        x="1",
        samples=(ExponentSample(n=1, value=Fraction(1, 2), exact=Fraction(2),
                                bracket=None, infinite=False),),
        lower=Fraction(2),
        upper=Fraction(2),
    ),
    "ledger": _ledger(),
    "builder_state": BuilderState(
        params=(params(0), params(1)),
        stage=7,
        sigmas=["", None],
        change_counts=[0, 2],
        events=[StageEvent(3, "define", 1, "00"), StageEvent(7, "undefine", 1, "00")],
        ledger=_ledger(),
    ),
    "parity_test_result": ParityTestResult(
        array=TestArray((("",), ("00", "10", "11"))),
        path="00",
        reports=(
            LevelReport(
                level=1, expanded_parent="", phase="closed", trigger_stage=3,
                children=("00", "10", "11"),
                final_values=(("00", Fraction(1, 2)), ("10", Fraction(5, 4)),
                              ("11", Fraction(3, 4))),
                survivors=("00", "11"), chosen="00",
            ),
            LevelReport(
                level=2, expanded_parent="00", phase="watching", trigger_stage=None,
                children=("0000", "0010"),
                final_values=(("0000", Fraction(1, 3)), ("0010", Fraction(2))),
                survivors=("0000",), chosen="0000",
            ),
        ),
        threshold=Fraction(1),
        stages=8,
    ),
    "block_report": BlockReport(
        parent="", hypotheses_ok=False, witness="column1", branch_state="11",
        branch_value=Fraction(1, 16), threshold=Fraction(1, 2), conclusion_ok=False,
        quantities=(("m00", Fraction(7, 16)), ("n0", Fraction(3, 16)),
                    ("branch", Fraction(1, 16)), ("c", Fraction(1, 2))),
    ),
    "level_verdict": LevelVerdict(level=2, count=3, sign=-1, strict=True, min_length=6),
    "stage_params": params(1),
    "stage_event": StageEvent(stage=5, kind="describe", n=1, value="0110"),
    "cone_certificate": ConeCertificate(
        adversary=1, prefix="01101", kind="unreachable", machine_state=3,
        position_parity=1, constant_value=4,
    ),
    "checkpoint": Checkpoint(position=12, block_bits=8, fraction=Fraction(2, 3)),
    "oracle_report": _oracle_report(),
}

EXPECTED = {
    "growth_verdict": """\
{
  "bound": "1",
  "conclusion_holds": true,
  "delta_at_sigma": "1/8",
  "hypothesis_holds": true,
  "ok": true,
  "p": 2,
  "sigma": "00",
  "stage_s": 1,
  "stage_t": 4,
  "tau": "0011",
  "type": "growth_verdict",
  "value_s_at_tau": "3/4",
  "value_t_at_tau": "5/4"
}
""",
    "dim_report_mixed": """\
{
  "half_log2_base": 3,
  "lower": "2/3",
  "samples": [
    {
      "bracket": null,
      "exact": null,
      "infinite": true,
      "n": 1,
      "type": "exponent_sample",
      "value": "0"
    },
    {
      "bracket": [
        "3/4",
        "13/16"
      ],
      "exact": null,
      "infinite": false,
      "n": 2,
      "type": "exponent_sample",
      "value": "4/3"
    },
    {
      "bracket": null,
      "exact": "2/3",
      "infinite": false,
      "n": 3,
      "type": "exponent_sample",
      "value": "2"
    }
  ],
  "type": "dim_report",
  "upper": null,
  "x": "0101"
}
""",
    "dim_report_no_base": """\
{
  "half_log2_base": null,
  "lower": "2",
  "samples": [
    {
      "bracket": null,
      "exact": "2",
      "infinite": false,
      "n": 1,
      "type": "exponent_sample",
      "value": "1/2"
    }
  ],
  "type": "dim_report",
  "upper": "2",
  "x": "1"
}
""",
    "ledger": """\
{
  "kraft_weight": "5/32",
  "requests": [
    [
      "0110",
      3
    ],
    [
      "00",
      5
    ]
  ],
  "type": "ledger"
}
""",
    "builder_state": """\
{
  "change_counts": [
    0,
    2
  ],
  "events": [
    {
      "kind": "define",
      "n": 1,
      "stage": 3,
      "type": "stage_event",
      "value": "00"
    },
    {
      "kind": "undefine",
      "n": 1,
      "stage": 7,
      "type": "stage_event",
      "value": "00"
    }
  ],
  "ledger": {
    "kraft_weight": "5/32",
    "requests": [
      [
        "0110",
        3
      ],
      [
        "00",
        5
      ]
    ],
    "type": "ledger"
  },
  "params": [
    {
      "described_len": 0,
      "n": 0,
      "p": 2,
      "q": "2",
      "s": 0,
      "type": "stage_params"
    },
    {
      "described_len": 27,
      "n": 1,
      "p": 12,
      "q": "3/2",
      "s": 18,
      "type": "stage_params"
    }
  ],
  "sigmas": [
    "",
    null
  ],
  "stage": 7,
  "type": "builder_state"
}
""",
    "parity_test_result": """\
{
  "array": {
    "flavor": "block34",
    "levels": [
      [
        ""
      ],
      [
        "00",
        "10",
        "11"
      ]
    ],
    "type": "test_array"
  },
  "path": "00",
  "reports": [
    {
      "children": [
        "00",
        "10",
        "11"
      ],
      "chosen": "00",
      "expanded_parent": "",
      "final_values": [
        [
          "00",
          "1/2"
        ],
        [
          "10",
          "5/4"
        ],
        [
          "11",
          "3/4"
        ]
      ],
      "level": 1,
      "phase": "closed",
      "survivors": [
        "00",
        "11"
      ],
      "trigger_stage": 3,
      "type": "level_report"
    },
    {
      "children": [
        "0000",
        "0010"
      ],
      "chosen": "0000",
      "expanded_parent": "00",
      "final_values": [
        [
          "0000",
          "1/3"
        ],
        [
          "0010",
          "2"
        ]
      ],
      "level": 2,
      "phase": "watching",
      "survivors": [
        "0000"
      ],
      "trigger_stage": null,
      "type": "level_report"
    }
  ],
  "stages": 8,
  "threshold": "1",
  "type": "parity_test_result"
}
""",
    "block_report": """\
{
  "branch_state": "11",
  "branch_value": "1/16",
  "conclusion_ok": false,
  "hypotheses_ok": false,
  "parent": "",
  "quantities": [
    [
      "m00",
      "7/16"
    ],
    [
      "n0",
      "3/16"
    ],
    [
      "branch",
      "1/16"
    ],
    [
      "c",
      "1/2"
    ]
  ],
  "threshold": "1/2",
  "type": "block_report",
  "witness": "column1"
}
""",
    "level_verdict": """\
{
  "count": 3,
  "level": 2,
  "min_length": 6,
  "sign": -1,
  "strict": true,
  "type": "level_verdict"
}
""",
    "stage_params": """\
{
  "described_len": 27,
  "n": 1,
  "p": 12,
  "q": "3/2",
  "s": 18,
  "type": "stage_params"
}
""",
    "stage_event": """\
{
  "kind": "describe",
  "n": 1,
  "stage": 5,
  "type": "stage_event",
  "value": "0110"
}
""",
    "cone_certificate": """\
{
  "adversary": 1,
  "constant_value": 4,
  "kind": "unreachable",
  "machine_state": 3,
  "position_parity": 1,
  "prefix": "01101",
  "type": "cone_certificate"
}
""",
    "checkpoint": """\
{
  "block_bits": 8,
  "fraction": "2/3",
  "position": 12,
  "type": "checkpoint"
}
""",
    "oracle_report": """\
{
  "failures": [
    {
      "delta": "-1/8",
      "kind": "not-below",
      "m": [
        3,
        "01"
      ]
    },
""" + "    {},\n" * 30 + """\
    {}
  ],
  "name": "floor-parity-grid",
  "passed": false,
  "stats": {
    "bound": "1/4",
    "failures_truncated": true,
    "rise": "1/2"
  },
  "total": 40
}
""",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    assert dumps(CASES[name]) == EXPECTED[name]


def test_trace_line_bytes():
    trace = DiagTrace(
        engine_name="N",
        mode="settle",
        target=2,
        z="01",
        records=(BitRecord("0", "defeat", 4, (3, 0)), BitRecord("1", "block", 5, (3, 0))),
        checkpoints=(CASES["checkpoint"],),
        certificates=(CASES["cone_certificate"],),
        reached=True,
    )
    assert list(trace_lines(trace)) == [
        '{"engine": "N", "mode": "settle", "target": 2, "type": "trace_header"}',
        '{"adversaries": [3, 0], "bit": "0", "engine": 4, "rule": "defeat"}',
        '{"adversaries": [3, 0], "bit": "1", "engine": 5, "rule": "block"}',
        '{"block_bits": 8, "fraction": "2/3", "position": 12, "type": "checkpoint"}',
        '{"adversary": 1, "constant_value": 4, "kind": "unreachable", "machine_state": 3, '
        '"position_parity": 1, "prefix": "01101", "type": "cone_certificate"}',
        '{"reached": true, "type": "summary", "z": "01"}',
    ]
